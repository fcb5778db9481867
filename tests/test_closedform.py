import math
from dataclasses import replace

import numpy as np
import pytest

from cavityheat.closedform import (
    REGIME_CONDUCTING,
    REGIME_INSULATING,
    REGIME_REVERSED,
    classify_regime,
    current_general,
    current_pm,
    current_resonant_with_atom,
    peak_rate,
    rectification,
    steady_moments,
)
from cavityheat.chain import ballistic_current, boundary_currents, steady_state_matrix
from cavityheat.model import ArraySystem, AtomSpec, ReservoirSpec, TwoCavitySystem


def system_for(
    omega_right=1.0,
    coupling=0.02,
    chi=0.05,
    sigma_z=1.0,
    gamma_left=0.064,
    gamma_right=0.064,
    nbar_left=0.5,
    nbar_right=0.0,
    atom=True,
):
    return TwoCavitySystem(
        omega_left=1.0,
        omega_right=omega_right,
        coupling=coupling,
        left=ReservoirSpec(gamma_left, nbar_left),
        right=ReservoirSpec(gamma_right, nbar_right),
        atom=AtomSpec(dispersive_strength=chi, sigma_z=sigma_z) if atom else None,
    )


def as_chain(system):
    """The equivalent N = 2 array of a resonant, atom-free pair."""
    assert system.atom is None and system.detuning == 0.0
    return ArraySystem(n_sites=2, omega=system.omega_left, coupling=system.coupling,
                       left=system.left, right=system.right)


def random_systems(rng, count, sigma_z_choices=(-1.0, 1.0), chi_max=0.5):
    out = []
    for _ in range(count):
        with_atom = rng.random() < 0.75
        out.append(
            system_for(
                omega_right=rng.uniform(0.8, 1.2),
                coupling=rng.uniform(0.02, 0.08),
                chi=rng.uniform(0.0, chi_max) if with_atom else 0.0,
                sigma_z=float(rng.choice(sigma_z_choices)) if with_atom else 0.0,
                gamma_left=rng.uniform(0.05, 0.2),
                gamma_right=rng.uniform(0.05, 0.2),
                nbar_left=rng.uniform(0.3, 0.5),
                nbar_right=rng.uniform(0.0, 0.2),
                atom=with_atom,
            )
        )
    return out


# --- steady_moments -------------------------------------------------------


def test_decoupled_cavities_equilibrate_with_their_reservoirs():
    m = steady_moments(system_for(coupling=0.0))
    assert m.n_left == pytest.approx(0.5, abs=1e-15)
    assert m.n_right == pytest.approx(0.0, abs=1e-15)
    assert m.coherence == 0.0


def test_equal_reservoirs_resonant_no_atom_zero_coherence():
    m = steady_moments(system_for(chi=0.0, sigma_z=0.0, nbar_left=0.3, nbar_right=0.3, atom=False))
    assert m.n_left == pytest.approx(0.3, rel=1e-14)
    assert m.n_right == pytest.approx(0.3, rel=1e-14)
    assert abs(m.coherence) < 1e-16


def test_occupations_bounded_by_reservoirs():
    rng = np.random.default_rng(7)
    for system in random_systems(rng, 30):
        m = steady_moments(system)
        lo = min(system.left.mean_occupation, system.right.mean_occupation)
        hi = max(system.left.mean_occupation, system.right.mean_occupation)
        assert lo - 1e-12 <= m.n_left <= hi + 1e-12
        assert lo - 1e-12 <= m.n_right <= hi + 1e-12


# --- current_general ------------------------------------------------------


def test_no_coupling_no_current():
    assert current_general(system_for(coupling=0.0)).i_left == 0.0


def test_equal_occupations_no_current():
    report = current_general(system_for(nbar_left=0.4, nbar_right=0.4))
    assert report.i_left == pytest.approx(0.0, abs=1e-16)


def test_general_reduces_to_resonant_no_atom():
    system = system_for(chi=0.0, sigma_z=0.0, atom=False)
    general = current_general(system).i_left
    resonant = ballistic_current(as_chain(system))
    assert general == pytest.approx(resonant, rel=1e-13)


def test_current_decomposition_identity():
    rng = np.random.default_rng(11)
    for system in random_systems(rng, 20):
        report = current_general(system)
        recombined = system.left.rate * (report.i_occupation - report.i_coherence)
        assert report.i_left == pytest.approx(recombined, rel=1e-12, abs=1e-16)
        assert report.i_left + report.i_right == 0.0


def test_current_linear_in_occupation_difference():
    # effective conductivity does not depend on the occupations themselves
    base = system_for(omega_right=0.9, chi=0.3, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.05)
    slopes = []
    for nl, nr in [(0.5, 0.0), (0.4, 0.1), (0.25, 0.05), (0.3, 0.0)]:
        system = replace(
            base,
            left=replace(base.left, mean_occupation=nl),
            right=replace(base.right, mean_occupation=nr),
        )
        slopes.append(current_general(system).i_left / (nl - nr))
    assert np.ptp(slopes) < 1e-15


def test_small_and_large_rate_scaling():
    # I proportional to Gamma for small Gamma, to 1/Gamma for large Gamma
    def current_at(gamma):
        system = system_for(gamma_left=gamma, gamma_right=gamma)
        return current_general(system).i_left

    small = [current_at(g) / g for g in (1e-5, 1e-6, 1e-7)]
    assert np.ptp(small) / abs(small[0]) < 1e-3
    large = [current_at(g) * g for g in (1e2, 1e3, 1e4)]
    assert np.ptp(large) / abs(large[0]) < 1e-3


# --- resonant closed forms ------------------------------------------------


def test_resonant_no_atom_reference_value():
    system = system_for(coupling=0.05, gamma_left=0.15, gamma_right=0.15, atom=False)
    expected = 4 * 1.0 * 0.05**2 * 0.15 * 0.15 * 0.5 / ((4 * 0.05**2 + 0.15 * 0.15) * 0.3)
    assert expected == pytest.approx(0.0115385, abs=5e-8)
    assert ballistic_current(as_chain(system)) == pytest.approx(expected, rel=1e-15)


def test_resonant_no_atom_zero_bias_and_rate_scaling():
    assert ballistic_current(as_chain(system_for(atom=False, nbar_left=0.2, nbar_right=0.2))) == 0.0
    tiny = [
        ballistic_current(as_chain(system_for(atom=False, gamma_left=g))) / g for g in (1e-6, 1e-7, 1e-8)
    ]
    assert np.ptp(tiny) / abs(tiny[0]) < 1e-4


def test_resonant_with_atom_maximum_current():
    gamma = math.sqrt(4 * 0.02**2 + 0.05**2)
    system = system_for(gamma_left=gamma, gamma_right=gamma)
    expected = 0.02**2 * (1.0 + 0.05 / 2) * 0.5 / math.sqrt(4 * 0.02**2 + 0.05**2)
    assert expected == pytest.approx(0.003202, abs=5e-7)
    assert current_resonant_with_atom(system) == pytest.approx(expected, rel=1e-12)


def test_resonant_with_atom_reduces_to_no_atom():
    with_atom = system_for(chi=0.0, gamma_left=0.1, gamma_right=0.1)
    without = system_for(atom=False, gamma_left=0.1, gamma_right=0.1)
    assert current_resonant_with_atom(with_atom) == pytest.approx(
        ballistic_current(as_chain(without)), rel=1e-13
    )


def test_resonant_with_atom_matches_general_for_unequal_rates():
    rng = np.random.default_rng(3)
    for _ in range(10):
        system = system_for(
            chi=rng.uniform(0.0, 0.4),
            sigma_z=float(rng.choice([-1.0, 1.0])),
            gamma_left=rng.uniform(0.05, 0.2),
            gamma_right=rng.uniform(0.05, 0.2),
        )
        assert current_resonant_with_atom(system) == pytest.approx(
            current_general(system).i_left, rel=1e-11
        )


def test_resonant_with_atom_rejects_detuned():
    with pytest.raises(ValueError):
        current_resonant_with_atom(system_for(omega_right=0.95))


# --- peak rate ------------------------------------------------------------


def test_peak_rate_reference_value():
    assert peak_rate(system_for()) == pytest.approx(0.0640312, abs=5e-8)


def test_peak_rate_limits():
    assert peak_rate(system_for(chi=0.0)) == pytest.approx(2 * 0.02, rel=1e-15)
    assert peak_rate(system_for(coupling=0.0)) == pytest.approx(0.05, rel=1e-15)


# --- switch classification -------------------------------------------------


def switch_system(alpha, sigma_z, gamma_left=0.1, chi=1.1, omega_right=0.8):
    gamma_right = alpha * gamma_left * (chi - omega_right) / 1.0
    return system_for(
        omega_right=omega_right,
        coupling=0.05,
        chi=chi,
        sigma_z=sigma_z,
        gamma_left=gamma_left,
        gamma_right=gamma_right,
    )


def test_regime_table_signs():
    for alpha, sign in [(2.0, 1), (1.0, 0), (0.5, -1)]:
        system = switch_system(alpha, sigma_z=-1.0)
        got_alpha, regime = classify_regime(system)
        assert got_alpha == pytest.approx(alpha, rel=1e-12)
        i_left = current_general(system).i_left
        if sign > 0:
            assert regime == REGIME_CONDUCTING and i_left > 0
        elif sign == 0:
            assert regime == REGIME_INSULATING and abs(i_left) < 1e-12
        else:
            assert regime == REGIME_REVERSED and i_left < 0
        # the excited atom conducts regardless of alpha
        excited = switch_system(alpha, sigma_z=1.0)
        assert classify_regime(excited)[1] == REGIME_CONDUCTING
        assert current_general(excited).i_left > 0


def test_classification_matches_current_sign_on_alpha_grid():
    for alpha in np.linspace(0.2, 5.0, 25):
        system = switch_system(float(alpha), sigma_z=-1.0)
        _, regime = classify_regime(system)
        i_left = current_general(system).i_left
        expected = REGIME_CONDUCTING if i_left > 1e-12 else (REGIME_REVERSED if i_left < -1e-12 else REGIME_INSULATING)
        assert regime == expected


def test_classify_regime_preconditions():
    with pytest.raises(ValueError, match="atom"):
        classify_regime(system_for(atom=False))
    with pytest.raises(ValueError, match="chi > omega_right"):
        classify_regime(system_for(chi=0.5, sigma_z=-1.0))
    with pytest.raises(ValueError, match="sigma_z"):
        classify_regime(switch_system(2.0, sigma_z=0.3))
    with pytest.raises(ValueError, match="hotter"):
        classify_regime(replace(switch_system(2.0, -1.0), left=ReservoirSpec(0.1, 0.0)))


# --- pinned-state currents --------------------------------------------------


def test_current_pm_zero_crossing():
    # Gamma_R / Gamma_L = (chi - omega_R) / omega_L makes the ground-state current vanish
    system = system_for(omega_right=0.8, coupling=0.05, chi=1.1, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03)
    assert abs(current_pm(system, -1)) < 1e-18
    assert current_pm(system, +1) > 0


def test_current_pm_excited_always_positive():
    rng = np.random.default_rng(5)
    for system in random_systems(rng, 15, chi_max=1.5):
        if system.atom is None:
            continue
        assert current_pm(system, +1) > 0


def test_current_pm_signs_coincide_without_dispersion():
    system = system_for(chi=0.0, sigma_z=-1.0, gamma_left=0.08, gamma_right=0.11)
    assert current_pm(system, +1) == pytest.approx(current_pm(system, -1), rel=1e-14)


def test_current_pm_agrees_with_general_expression():
    # the two printed forms must agree numerically at definite atomic states
    rng = np.random.default_rng(13)
    for system in random_systems(rng, 25, chi_max=1.4):
        if system.atom is None:
            continue
        for sign in (1, -1):
            pinned = replace(system, atom=replace(system.atom, sigma_z=float(sign)))
            expected = current_general(pinned).i_left
            got = current_pm(system, sign)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-20)


# --- rectification ----------------------------------------------------------


def test_forward_reverse_symmetric_system():
    system = system_for(chi=0.0, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.1)
    result = rectification(system)
    i_f, i_r = result.forward, result.reverse
    assert i_f == pytest.approx(-i_r, rel=1e-14)


def test_forward_reverse_asymmetric_magnitudes():
    system = system_for(coupling=0.05, chi=0.4, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03)
    result = rectification(system)
    i_f, i_r = result.forward, result.reverse
    assert abs(abs(i_f) - abs(i_r)) > 1e-8


def test_forward_reverse_same_direction_past_reversal():
    # reversal condition flips the forward current onto the reverse one's side
    system = system_for(omega_right=0.8, coupling=0.05, chi=1.3, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03)
    result = rectification(system)
    i_f, i_r = result.forward, result.reverse
    assert i_f < 0 and i_r < 0


def test_rectification_consistent_with_currents():
    rng = np.random.default_rng(17)
    for system in random_systems(rng, 15, sigma_z_choices=(-1.0,), chi_max=1.2):
        if system.atom is None:
            continue
        result = rectification(system)
        i_f, i_r = result.forward, result.reverse
        if i_r == 0:
            continue
        assert result.ratio == pytest.approx(-i_f / i_r, rel=1e-12)


def test_rectification_unity_cases():
    equal_rates = system_for(chi=0.4, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.1)
    assert rectification(equal_rates).ratio == 1.0
    # omega_left = |omega_right - chi| with the shifted frequency still positive
    matched = system_for(omega_right=1.5, chi=0.5, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03)
    assert rectification(matched).ratio == pytest.approx(1.0, abs=1e-15)
    # the mirror branch omega_right - chi = -omega_left balances magnitudes with opposite sign
    mirrored = system_for(chi=2.0, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03)
    assert rectification(mirrored).ratio == pytest.approx(-1.0, abs=1e-15)


def test_rectification_divergence():
    system = system_for(chi=1.5, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.2)
    result = rectification(system)
    assert math.isinf(result.ratio) and result.ratio > 0


def test_rectification_invariant_under_rate_scaling():
    base = system_for(chi=1.3, sigma_z=-1.0, gamma_left=0.08, gamma_right=0.05)
    reference = rectification(base).ratio
    for scale in (0.1, 3.0, 42.0):
        scaled = replace(
            base,
            left=replace(base.left, rate=scale * base.left.rate),
            right=replace(base.right, rate=scale * base.right.rate),
        )
        assert rectification(scaled).ratio == pytest.approx(reference, rel=1e-12)


def test_rectification_requires_ground_state():
    with pytest.raises(ValueError, match="ground state"):
        rectification(system_for(chi=0.4, sigma_z=1.0))
    with pytest.raises(ValueError, match="atom"):
        rectification(system_for(atom=False))


def test_mixed_atom_detuned_current_is_the_sector_mixture():
    # detuned pair with a mixed atom: each sector is exact at its own shifted
    # right-cavity frequency, so the closed form mixes them (2.563e-3 without)
    system = system_for(omega_right=1.1, coupling=0.05, chi=0.3, sigma_z=0.2, gamma_left=0.1, gamma_right=0.1)
    report = current_general(system)
    assert report.i_left == pytest.approx(2.500e-3, rel=1e-6)
    assert report.i_right == -report.i_left
    from_moments = boundary_currents(system, steady_state_matrix(system))
    assert report.i_left == pytest.approx(from_moments.i_left, rel=1e-10)
    assert report.i_occupation == pytest.approx(from_moments.i_occupation, rel=1e-10)
    assert report.i_coherence == pytest.approx(from_moments.i_coherence, abs=1e-10 * abs(report.i_left))
    assert report.regime == "conducting" and report.alpha is None
    pinned = [current_general(replace(system, atom=replace(system.atom, sigma_z=s))).i_left for s in (1.0, -1.0)]
    assert report.i_left == pytest.approx(0.6 * pinned[0] + 0.4 * pinned[1], rel=1e-14)


def test_the_single_point_expressions_refuse_a_pair_outside_their_assumptions():
    atom_free, detuned = system_for(atom=False), system_for(omega_right=0.95)
    for call, system, message in [
        (current_resonant_with_atom, atom_free, "resonant with-atom expression requires an atom"),
        (peak_rate, detuned, f"peak-rate condition assumes equal cavity frequencies (detuning {detuned.detuning})"),
        (lambda system: current_pm(system, 1), atom_free, "pinned-state current requires an atom"),
    ]:
        with pytest.raises(ValueError) as err:
            call(system)
        assert str(err.value) == message
