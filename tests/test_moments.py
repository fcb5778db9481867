import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cavityheat import model
from cavityheat.chain import MomentMatrix, boundary_currents, sector_covariances, steady_state_matrix
from cavityheat.closedform import current_general, steady_moments
from cavityheat.model import ArraySystem, AtomSpec, ReservoirSpec, SolverError, TwoCavitySystem, atomic_sectors
from cavityheat.moments import evolve

from block_reference import block_generators, block_matrix, block_motion


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


def random_systems(rng, count):
    out = []
    for _ in range(count):
        with_atom = rng.random() < 0.75
        out.append(
            system_for(
                omega_right=rng.uniform(0.8, 1.2),
                coupling=rng.uniform(0.02, 0.08),
                chi=rng.uniform(0.0, 0.5) if with_atom else 0.0,
                sigma_z=float(rng.choice([-1.0, 1.0])) if with_atom else 0.0,
                gamma_left=rng.uniform(0.05, 0.2),
                gamma_right=rng.uniform(0.05, 0.2),
                nbar_left=rng.uniform(0.3, 0.5),
                nbar_right=rng.uniform(0.0, 0.2),
                atom=with_atom,
            )
        )
    return out


def zero_state(sigma_z=0.0):
    return MomentMatrix(np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex), sigma_z=sigma_z)


def sector_mixture(system):
    """Independent steady-state construction: solve each atomic sector as an
    atom-free problem with the shifted right-cavity frequency, then mix."""
    sz = system.sigma_z
    weights = {+1.0: 0.5 * (1.0 + sz), -1.0: 0.5 * (1.0 - sz)}
    mixed = np.zeros((2, 2), dtype=complex)
    for sector, weight in weights.items():
        if weight == 0.0:
            continue
        shifted = replace(
            system, omega_right=system.omega_right + sector * system.chi, atom=None
        )
        mixed += weight * steady_state_matrix(shifted).field_block
    return mixed


def sector_stack(system):
    """The sector matrices A_s = i (h + s x) + D and drives Q, from the block reference."""
    gen = block_generators(system)
    a = np.array([1j * (gen.h + sign * gen.x) + gen.m2[:2, :2] for _, sign in atomic_sectors(system)])
    return a, np.array([gen.m3[:2, :2].astype(complex)] * len(a))


# --- generator structure ----------------------------------------------------


def test_decoupled_generator_eigenvalues():
    # dG/dt = B G + G B+ + M3 has the eigenvalues b_i + conj(b_j) of B = i M1 + M2
    system = system_for(omega_right=0.7, coupling=0.0, chi=0.0, gamma_left=0.1, gamma_right=0.04)
    gen = block_generators(system)
    b = np.linalg.eigvals(1j * gen.m1 + gen.m2)
    eigenvalues = (b[:, None] + b.conj()[None, :]).ravel()
    gamma = system.gamma
    detuning = system.detuning
    expected = np.repeat([-0.1, -0.04, -gamma + 1j * detuning, -gamma - 1j * detuning], 4)
    got = np.sort_complex(eigenvalues)
    assert np.allclose(got, np.sort_complex(expected), atol=1e-12)


def test_population_sector_decouples_without_dispersion():
    gen = block_generators(system_for(chi=0.0, sigma_z=-1.0))
    assert np.all(gen.m1[:2, 2:] == 0)
    assert np.all(gen.m1[2:, :2] == 0)
    # the drive still reaches the population-weighted block
    assert gen.m3[0, 2] != 0


def test_reference_point_generator_is_stable():
    a, _ = sector_stack(system_for(sigma_z=0.3))
    assert np.all(np.linalg.eigvals(a).real < 0)


# --- steady state -----------------------------------------------------------


def test_equilibrium_with_equal_reservoirs():
    system = system_for(chi=0.0, sigma_z=0.0, nbar_left=0.4, nbar_right=0.4, atom=False)
    v = steady_state_matrix(system)
    assert v.occupations == pytest.approx([0.4, 0.4], rel=1e-13)
    assert abs(v.field_block[0, 1]) < 1e-15


def test_uncoupled_cavities_hold_reservoir_occupations():
    v = steady_state_matrix(system_for(coupling=0.0))
    assert v.occupations[0] == pytest.approx(0.5, rel=1e-14)
    assert v.occupations[1] == pytest.approx(0.0, abs=1e-14)


def test_matches_closed_form_at_definite_atomic_states():
    rng = np.random.default_rng(23)
    for system in random_systems(rng, 30):
        v = steady_state_matrix(system)
        m = steady_moments(system)
        assert v.occupations[0] == pytest.approx(m.n_left, rel=1e-10)
        assert v.occupations[1] == pytest.approx(m.n_right, rel=1e-10)
        assert v.field_block[0, 1] == pytest.approx(m.coherence, rel=1e-10, abs=1e-18)
        assert v.residual < 1e-12


def test_moment_vector_structure():
    # G = [[F, S], [S, F]] with F = <a_j+ a_k> and S = <a_j+ a_k sz> both Hermitian
    rng = np.random.default_rng(29)
    for system in random_systems(rng, 10):
        v = steady_state_matrix(system)
        f, s = v.field_block, v.sz_block
        assert v.n_sites == 2 and f.shape == s.shape == (2, 2)
        assert np.allclose(f, f.conj().T, rtol=0, atol=1e-15)
        assert np.allclose(s, s.conj().T, rtol=0, atol=1e-15)
        assert np.all(v.occupations >= 0) and v.positivity_margin >= 0


def test_closed_form_exact_for_mixed_atom_on_resonance():
    system = system_for(chi=0.3, sigma_z=0.4, gamma_left=0.1, gamma_right=0.05)
    v = steady_state_matrix(system)
    m = steady_moments(system)
    assert v.occupations[0] == pytest.approx(m.n_left, rel=1e-12)
    assert v.field_block[0, 1] == pytest.approx(m.coherence, rel=1e-12)


def test_mixed_atom_with_detuning_equals_sector_mixture():
    # the exact steady state for a diagonal atomic mixture is the convex
    # combination of the two sector solutions; the linear solve reproduces it
    system = system_for(omega_right=0.8, coupling=0.05, chi=0.3, sigma_z=0.4, gamma_left=0.1, gamma_right=0.03)
    v = steady_state_matrix(system)
    mixed = sector_mixture(system)
    assert np.allclose(v.field_block, mixed, rtol=1e-12, atol=1e-16)
    # and the closed form, mixed over the same sectors, gives the same moments
    m = steady_moments(system)
    f = v.field_block
    assert np.allclose([m.n_left, m.n_right, m.coherence], [f[0, 0], f[1, 1], f[0, 1]], rtol=1e-12, atol=1e-16)


# --- time evolution ---------------------------------------------------------


def test_single_mode_relaxation_against_closed_form():
    gamma_left = 0.1
    system = system_for(coupling=0.0, chi=0.0, sigma_z=0.0, gamma_left=gamma_left, atom=False)
    start = replace(zero_state(), field_block=np.diag([2.0, 0.0]).astype(complex))
    dt = 1e-3 / gamma_left
    trajectory = evolve(system, start, t_final=5.0 / gamma_left, dt=dt)
    expected = 0.5 + (2.0 - 0.5) * np.exp(-gamma_left * trajectory.times)
    assert np.max(np.abs(trajectory.field_block[:, 0, 0].real - expected)) < 1e-8


def test_steady_state_is_a_fixed_point():
    system = system_for()
    v = steady_state_matrix(system)
    trajectory = evolve(system, v, t_final=50.0, dt=0.5)
    drift = np.max(np.abs(block_matrix(trajectory) - block_matrix(v)[None, :]))
    assert drift < 1e-10


def test_zero_state_converges_to_steady_state():
    system = system_for()
    v = steady_state_matrix(system)
    gamma = system.left.rate
    trajectory = evolve(system, zero_state(sigma_z=1.0), t_final=20.0 / gamma, dt=0.05 / gamma)
    final_error = np.max(np.abs(block_matrix(trajectory.final) - block_matrix(v)))
    assert final_error < 1e-6
    # the residual distance keeps shrinking once the slowest mode dominates
    distances = np.linalg.norm(block_matrix(trajectory) - block_matrix(v)[None, :], axis=(1, 2))
    tail = distances[len(distances) // 2 :]
    assert np.all(np.diff(tail) <= 1e-14)


def test_sigma_z_is_carried_bitwise():
    system = system_for(sigma_z=-1.0)
    trajectory = evolve(system, zero_state(sigma_z=-1.0), t_final=1.0, dt=0.01)
    assert trajectory.sigma_z == -1.0
    assert trajectory.final.sigma_z == -1.0


def chain_for(n_sites, host, sigma_z, chi=0.3):
    return ArraySystem(n_sites=n_sites, omega=1.0, coupling=0.05, left=ReservoirSpec(0.064, 0.5),
                       right=ReservoirSpec(0.03, 0.1), atom=AtomSpec(chi, sigma_z, host_index=host))


def test_oversized_step_warns():
    system = system_for(omega_right=1.1, gamma_right=0.08)
    # the sectors relax at b_i + conj(b_j), b the eigenvalues of A_s = i (h + s x) + D
    h = np.array([[system.omega_left, system.coupling], [system.coupling, system.omega_right]])
    x, d = np.diag([0.0, system.atom.dispersive_strength]), np.diag([-system.left.rate, -system.right.rate]) / 2
    b = np.linalg.eigvals(np.array([1j * (h + x) + d, 1j * (h - x) + d]))
    bound = np.max(np.abs(b[:, :, None] + b.conj()[:, None, :]))
    with pytest.warns(UserWarning) as record:
        evolve(system, zero_state(sigma_z=1.0), t_final=200.0, dt=100.0)
    assert [str(w.message) for w in record] == [
        f"dt * max|eigenvalue| = {100.0 * bound:.3g} >= 0.1; reduce the step for a faithful transient"]
    with pytest.warns(UserWarning, match="eigenvalue"):
        evolve(system, zero_state(sigma_z=1.0), t_final=1.0, dt=0.1001 / bound)
    evolve(system, zero_state(sigma_z=1.0), t_final=1.0, dt=0.0999 / bound)  # warnings are errors here
    # a 4-site chain with the atom inside it, the same rule on its 4 x 4 sector matrices
    chain4 = chain_for(4, 2, 1.0)
    gen = block_generators(chain4)
    d = gen.m2[:4, :4]
    b = np.linalg.eigvals(np.array([1j * (gen.h + gen.x) + d, 1j * (gen.h - gen.x) + d]))
    bound = np.max(np.abs(b[:, :, None] + b.conj()[:, None, :]))
    zero = MomentMatrix(np.zeros((4, 4)), np.zeros((4, 4)), sigma_z=1.0)
    with pytest.warns(UserWarning) as record:
        evolve(chain4, zero, t_final=200.0, dt=100.0)
    assert [str(w.message) for w in record] == [
        f"dt * max|eigenvalue| = {100.0 * bound:.3g} >= 0.1; reduce the step for a faithful transient"]
    with pytest.warns(UserWarning, match="eigenvalue"):
        evolve(chain4, zero, t_final=1.0, dt=0.1001 / bound)
    evolve(chain4, zero, t_final=1.0, dt=0.0999 / bound)


@pytest.mark.parametrize("sigma_z, n_sites, host", [
    (-1.0, 2, 2), (0.3, 2, 2), (1.0, 2, 2), (None, 2, 2), (0.3, 3, 2), (-1.0, 3, 3), (0.6, 4, 2), (1.0, 4, 4),
], ids=["ground", "mixed", "excited", "no-atom", "chain3-inner-mixed", "chain3-end-ground", "chain4-inner-mixed",
        "chain4-end-excited"])
def test_evolve_is_the_rk4_integration_of_the_block_equation(sigma_z, n_sites, host):
    # evolve steps the two sectors X_s = (F + s S)/2; the reference steps the 2N x 2N matrix G itself
    if n_sites == 2:
        system = system_for(omega_right=1.1, chi=0.3, sigma_z=sigma_z or 0.0, gamma_right=0.03, nbar_right=0.1,
                            atom=sigma_z is not None)
    else:
        system = chain_for(n_sites, host, sigma_z)
    rng = np.random.default_rng(41)
    shape = (2, n_sites, n_sites)
    f, s = (b + b.conj().T for b in rng.normal(size=shape) + 1j * rng.normal(size=shape))
    dt, n_steps = 0.02, 400
    trajectory = evolve(system, MomentMatrix(f, s, sigma_z=system.sigma_z), t_final=n_steps * dt, dt=dt)
    g = [np.block([[f, s], [s, f]])]
    for _ in range(n_steps):
        k1 = block_motion(system, g[-1])
        k2 = block_motion(system, g[-1] + 0.5 * dt * k1)
        k3 = block_motion(system, g[-1] + 0.5 * dt * k2)
        k4 = block_motion(system, g[-1] + dt * k3)
        g.append(g[-1] + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    got, want = block_matrix(trajectory), np.array(g)
    assert np.max(np.abs(got - want), axis=(1, 2)).max() <= 1e-13 * np.max(np.abs(want))


def test_evolve_rejects_bad_steps():
    system = system_for()
    with pytest.raises(ValueError):
        evolve(system, zero_state(sigma_z=1.0), t_final=1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(system, zero_state(sigma_z=1.0), t_final=0.001, dt=0.01)
    for t_final in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_final"):
            evolve(system, zero_state(sigma_z=1.0), t_final=t_final, dt=0.1)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must"):
            evolve(system, zero_state(sigma_z=1.0), t_final=1.0, dt=dt)


def test_evolve_refuses_a_step_count_that_is_not_finite():
    # t_final and dt are each finite, but 1e300 / 1e-10 overflows to inf steps
    with pytest.raises(ValueError, match=re.escape("t_final/dt a finite step count (got t_final=1e+300, dt=1e-10)")):
        evolve(system_for(), zero_state(sigma_z=1.0), t_final=1e300, dt=1e-10)


def test_evolve_refuses_a_trajectory_it_cannot_hold():
    # 2e20 steps: numpy refuses the shape of the trajectory before it allocates anything;
    # dt = 0.05 stays below the step warning of the pair
    with pytest.raises(ValueError, match=re.escape("a trajectory of 200000000000000000001 states cannot be held "
                                                   "(t_final=1e+19, dt=0.05)")):
        evolve(system_for(), zero_state(sigma_z=1.0), t_final=1e19, dt=0.05)


# --- currents ----------------------------------------------------------------


def test_equilibrium_currents_vanish():
    system = system_for(chi=0.0, sigma_z=0.0, nbar_left=0.4, nbar_right=0.4, atom=False)
    report = boundary_currents(system, steady_state_matrix(system))
    assert abs(report.i_left) < 1e-14
    assert abs(report.i_right) < 1e-14


def test_coherence_contribution_dominates_past_reversal():
    # ground-state atom, rate ratio 0.3: the coherence share overtakes the
    # occupation share exactly where the current changes sign
    base = system_for(coupling=0.05, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03)
    crossing = 1.3  # chi where Gamma_R/Gamma_L = (chi - omega_R)/omega_L
    below = boundary_currents(
        replace(base, atom=replace(base.atom, dispersive_strength=crossing - 0.2)),
        steady_state_matrix(replace(base, atom=replace(base.atom, dispersive_strength=crossing - 0.2))),
    )
    above = boundary_currents(
        replace(base, atom=replace(base.atom, dispersive_strength=crossing + 0.2)),
        steady_state_matrix(replace(base, atom=replace(base.atom, dispersive_strength=crossing + 0.2))),
    )
    assert below.i_occupation > below.i_coherence and below.i_left > 0
    assert above.i_coherence > above.i_occupation and above.i_left < 0


def test_currents_match_closed_form_path():
    rng = np.random.default_rng(31)
    for system in random_systems(rng, 25):
        report = boundary_currents(system, steady_state_matrix(system))
        reference = current_general(system)
        assert report.i_left == pytest.approx(reference.i_left, rel=1e-10, abs=1e-18)


def test_boundary_currents_balance_on_random_grid():
    rng = np.random.default_rng(37)
    for system in random_systems(rng, 100):
        report = boundary_currents(system, steady_state_matrix(system))
        assert abs(report.i_left + report.i_right) < 1e-10


def test_non_steady_vector_warns():
    system = system_for()
    off = replace(zero_state(sigma_z=1.0), field_block=np.diag([0.3, 0.0]).astype(complex))
    with pytest.warns(UserWarning, match="not a steady state"):
        boundary_currents(system, off)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_evolve_raises_when_a_step_leaves_the_finite_range(action):
    # far past the stability limit of the fixed step, each step multiplies the state by ~1e6
    system = system_for()
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        warnings.filterwarnings("ignore", message="dt \\* max", category=UserWarning)
        with pytest.raises(SolverError, match="left the finite range at step 49"):
            evolve(system, zero_state(sigma_z=system.sigma_z), t_final=1e5, dt=1e3)


def test_steady_vector_does_not_warn():
    system = system_for()
    v = steady_state_matrix(system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boundary_currents(system, v)


def test_mixed_atom_right_current_mixes_the_sectors():
    # detuned pair, mixed atom: the right cavity sits at omega_R + s chi in
    # sector s, so its current needs <n_R sz>, not sigma_z <n_R>; the Fock
    # oracle gives I_R = -2.50e-3 here
    system = system_for(omega_right=1.1, coupling=0.05, chi=0.3, sigma_z=0.2, gamma_left=0.1, gamma_right=0.1)
    v = steady_state_matrix(system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = boundary_currents(system, v)
    assert report.i_right == pytest.approx(-2.50e-3, rel=1e-3)
    assert report.i_right == pytest.approx(-report.i_left, rel=1e-12)


def test_steady_state_carries_its_residual():
    # the largest residual of the sector equations, as the core returns it
    rng = np.random.default_rng(41)
    for system in random_systems(rng, 5) + [system_for(omega_right=1.1, chi=0.3, sigma_z=0.2)]:
        v = steady_state_matrix(system)
        _, residual, _ = sector_covariances(*sector_stack(system))
        assert v.residual == residual.max()


@pytest.mark.parametrize("gamma", [1e-6, 1e-7])
def test_a_high_q_pair_solves_to_the_closed_form(gamma):
    # Gamma << J << omega: ||A|| / ||Q|| is about 3e6 and 3e7, and a backward-stable
    # solve leaves a residual of about eps ||A|| ||C||, far above eps ||Q||
    system = system_for(coupling=0.01, gamma_left=gamma, gamma_right=gamma)
    state = steady_state_matrix(system)
    assert state.residual <= model.RESIDUAL_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the boundary currents balance
        report = boundary_currents(system, state)
    assert report.i_left == pytest.approx(current_general(system).i_left, rel=1e-9, abs=0)


def test_a_perturbed_high_q_solve_is_refused(monkeypatch):
    # a relative error of 1e-11 in one entry of C is a backward error of about 5e-14
    solve = np.linalg.solve

    def perturbed(a, b):
        c = solve(a, b)
        c[:, 0] *= 1 + 1e-11  # C_00 of every sector
        return c

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(SolverError, match="^sector steady-state residual "):
        steady_state_matrix(system_for(coupling=0.01, gamma_left=1e-6, gamma_right=1e-6))


def test_currents_reject_a_state_of_another_sigma_z():
    excited = system_for(chi=0.05, sigma_z=1.0)
    ground = replace(excited, atom=replace(excited.atom, sigma_z=-1.0))
    with pytest.raises(ValueError, match="does not belong"):
        boundary_currents(excited, steady_state_matrix(ground))
    with pytest.raises(ValueError, match="does not belong"):
        evolve(excited, zero_state(sigma_z=-1.0), t_final=1.0, dt=0.1)


# --- one stack solve ------------------------------------------------------------


@pytest.mark.parametrize("field", ["i_left", "i_right", "i_occupation", "i_coherence"])
def test_moment_currents_are_affine_in_sigma_z(field):
    # every steady quantity is the p+- mixture of the two pinned sectors
    base = system_for(omega_right=1.1, coupling=0.05, chi=0.3, gamma_left=0.1, gamma_right=0.07, nbar_right=0.1)

    def current(sigma_z):
        system = replace(base, atom=replace(base.atom, sigma_z=sigma_z))
        return getattr(boundary_currents(system, steady_state_matrix(system)), field)

    up, down = current(1.0), current(-1.0)
    scale = max(abs(up), abs(down))
    for sigma_z in (-0.7, -0.2, 0.0, 0.3, 0.9):
        mixed = 0.5 * (1 + sigma_z) * up + 0.5 * (1 - sigma_z) * down
        assert current(sigma_z) == pytest.approx(mixed, rel=1e-12, abs=1e-13 * scale)
