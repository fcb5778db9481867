import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from cavityheat import fockspace
from cavityheat.chain import boundary_currents, steady_state_matrix
from cavityheat.fockspace import (
    FockConfig,
    _channels,
    _excitation_blocks,
    _inverse,
    _lindblad_backward_error,
    _sector_hamiltonian,
    converged_steady_rho,
    g2_zero,
    gibbs_tail_mass,
    oracle_currents,
    steady_rho,
    thermal_fidelity,
    thermal_state,
)
from cavityheat.model import (RESIDUAL_TOL, ArraySystem, AtomSpec, ReservoirSpec, SolverError, TwoCavitySystem,
                              ValidationError, _sites, _stack)
from fock_reference import (
    build_liouvillian,
    fock_operators,
    full_matrix,
    full_space_currents,
    liouvillian,
    sector_backward_error,
    sector_state,
)


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


SMALL = FockConfig(n_max=4, tail_bound=1e-2)
WORK = FockConfig(n_max=12, tail_bound=1e-6)


# --- configuration ------------------------------------------------------------


def test_tail_mass_formula():
    assert gibbs_tail_mass(12, 0.0) == 0.0
    q = 0.5 / 1.5
    assert gibbs_tail_mass(12, 0.5) == pytest.approx(q**13, rel=1e-14)


def test_default_tail_bound_forces_larger_truncation():
    # at nbar = 0.5 the default 1e-8 bound needs n_max >= 16
    with pytest.raises(ValueError, match="tail mass"):
        steady_rho(system_for(atom=False), FockConfig(n_max=12))
    assert gibbs_tail_mass(16, 0.5) < 1e-8


def test_dimension_guard():
    cfg = FockConfig(n_max=12, tail_bound=1e-6, max_vectorized_dim=10_000)
    with pytest.raises(ValueError, match="guard"):
        steady_rho(system_for(), cfg)


def test_dimension_guard_rejects_a_nan_limit():
    cfg = FockConfig(n_max=6, tail_bound=1e-3, max_vectorized_dim=math.nan)
    with pytest.raises(ValidationError, match="max_vectorized_dim must be positive, got nan"):
        steady_rho(system_for(nbar_left=0.01), cfg)


@pytest.mark.parametrize(
    "field, value, message",
    [("tail_bound", -1.0, "tail_bound must be non-negative, got -1.0"),
     ("tail_bound", math.nan, "tail_bound must be non-negative, got nan"),
     ("max_vectorized_dim", 0, "max_vectorized_dim must be positive, got 0"),
     ("max_vectorized_dim", -5, "max_vectorized_dim must be positive, got -5")],
)
def test_a_bad_bound_is_named_not_blamed_on_the_truncation(field, value, message):
    # the tail mass at n_max 6 (4.6e-4) passes a bound of 1e-3 and fails the default 1e-8:
    # either way, a bound that no truncation can meet is refused as such
    for tail_bound in (1e-3, 1e-8):
        cfg = replace(FockConfig(n_max=6, tail_bound=tail_bound), **{field: value})
        with pytest.raises(ValidationError) as info:
            steady_rho(system_for(), cfg)
        assert info.value.errors == [f"fock: {message}"]


@pytest.mark.parametrize("n_max", [2.5, True, math.nan])
def test_truncation_must_be_an_integer(n_max):
    with pytest.raises(ValidationError, match=r"n_max must be an integer of at least 1, got " + re.escape(repr(n_max))):
        steady_rho(system_for(nbar_left=0.01), FockConfig(n_max=n_max, tail_bound=1.0))


def test_thermal_state_normalised():
    rho = thermal_state(20, 0.5)
    assert np.trace(rho) == pytest.approx(1.0, rel=1e-14)
    assert np.all(np.diff(np.diag(rho)) < 0)
    vacuum = thermal_state(5, 0.0)
    assert vacuum[0, 0] == 1.0


@pytest.mark.parametrize("n_levels", [2.5, 0, -1, True, math.nan, math.inf])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_thermal_state_takes_an_integer_count_of_at_least_one_level(n_levels, nbar):
    with pytest.raises(ValueError, match=re.escape(f"n_levels must be an integer of at least 1, got {n_levels!r}")):
        thermal_state(n_levels, nbar)


# --- the full-space reference generator -----------------------------------------


def test_generator_annihilates_the_trace():
    # the identity functional is a left null vector of any Lindblad generator
    for atom in (True, False):
        system = system_for(atom=atom)
        gen = build_liouvillian(system, SMALL.n_max)
        dim = int(round(math.sqrt(gen.shape[0])))
        trace_vector = np.eye(dim).reshape(-1)
        assert np.max(np.abs(trace_vector @ gen)) < 1e-12


def test_closed_generator_is_antihermitian():
    ops = fock_operators(system_for(), SMALL.n_max)
    gen = liouvillian(ops.hamiltonian, [])
    dense = gen.toarray()
    assert np.linalg.norm(dense + dense.conj().T) < 1e-12


def test_generator_commutes_with_population_conjugation():
    system = system_for(chi=0.3, sigma_z=-1.0, nbar_left=0.2, nbar_right=0.1)
    cfg = FockConfig(n_max=3, tail_bound=1e-1)
    gen = build_liouvillian(system, cfg.n_max)
    sz = fock_operators(system, cfg.n_max).sigma_z
    conjugation = sp.kron(sz, sz, format="csr")
    assert abs(gen @ conjugation - conjugation @ gen).max() < 1e-12


def test_population_expectation_conserved_under_evolution():
    system = system_for(chi=0.2, sigma_z=0.0, nbar_left=0.2, nbar_right=0.1)
    cfg = FockConfig(n_max=3, tail_bound=1e-1)
    gen = build_liouvillian(system, cfg.n_max)
    ops = fock_operators(system, cfg.n_max)
    dim = ops.dim
    rng = np.random.default_rng(41)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = raw @ raw.conj().T
    rho0 /= np.trace(rho0).real
    sz = ops.sigma_z.toarray()
    start = float(np.trace(sz @ rho0).real)
    evolved = expm_multiply(gen.tocsc() * 0.7, rho0.reshape(-1)).reshape(dim, dim)
    assert float(np.trace(sz @ evolved).real) == pytest.approx(start, abs=1e-10)
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-10)


# --- steady states ----------------------------------------------------------------


def test_equal_reservoirs_give_product_of_gibbs_states():
    system = system_for(atom=False, nbar_left=0.3, nbar_right=0.3, coupling=0.05)
    cfg = FockConfig(n_max=10, tail_bound=1e-4)
    rho = steady_rho(system, cfg)
    gibbs = thermal_state(cfg.levels, 0.3)
    assert np.max(np.abs(full_matrix(rho) - np.kron(gibbs, gibbs))) < 1e-11
    assert rho.residual < 1e-10


def test_uncoupled_cavities_give_product_of_distinct_gibbs_states():
    system = system_for(atom=False, coupling=0.0, nbar_left=0.4, nbar_right=0.1)
    cfg = FockConfig(n_max=12, tail_bound=1e-5)
    rho = steady_rho(system, cfg)
    expected = np.kron(thermal_state(cfg.levels, 0.4), thermal_state(cfg.levels, 0.1))
    assert np.max(np.abs(full_matrix(rho) - expected)) < 1e-11


def test_reference_point_matches_moment_solver():
    gamma = math.sqrt(4 * 0.02**2 + 0.05**2)
    system = system_for(gamma_left=gamma, gamma_right=gamma)
    rho = steady_rho(system, FockConfig(n_max=14, tail_bound=1e-6))
    v = steady_state_matrix(system)
    number = np.diag(np.arange(15))
    occ_left = np.trace(rho.reduced(0) @ number).real
    occ_right = np.trace(rho.reduced(-1) @ number).real
    assert occ_left == pytest.approx(v.occupations[0], abs=5e-7)
    assert occ_right == pytest.approx(v.occupations[1], abs=5e-7)


def test_truncation_error_shrinks_monotonically():
    gamma = math.sqrt(4 * 0.02**2 + 0.05**2)
    system = system_for(gamma_left=gamma, gamma_right=gamma)
    exact = steady_state_matrix(system).occupations[0]
    errors = []
    for n_max in (6, 9, 12):
        rho = steady_rho(system, FockConfig(n_max=n_max, tail_bound=1e-2))
        number = np.diag(np.arange(n_max + 1))
        errors.append(abs(np.trace(rho.reduced(0) @ number).real - exact))
    assert errors[2] < errors[1] < errors[0]


def test_mixed_atom_state_is_the_sector_mixture():
    system = system_for(omega_right=0.9, chi=0.3, sigma_z=0.5, nbar_left=0.3, nbar_right=0.1)
    cfg = FockConfig(n_max=13, tail_bound=1e-6)
    rho = steady_rho(system, cfg)
    assert rho.sigma_z_expectation() == pytest.approx(0.5, abs=1e-10)
    v = steady_state_matrix(system)
    number = np.diag(np.arange(cfg.levels))
    assert np.trace(rho.reduced(0) @ number).real == pytest.approx(v.occupations[0], abs=1e-6)


def test_steady_state_is_physical():
    system = system_for(omega_right=0.8, chi=1.1, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03)
    rho = steady_rho(system, WORK)
    mat = full_matrix(rho)
    assert np.linalg.norm(mat - mat.conj().T) < 1e-10
    assert rho.trace == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(mat)[0] > -1e-8
    left = rho.reduced(0)
    assert np.trace(left).real == pytest.approx(1.0, abs=1e-10)


def test_truncation_escalation_converges():
    system = system_for(nbar_left=0.2, nbar_right=0.0)
    state, cfg = converged_steady_rho(system, FockConfig(n_max=6, tail_bound=1e-3), occupation_tol=1e-8)
    assert cfg.n_max >= 8
    v = steady_state_matrix(system)
    number = np.diag(np.arange(cfg.levels))
    assert np.trace(state.reduced(0) @ number).real == pytest.approx(v.occupations[0], abs=1e-7)


def test_truncation_escalation_stops_at_the_dimension_guard():
    # n_max = 2 fits the guard (3**4 = 81 entries); the first escalation, to
    # n_max = 4 (625), does not, and escalation never converges on one solve
    system = system_for(nbar_left=0.01, nbar_right=0.0)
    cfg = FockConfig(n_max=2, tail_bound=1e-2, max_vectorized_dim=81)
    with pytest.raises(SolverError, match="n_max=4 before occupations converged.*625 exceeds the guard 81"):
        converged_steady_rho(system, cfg)


@pytest.mark.parametrize(
    "occupation_tol, step, message",
    [(0.0, 2, "occupation_tol must be positive and finite, got 0.0"),
     (math.nan, 2, "occupation_tol must be positive and finite, got nan"),
     (math.inf, 2, "occupation_tol must be positive and finite, got inf"),
     (1e-8, 0, "step must be at least 1, got 0"),
     (1e-8, math.inf, "step must be an integer, got inf"),
     (1e-8, 2.5, "step must be an integer, got 2.5")],
    ids=["zero-tol", "nan-tol", "inf-tol", "zero-step", "inf-step", "fractional-step"],
)
def test_truncation_escalation_rejects_its_arguments_before_solving(monkeypatch, occupation_tol, step, message):
    # a zero step re-solves one truncation and calls it converged; a zero or
    # NaN tolerance escalates until the guard, an infinite one stops at once
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(fockspace, "steady_rho", no_solve)
    with pytest.raises(ValueError, match=re.escape(message)):
        converged_steady_rho(system_for(nbar_left=0.01), FockConfig(n_max=2, tail_bound=1e-2),
                             occupation_tol=occupation_tol, step=step)


# --- currents -----------------------------------------------------------------------


def test_equilibrium_currents_vanish():
    system = system_for(atom=False, nbar_left=0.3, nbar_right=0.3, coupling=0.05)
    rho = steady_rho(system, FockConfig(n_max=10, tail_bound=1e-4))
    report = oracle_currents(system, rho)
    assert abs(report.i_left) < 1e-10
    assert abs(report.i_right) < 1e-10


def test_blocking_point_current_is_tiny():
    system = system_for(
        omega_right=0.8, coupling=0.05, chi=1.1, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03
    )
    report = oracle_currents(system, steady_rho(system, WORK))
    assert abs(report.i_left) < 1e-6


def test_reversed_regime_current_is_negative():
    system = system_for(
        omega_right=0.8, coupling=0.05, chi=1.3, sigma_z=-1.0, gamma_left=0.1, gamma_right=0.03
    )
    report = oracle_currents(system, steady_rho(system, WORK))
    assert report.i_left < 0
    assert report.regime == "reversed"


def test_boundary_currents_balance():
    system = system_for()
    report = oracle_currents(system, steady_rho(system, WORK))
    assert abs(report.i_left + report.i_right) < 1e-10


# --- diagnostics ---------------------------------------------------------------------


def test_fidelity_of_the_state_with_itself():
    rho = thermal_state(12, 0.4)
    assert thermal_fidelity(rho, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_vacuum_against_gibbs():
    vacuum = np.zeros((17, 17))
    vacuum[0, 0] = 1.0
    assert thermal_fidelity(vacuum, 0.5) == pytest.approx(1.0 / math.sqrt(1.5), abs=1e-6)


def test_equilibrium_cavities_are_thermal():
    system = system_for(atom=False, coupling=0.05, gamma_left=0.15, gamma_right=0.15,
                        nbar_left=0.5, nbar_right=0.5)
    rho = steady_rho(system, FockConfig(n_max=16))
    for reduced in (rho.reduced(0), rho.reduced(-1)):
        assert thermal_fidelity(reduced, 0.5) > 1 - 1e-6
        assert g2_zero(reduced) == pytest.approx(2.0, abs=1e-3)


def test_g2_limits():
    assert g2_zero(thermal_state(40, 0.5)) == pytest.approx(2.0, abs=1e-6)
    single = np.zeros((5, 5))
    single[1, 1] = 1.0
    assert g2_zero(single) == 0.0
    vacuum = np.zeros((5, 5))
    vacuum[0, 0] = 1.0
    with pytest.raises(ValueError, match="zero mean occupation"):
        g2_zero(vacuum)


# --- non-finite input ----------------------------------------------------------------


def nan_entry(mat):
    mat = np.array(mat, dtype=complex)
    mat[1, 1] = math.nan
    return mat


@pytest.mark.parametrize(
    "call, message",
    [(lambda: gibbs_tail_mass(6, math.nan), "nbar (mean occupation) must be non-negative and finite, got nan"),
     (lambda: gibbs_tail_mass(6, math.inf), "nbar (mean occupation) must be non-negative and finite, got inf"),
     (lambda: gibbs_tail_mass(6, -0.5), "nbar (mean occupation) must be non-negative and finite, got -0.5"),
     (lambda: gibbs_tail_mass(math.nan, 0.5), "n_max must be finite, got nan"),
     (lambda: thermal_state(4, math.nan), "nbar (mean occupation) must be non-negative and finite, got nan"),
     (lambda: thermal_fidelity(nan_entry(thermal_state(4, 0.5)), 0.5), "rho_mode (single-mode state) has a non-finite"),
     (lambda: thermal_fidelity(thermal_state(4, 0.5), math.nan), "nbar (mean occupation) must be non-negative"),
     (lambda: g2_zero(nan_entry(thermal_state(4, 0.5))), "rho_mode (single-mode state) has a non-finite")],
    ids=["tail-nan", "tail-inf", "tail-negative", "tail-nan-n_max", "thermal-nan", "fidelity-nan-state",
         "fidelity-nan-nbar", "g2-nan-state"],
)
def test_scalar_helpers_reject_a_non_finite_argument_by_name(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_a_density_matrix_with_a_non_finite_entry_cannot_reach_a_current():
    system = system_for(nbar_left=0.01)
    rho = steady_rho(system, SMALL)
    ((weight, sign, state),) = rho.sectors
    with pytest.raises(ValueError, match="atomic sector 1.0 has a non-finite weight or entry"):
        replace(rho, sectors=((weight, sign, nan_entry(state)),))
    with pytest.raises(ValueError, match="non-finite weight or entry"):
        replace(rho, sectors=((math.inf, sign, state),))
    with pytest.raises(ValueError, match="read-only"):
        rho.sectors[0][2][1, 1] = math.nan
    # the state itself still gives finite currents
    assert math.isfinite(oracle_currents(system, rho).i_left)


# --- per-sector state against the full atom (x) field space ---------------------


@pytest.mark.parametrize("sigma_z", [-1.0, 0.3, 1.0, None], ids=["ground", "mixed", "excited", "no-atom"])
def test_sector_currents_match_the_full_space_trace(sigma_z):
    # the atom's bare frequency puts sector-constant terms into the full
    # Hamiltonian; they must drop out of every current
    system = replace(
        system_for(omega_right=0.9, coupling=0.05, nbar_left=0.3, nbar_right=0.1),
        atom=None if sigma_z is None else AtomSpec(dispersive_strength=0.3, sigma_z=sigma_z),
    )
    rho = steady_rho(system, SMALL)
    report = oracle_currents(system, rho)
    reference = full_space_currents(system, rho, transition_frequency=2.0)
    got = (report.i_left, report.i_right, report.i_occupation, report.i_coherence)
    assert got == pytest.approx(reference, rel=1e-12, abs=1e-12 * abs(reference[0]))


@pytest.mark.parametrize("sigma_z", [-1.0, 0.3, 1.0])
def test_density_matrix_is_the_kron_assembly_of_its_sectors(sigma_z):
    system = system_for(omega_right=0.9, chi=0.3, sigma_z=sigma_z, nbar_left=0.3, nbar_right=0.1)
    rho = steady_rho(system, SMALL)
    mat = full_matrix(rho)
    sz = fock_operators(system, SMALL.n_max).sigma_z
    assert np.trace(sz @ mat).real == pytest.approx(sigma_z, abs=1e-12)
    assert rho.sigma_z_expectation() == pytest.approx(sigma_z, abs=1e-12)
    # the assembled state is steady under the full atom (x) field generator
    gen = build_liouvillian(system, SMALL.n_max)
    assert np.linalg.norm(gen @ mat.reshape(-1)) < 1e-10


@pytest.mark.parametrize("other", [0.3, -1.0, None], ids=["other-weights", "one-sector", "no-atom"])
def test_currents_reject_a_state_of_another_atomic_mixture(other):
    system = system_for(omega_right=1.1, chi=0.3, sigma_z=0.5, nbar_left=0.1, nbar_right=0.0)
    solved_for = replace(system, atom=None if other is None else replace(system.atom, sigma_z=other))
    rho = steady_rho(solved_for, SMALL)
    with pytest.raises(ValueError, match="disagree"):
        oracle_currents(system, rho)
    with pytest.raises(ValueError, match="disagree"):
        oracle_currents(solved_for, steady_rho(system, SMALL))


# --- three-site chains against the moment path -----------------------------------


def three_site_chain(host, sigma_z):
    return ArraySystem(n_sites=3, omega=1.0, coupling=0.05, left=ReservoirSpec(0.1, 0.05),
                       right=ReservoirSpec(0.12, 0.0), atom=AtomSpec(0.2, sigma_z, host_index=host))


# five sector solves in all: 343 kets, the largest excitation block 37 of them;
# the Gibbs tail beyond n_max = 6 at nbar = 0.05 is 5.5e-10
@pytest.fixture(scope="module", params=[(1, 1.0), (2, 1.0), (3, 1.0), (2, 0.3)],
                ids=["host-1", "host-2", "host-3", "host-2-mixed"])
def solved_chain(request):
    system = three_site_chain(*request.param)
    return system, steady_rho(system, FockConfig(n_max=6))


def test_a_three_site_chain_agrees_with_the_moment_path(solved_chain):
    # no Gaussian state assumed: the oracle meets the Lyapunov solve within the crosscheck's 1e-6
    system, rho = solved_chain
    g = steady_state_matrix(system)
    occupations = [np.trace(rho.reduced(site) @ np.diag(np.arange(7))).real for site in range(3)]
    assert occupations == pytest.approx(g.occupations, rel=1e-6)
    report, moments = oracle_currents(system, rho), boundary_currents(system, g)
    assert report.i_left == pytest.approx(moments.i_left, rel=1e-6)
    # the site-1 terms, the host shift x_1 (sz nbar_1 - <n_1 sz>) included, in the moment path's form
    assert (report.i_occupation, report.i_coherence) == pytest.approx((moments.i_occupation, moments.i_coherence),
                                                                      abs=1e-6)
    assert (report.alpha, report.regime) == (None, None)
    assert rho.residual <= RESIDUAL_TOL


def test_each_site_of_a_chain_has_a_hermitian_reduced_state_of_trace_one(solved_chain):
    _, rho = solved_chain
    for site in range(rho.n_modes):
        reduced = rho.reduced(site)
        assert np.array_equal(reduced, reduced.conj().T)
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-13)


def test_currents_reject_a_state_of_another_mode_count():
    # one atomic sector on both sides: only the mode count tells the states apart
    pair, chain = system_for(nbar_left=0.01), three_site_chain(3, 1.0)
    cfg = FockConfig(n_max=2, tail_bound=1.0)
    for system, solved_for in ((pair, chain), (chain, pair)):
        with pytest.raises(ValueError, match="disagree about the mode count"):
            oracle_currents(system, steady_rho(solved_for, cfg))


def test_the_dimension_guard_counts_the_modes_of_a_chain(monkeypatch):
    # 8**6 = 262,144 entries of the whole field state at n_max = 7 exceed the default guard
    def no_solve(*args):
        raise AssertionError("solved before the guard")

    monkeypatch.setattr(fockspace, "_block_steady_state", no_solve)
    with pytest.raises(ValidationError, match=re.escape("of 3 modes, levels**6 = 262144 exceeds the guard 200000")):
        steady_rho(three_site_chain(3, 1.0), FockConfig(n_max=7))


# --- excitation-block solve against the reference sector generator ------------


BLOCK_CASES = {
    "ground": dict(sigma_z=-1.0, chi=0.3),
    "mixed": dict(sigma_z=0.3, chi=0.3, nbar_right=0.1),
    "excited": dict(sigma_z=1.0, chi=0.3),
    "no-atom": dict(atom=False, nbar_right=0.2),
    "detuned": dict(omega_right=0.7, chi=1.1, sigma_z=-1.0, gamma_right=0.03),
    "uncoupled": dict(coupling=0.0, nbar_right=0.1),
    "vacuum": dict(nbar_left=0.0, nbar_right=0.0),
}


@pytest.mark.parametrize("size", [47, 48, 49, 97, 289])
def test_block_recursive_inverse_matches_the_lapack_inverse(size):
    # 48 is the leaf: 47 and 48 are one LAPACK call, 49 and up split. The
    # splits do not pivot, so the shift keeps every leading block well
    # conditioned; then the recursion must agree to rounding.
    rng = np.random.default_rng(size)
    mat = rng.normal(size=(size, size)) + 2.0 * math.sqrt(size) * np.eye(size)
    expected = np.linalg.inv(mat)
    assert np.linalg.norm(_inverse(mat) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_refinement_restores_the_digits_the_unpivoted_splits_lose(monkeypatch):
    # a hop of J ~ 1e5 Gamma: the Schur complements of the split inverses at
    # n_max 8 (blocks of 49 to 81 entries) cancel most of their terms
    system = system_for(omega_right=1.545, coupling=8.72, gamma_left=1.19e-4, gamma_right=2.5e-4,
                        nbar_left=3.62, nbar_right=0.856, atom=False)
    cfg = FockConfig(n_max=8, tail_bound=1.0)
    assert steady_rho(system, cfg).residual <= RESIDUAL_TOL
    # without the correction the backward error of the same solve is above the bound
    monkeypatch.setattr(fockspace, "_block_residual", lambda hamiltonians, structure, ys: [0.0 * y for y in ys])
    with pytest.raises(SolverError, match="^sector steady-state residual .* exceeds 1e-14$"):
        steady_rho(system, cfg)


def test_excitation_blocks_partition_the_kets():
    for levels, modes, sizes in ((5, 2, [1, 2, 3, 4, 5, 4, 3, 2, 1]), (3, 3, [1, 3, 6, 7, 6, 3, 1])):
        blocks = _excitation_blocks(levels, modes)
        assert [kets.size for kets in blocks] == sizes
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(levels**modes))
        for n, kets in enumerate(blocks):
            # ket index sum_j n_j levels**(N - 1 - j): ascending kets ascend in the left occupation first
            occupations = np.array(np.unravel_index(kets, (levels,) * modes))
            assert np.all(occupations.sum(axis=0) == n) and np.all(np.diff(kets) > 0)


@pytest.mark.parametrize("n_max", [4, 8])
@pytest.mark.parametrize("case", BLOCK_CASES, ids=list(BLOCK_CASES))
def test_block_solve_matches_the_full_generator_solve(case, n_max):
    system = system_for(**{"coupling": 0.05, **BLOCK_CASES[case]})
    rho = steady_rho(system, FockConfig(n_max=n_max, tail_bound=1e-2))
    for _, sign, state in rho.sectors:
        assert np.max(np.abs(state - sector_state(system, sign, n_max))) < 1e-12


@pytest.mark.parametrize("case", BLOCK_CASES, ids=list(BLOCK_CASES))
def test_each_sector_state_is_hermitian_and_of_trace_one_by_construction(case):
    system = system_for(**{"coupling": 0.05, **BLOCK_CASES[case]})
    for _, _, state in steady_rho(system, FockConfig(n_max=6, tail_bound=1e-2)).sectors:
        assert np.array_equal(state, state.conj().T)
        assert abs(np.trace(state) - 1.0) <= 1e-13


@pytest.mark.parametrize("sigma_z", [-1.0, 1.0, None], ids=["ground", "excited", "no-atom"])
def test_carried_residual_is_the_full_generator_residual(sigma_z):
    system = system_for(omega_right=0.9, chi=0.3, nbar_right=0.1, sigma_z=sigma_z, atom=sigma_z is not None)
    n_max = 8
    rho = steady_rho(system, FockConfig(n_max=n_max, tail_bound=1e-2))
    ((_, sign, state),) = rho.sectors
    sites = _sites(_stack(system))
    h, channels = _sector_hamiltonian(sites, n_max + 1, sign), _channels(sites, n_max + 1)
    assert rho.residual == _lindblad_backward_error(h, channels, state)
    # at the steady state ||L(rho)|| is rounding, so two evaluations of it agree
    # only to its own size (4-19% here), and the reference is within the bound too
    reference = sector_backward_error(system, sign, n_max, state)
    assert 0.0 < reference <= RESIDUAL_TOL
    assert rho.residual == pytest.approx(reference, rel=0.5)
    # away from the steady state the two evaluations, numerator and denominator,
    # agree to rounding
    rng = np.random.default_rng(7)
    raw = rng.normal(size=state.shape) + 1j * rng.normal(size=state.shape)
    other = raw + raw.conj().T
    assert _lindblad_backward_error(h, channels, other) == pytest.approx(
        sector_backward_error(system, sign, n_max, other), rel=1e-12
    )


def test_negative_eigenvalue_in_one_excitation_block_is_rejected(monkeypatch):
    solve = fockspace._block_steady_state
    states = []

    def with_negative_block(h, structure):
        rho = solve(h, structure)
        kets = np.ix_(structure.blocks[3], structure.blocks[3])
        values, vectors = np.linalg.eigh(rho[kets])
        # move weight from the smallest to the largest eigenvector: Hermitian, trace kept
        shift = values[0] + 1e-6
        top, bottom = vectors[:, -1], vectors[:, 0]
        rho[kets] += shift * (np.outer(top, top.conj()) - np.outer(bottom, bottom.conj()))
        states.append(rho)
        return rho

    monkeypatch.setattr(fockspace, "_block_steady_state", with_negative_block)
    with pytest.raises(SolverError) as err:
        steady_rho(system_for(), SMALL)
    # -1e-6 against the largest eigenvalue of the state
    spectrum = np.linalg.eigvalsh(states[0])
    assert spectrum[0] == pytest.approx(-1e-6, rel=1e-9)
    assert str(err.value) == (f"sector state is not positive semidefinite "
                              f"(relative eigenvalue {spectrum[0] / spectrum[-1]:.3e})")


def test_a_state_off_by_one_part_in_a_billion_is_refused_at_any_scale(monkeypatch):
    # in units a million times larger every rate and frequency is 1e-6: on this state the
    # norm of the Lindblad right-hand side is 6e-17, far below any absolute bound, and the
    # backward error 1.3e-13
    scale = 1e-6
    system = TwoCavitySystem(omega_left=scale, omega_right=1.1 * scale, coupling=0.03 * scale,
                             left=ReservoirSpec(0.06 * scale, 0.3), right=ReservoirSpec(0.1 * scale, 0.05),
                             atom=AtomSpec(0.1 * scale, 0.3))
    cfg = FockConfig(n_max=12, tail_bound=1e-6)
    assert steady_rho(system, cfg).residual <= RESIDUAL_TOL
    solve = fockspace._block_steady_state

    def perturbed(h, structure):
        rho = solve(h, structure)
        kets = structure.blocks[1]  # |1, 0> and |0, 1>: a Hermitian change of the coherence, trace kept
        delta = 1e-9 * np.linalg.norm(rho[np.ix_(kets, kets)])
        rho[kets[0], kets[1]] += delta
        rho[kets[1], kets[0]] += delta
        return rho

    monkeypatch.setattr(fockspace, "_block_steady_state", perturbed)
    with pytest.raises(SolverError, match="^sector steady-state residual .* exceeds 1e-14$"):
        steady_rho(system, cfg)


def test_non_finite_elimination_is_rejected(monkeypatch):
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.full(np.shape(a), np.nan))
    with pytest.raises(SolverError, match="no unique steady state"):
        steady_rho(system_for(), SMALL)


def test_singular_elimination_is_rejected(monkeypatch):
    monkeypatch.setattr(fockspace, "_block_generator", lambda k, gamma: np.zeros((k.size, k.size)))
    with pytest.raises(SolverError, match="no unique steady state"):
        steady_rho(system_for(), SMALL)


def test_the_state_checks_and_the_balance_warning_fire_with_their_messages(monkeypatch):
    # each guard reached through steady_rho or oracle_currents, with one private step altered
    system = system_for()

    def entry(rho, value):  # value at (0, 1) alone
        out = np.zeros_like(rho)
        out[0, 1] = value
        return out

    with monkeypatch.context() as patch:
        patch.setattr(fockspace, "_lindblad_rhs", lambda h, channels, rho: entry(rho, 1e-3))
        with pytest.raises(SolverError) as err:
            steady_rho(system, SMALL)
    ((_, sign, state),) = steady_rho(system, SMALL).sectors
    residual = sector_backward_error(system, sign, SMALL.n_max, state, residual=1e-3)
    assert str(err.value) == f"sector steady-state residual {residual:.3e} exceeds 1e-14"
    # the state of one pair is not steady for a pair with a faster right reservoir
    rho, faster = steady_rho(system, SMALL), replace(system, right=ReservoirSpec(0.128, 0.0))
    with pytest.warns(UserWarning) as record:
        report = oracle_currents(faster, rho)
    assert [str(w.message) for w in record] == [
        f"boundary currents do not balance (|I_L + I_R| = {abs(report.i_left + report.i_right):.3e} for system 0); "
        "the density matrix is not a steady state"
    ]
