import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cavityheat import chain, model
from cavityheat.chain import (
    MomentMatrix,
    ballistic_current,
    bond_flows,
    boundary_currents,
    occupation_profile,
    size_scan,
    steady_state_matrix,
    sweep_currents,
)
from cavityheat.closedform import current_general
from cavityheat.model import (
    ArraySystem, AtomSpec, PairGrid, ReservoirSpec, SolverError, TwoCavitySystem, sector_weights,
)

from block_reference import (
    block_backward_error, block_generators, block_matrix, block_residual, kronecker_steady_matrix,
)


def chain_system(n_sites, chi=0.0, host=None, sigma_z=-1.0, coupling=0.05,
                 gamma_left=0.15, gamma_right=0.15, nbar_left=0.5, nbar_right=0.0):
    atom = None
    if chi or host is not None:
        atom = AtomSpec(dispersive_strength=chi, sigma_z=sigma_z, host_index=host or n_sites)
    return ArraySystem(
        n_sites=n_sites,
        omega=1.0,
        coupling=coupling,
        left=ReservoirSpec(gamma_left, nbar_left),
        right=ReservoirSpec(gamma_right, nbar_right),
        atom=atom,
    )


# --- site vectors and sector equations --------------------------------------------


def test_two_site_generators_without_atom():
    sites = chain._sites(chain_system(2))
    assert np.array_equal(sites.onsite, [[1.0, 1.0]]) and np.array_equal(sites.coupling, [0.05])
    assert np.all(sites.shift == 0) and not sites.atom[0]
    assert np.array_equal(sites.rates, [[0.15, 0.15]]) and np.array_equal(sites.nbar, [[0.5, 0.0]])


def test_atom_shift_lands_on_host_site():
    for host in (1, 2, 3):
        sites = chain._sites(chain_system(3, chi=0.1, host=host, sigma_z=0.3))
        expected = np.zeros((1, 3))
        expected[0, host - 1] = 0.1
        assert np.array_equal(sites.shift, expected)
        assert sites.atom[0] and sites.sigma_z[0] == 0.3


def test_generator_matrix_properties():
    # A_s = i (h + s x) + D and Q bit for bit as the blocks of the reference's M1, M2 and M3
    chains = [chain_system(n, chi=0.12, host=host, sigma_z=0.3, gamma_right=0.1, nbar_right=0.2)
              for n, host in itertools.product((2, 4, 7), (1, 2))]
    pair = TwoCavitySystem(omega_left=1.0, omega_right=0.9, coupling=0.02, left=ReservoirSpec(0.06, 0.5),
                           right=ReservoirSpec(0.04, 0.1), atom=AtomSpec(1.2, -0.4))  # omega_R - chi < 0
    for system in chains + [pair]:
        n = 2 if system is pair else system.n_sites
        a, q = chain._sector_equations(chain._sites(system), np.zeros(2, dtype=int), np.array([1.0, -1.0]))
        gen = block_generators(system)
        for k, sign in enumerate((1.0, -1.0)):
            want = 1j * (gen.h + sign * gen.x) + gen.m2[:n, :n]
            assert np.array_equal(a[k], want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(a[k])), np.signbit(part(want)))
            assert np.array_equal(q[k], gen.m3[:n, :n]) and q.dtype == complex
        assert np.array_equal(a, a.transpose(0, 2, 1))  # complex symmetric, as the eigenbasis solve takes it


# --- steady state --------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 7])
@pytest.mark.parametrize("sigma_z", [-1.0, 0.2, 1.0])
@pytest.mark.parametrize("host", ["first", "middle", "last"])
def test_sector_solve_matches_kronecker_solve(n, sigma_z, host):
    host_index = {"first": 1, "middle": (n + 1) // 2, "last": n}[host]
    system = chain_system(n, chi=0.12, host=host_index, sigma_z=sigma_z, gamma_right=0.1, nbar_right=0.1)
    g = steady_state_matrix(system)
    assert np.max(np.abs(block_matrix(g) - kronecker_steady_matrix(system))) < 1e-10


@pytest.mark.parametrize("shapes", [((4, 4), (3, 3)), ((2, 3), (2, 3)), ((4,), (4,)), ((2, 2), (2, 3))])
def test_moment_matrix_rejects_blocks_that_are_not_square_or_of_one_shape(shapes):
    # F and S state G = [[F, S], [S, F]] only as two N x N blocks
    field, sz = (np.zeros(shape, dtype=complex) for shape in shapes)
    with pytest.raises(ValueError, match="square arrays of one shape"):
        MomentMatrix(field, sz)


@pytest.mark.parametrize("block", ["field_block", "sz_block"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_moment_matrix_rejects_a_non_finite_block_by_name(block, value):
    g = steady_state_matrix(chain_system(4, chi=0.1, host=4, sigma_z=0.3))
    edited = getattr(g, block).copy()
    edited[1, 1] = value
    with pytest.raises(ValueError, match=f"moment block {block} has a non-finite entry"):
        replace(g, **{block: edited})


def test_moment_matrix_holds_its_blocks_as_read_only_views():
    field, sz = np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)
    g = MomentMatrix(field, sz)
    assert np.shares_memory(g.field_block, field) and np.shares_memory(g.sz_block, sz)
    for block in (g.field_block, g.sz_block):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = np.nan


def test_a_nan_current_is_reported_as_unbalanced():
    # _currents is the one formula behind every boundary current; a NaN moment must not pass its balance check
    system = chain_system(4, chi=0.1, host=4, sigma_z=0.3)
    g = steady_state_matrix(system)
    field = g.field_block.copy()
    field[0, 0] = np.nan
    with pytest.warns(UserWarning, match="not a steady state"):
        report = chain._currents(system, chain._sites(system), field[None], g.sz_block[None])
    assert np.isnan(report.i_left).all()


def test_steady_matrix_carries_its_residual():
    # the largest backward error of the sector equations, which bounds that of
    # the 2N x 2N block equation up to the rounding of the mixture
    system = chain_system(6, chi=0.1, host=3, sigma_z=0.2)
    g = steady_state_matrix(system)
    _, residual, _ = chain.sector_covariances(*sector_stack(system))
    assert g.residual == residual.max() <= model.RESIDUAL_TOL
    assert block_backward_error(system, block_matrix(g)) <= g.residual + 4 * np.finfo(float).eps


def scaled_pair(scale, chi=None):
    """The resonant pair omega = 1, J = 0.02, Gamma = 0.06 with every rate scaled by ``scale``."""
    return TwoCavitySystem(omega_left=scale, omega_right=scale, coupling=0.02 * scale,
                           left=ReservoirSpec(0.06 * scale, 0.5), right=ReservoirSpec(0.06 * scale, 0.0),
                           atom=None if chi is None else AtomSpec(chi * scale, 0.3))


@pytest.mark.parametrize("scale", [1e160, 1e-160])
@pytest.mark.parametrize("chi", [None, 0.05])
def test_a_pair_of_huge_or_tiny_rates_solves_as_the_unscaled_pair(scale, chi):
    # the moments are dimensionless; squared entries of 1e160 overflow in a plain Frobenius norm
    g, want = steady_state_matrix(scaled_pair(scale, chi)), steady_state_matrix(scaled_pair(1.0, chi))
    assert np.max(np.abs(g.field_block - want.field_block)) <= 1e-12
    assert np.max(np.abs(g.sz_block - want.sz_block)) <= 1e-12
    assert 0.0 < g.residual <= model.RESIDUAL_TOL


def test_a_subnormal_drive_is_measured_and_refused():
    # a drive of 2.2e-311 carries fewer than 52 bits, so no solve of it holds a backward error of a few eps;
    # its squares underflow, and a plain Frobenius norm would read a residual of 0
    def pair(nbar_right):
        return TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.5, left=ReservoirSpec(1.0, 0.0),
                               right=ReservoirSpec(1.0, nbar_right))

    with pytest.raises(SolverError, match="^sector steady-state residual .* exceeds 1e-14$"):
        steady_state_matrix(pair(2.2e-311))
    assert 0.0 < steady_state_matrix(pair(1e-200)).residual <= model.RESIDUAL_TOL


def test_the_frobenius_norm_is_exact_at_any_magnitude():
    rng = np.random.default_rng(43)
    m = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    plain = np.linalg.norm(m, axis=(1, 2))
    for power in (-1000, -700, -400, 0, 400, 1000):  # a power of two scales the norm exactly
        assert np.array_equal(chain._norm(np.ldexp(m.real, power) + 1j * np.ldexp(m.imag, power)),
                              np.ldexp(plain, power))
    assert np.array_equal(chain._norm(np.zeros((2, 3, 3))), np.zeros(2))


def test_undamped_interior_mode_has_no_unique_steady_state():
    # without hopping the interior cavities decouple from both reservoirs
    with pytest.raises(SolverError, match="no unique steady state"):
        steady_state_matrix(chain_system(4, coupling=0.0))


def test_sector_covariances_pass_the_positivity_check():
    for sigma_z in (-1.0, 0.2, 1.0):
        g = steady_state_matrix(chain_system(6, chi=0.1, host=6, sigma_z=sigma_z, nbar_right=0.1))
        assert g.positivity_margin >= 0.0


def test_positivity_check_rejects_a_negative_covariance(monkeypatch):
    # a sign flip in either solver: Kronecker for a pair, the eigenbasis for a chain
    kronecker, eigenbasis = np.linalg.solve, chain._eigenbasis_solve
    monkeypatch.setattr(chain.np.linalg, "solve", lambda a, b: -kronecker(a, b))
    monkeypatch.setattr(chain, "_eigenbasis_solve", lambda *args: -eigenbasis(*args))
    for n in (2, 3):
        with pytest.raises(SolverError, match="positive semidefinite"):
            steady_state_matrix(chain_system(n, chi=0.1, host=n))


def test_sector_residual_check_rejects_a_perturbed_solution(monkeypatch):
    kronecker, eigenbasis = np.linalg.solve, chain._eigenbasis_solve
    monkeypatch.setattr(chain.np.linalg, "solve", lambda a, b: 1.001 * kronecker(a, b))
    monkeypatch.setattr(chain, "_eigenbasis_solve", lambda *args: 1.001 * eigenbasis(*args))
    for n in (2, 3):
        with pytest.raises(SolverError, match="sector steady-state residual"):
            steady_state_matrix(chain_system(n, chi=0.1, host=n))


@pytest.mark.parametrize("gamma", [1e-7, 1e-9, 1e-10, 1e-11])
def test_a_high_q_two_site_chain_solves_to_the_closed_form(gamma):
    # Gamma down to 1e-11 against omega = 1: the backward error stays at a few eps, and G is exactly Hermitian
    system = chain_system(2, chi=0.05, host=2, sigma_z=1.0, coupling=0.01, gamma_left=gamma, gamma_right=gamma)
    g = steady_state_matrix(system)
    assert g.residual <= model.RESIDUAL_TOL
    assert np.array_equal(block_matrix(g), block_matrix(g).conj().T)
    pair = TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.01, left=system.left, right=system.right,
                           atom=AtomSpec(0.05, 1.0))
    assert boundary_currents(system, g).i_left == pytest.approx(current_general(pair).i_left, rel=1e-12, abs=0)


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} called")
    return call


def test_a_pair_grid_is_solved_by_kronecker_without_an_eigenbasis(monkeypatch):
    pair = TwoCavitySystem(omega_left=1.0, omega_right=1.1, coupling=0.02, left=ReservoirSpec(0.06, 0.5),
                           right=ReservoirSpec(0.08, 0.1), atom=AtomSpec(0.1, 0.3))
    for name in ("eig", "eigvals", "eigvalsh"):  # pairs take their spectra in closed form
        monkeypatch.setattr(chain.np.linalg, name, refuse(name))
    report, residual = sweep_currents(PairGrid.sweep(pair, chi=[0.0, 0.1, 0.2]))
    assert np.all(residual <= model.RESIDUAL_TOL) and np.all(np.isfinite(report.i_left))


def test_the_sector_mixture_is_the_sum_of_each_systems_sectors_bit_for_bit():
    # pinned atoms have one sector, a mixed atom two, and an atom-free point one with s = 0;
    # the detuned atom-free point has coherences with a negative real part
    base = TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.02, left=ReservoirSpec(0.06, 0.5),
                           right=ReservoirSpec(0.06, 0.0), atom=AtomSpec(0.05, 1.0))
    systems = [replace(base, atom=atom, omega_right=omega_right) for atom, omega_right in
               ((AtomSpec(0.05, 1.0), 1.0), (None, 1.1), (AtomSpec(0.05, 0.3), 1.0), (AtomSpec(0.05, -1.0), 1.0),
                (None, 1.0), (AtomSpec(0.1, -0.6), 1.0))]
    sites = chain._sites(PairGrid.from_systems(systems))
    field, sz_block, largest, smallest = chain._mixture(sites)
    weight, sign = sector_weights(sites.sigma_z, sites.atom)
    owner, sector = np.nonzero(weight > 0.0)
    c, residual, margin = chain.sector_covariances(*chain._sector_equations(sites, owner, sign[owner, sector]))
    for m in range(len(systems)):
        f = s = 0.0
        for k in np.flatnonzero(owner == m):
            p, z = weight[m, sector[k]], sign[m, sector[k]]
            f, s = f + p * c[k], s + z * p * c[k]
        for got, want in ((field[m], f), (sz_block[m], s)):
            assert np.array_equal(got, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
        assert largest[m] == residual[owner == m].max() and smallest[m] == margin[owner == m].min()
    # the atom-free point's products s p C, s = 0, hold -0.0 entries; its S is +0.0, as a sum from zero gives
    assert np.signbit(sign[1, 0] * c[owner == 1].real).any() and not np.signbit(sz_block[1].real).any()


def test_a_three_site_chain_is_solved_in_the_eigenbasis_without_kronecker(monkeypatch):
    monkeypatch.setattr(chain.np.linalg, "solve", refuse("solve"))
    assert steady_state_matrix(chain_system(3, chi=0.1, host=3, sigma_z=0.3)).residual <= model.RESIDUAL_TOL


def test_a_sector_stack_that_is_not_complex_symmetric_is_refined_or_refused():
    # the eigenbasis solve takes W^-1 = W^T, exact only for A^T = A; refinement
    # absorbs a small asymmetry, and the residual guard refuses a larger one
    a, q = sector_stack(chain_system(5, chi=0.1, host=5, sigma_z=0.3))
    nearly = a.copy()
    nearly[:, 0, 1] += 1e-6
    _, residual, _ = chain.sector_covariances(nearly, q)
    assert np.all(residual <= 1e-13)
    skewed = a.copy()
    skewed[:, 0, 1] += 1e-3
    with pytest.raises(SolverError, match="sector steady-state residual") as err:
        chain.sector_covariances(skewed, q)
    assert err.value.index == 0


def test_the_size_scan_wrap_fires_with_its_message():
    with pytest.raises(SolverError) as err:
        size_scan(chain_system(4, coupling=0.0), [3])  # the interior site decouples
    assert str(err.value) == ("chain solve failed at n_sites=3: no unique steady state: a chain mode is undamped "
                              "(largest decay exponent 0.000e+00)")


def test_long_atom_free_chain_is_ballistic():
    # the (2N)^2 Kronecker operator of this size would take about 3 GB
    system = chain_system(60)
    g = steady_state_matrix(system)
    assert g.residual < 1e-10
    assert boundary_currents(system, g).i_left == pytest.approx(ballistic_current(system), rel=1e-9)


def sector_stack(system):
    """The sector matrices A_s of a chain in the sectors s = +1 and -1, with their drives."""
    return chain._sector_equations(chain._sites(system), np.array([0, 0]), np.array([1.0, -1.0]))


# atom-free chains tuned close to an exceptional point of A_s, where its
# eigenbasis V is ill-conditioned: (N, Gamma_L, Gamma_R)
NEAR_EXCEPTIONAL = [
    (9, 0.155302604067, 0.155302604067),
    (9, 0.448780753275, 0.3 * 0.448780753275),
    (16, 0.121664982741, 0.5 * 0.121664982741),
]


@pytest.mark.parametrize("n, gamma_left, gamma_right", NEAR_EXCEPTIONAL, ids=["9-symmetric", "9-asymmetric", "16"])
def test_near_exceptional_chain_is_refined_to_the_lyapunov_solution(n, gamma_left, gamma_right):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    system = chain_system(n, gamma_left=gamma_left, gamma_right=gamma_right, nbar_right=0.01)
    a, q = sector_stack(system)
    assert np.linalg.cond(np.linalg.eig(a[0])[1]) >= 1e6
    _, residual, _ = chain.sector_covariances(a, q)
    assert np.all(residual <= 1e-13)
    reference = scipy_linalg.solve_continuous_lyapunov(a[0], -q[0])
    current = boundary_currents(system, steady_state_matrix(system)).i_left
    expected = boundary_currents(system, MomentMatrix(reference, 0 * reference, sigma_z=system.sigma_z)).i_left
    assert current == pytest.approx(expected, rel=1e-12, abs=0)


def test_interior_atom_mode_is_solved_until_it_is_undamped():
    # chi > 2 J binds a mode at a mid-chain host; it reaches the ends only as
    # e^(-kappa d), so its decay exponent falls to rounding as N grows
    def interior(n):
        return chain_system(n, chi=0.05, host=n // 2, sigma_z=0.3, coupling=0.02, nbar_right=0.01)

    system = interior(20)
    assert steady_state_matrix(system).positivity_margin >= 0.0
    c, _, _ = chain.sector_covariances(*sector_stack(system))
    assert np.array_equal(c, c.conj().transpose(0, 2, 1))  # each eigenbasis solve keeps its Hermitian part
    with pytest.raises(SolverError, match="a chain mode is undamped"):
        steady_state_matrix(interior(30))


def test_a_sector_matrix_without_an_eigenbasis_has_no_unique_steady_state(monkeypatch):
    n = 9
    eig = np.linalg.eig
    # the second sector of one chain, and a sector in the second slice of a stack of copies
    for copies, failing in ((1, 1), (chain.SOLVE_SLICE, chain.SOLVE_SLICE + 1)):
        a, q = (np.tile(m, (copies, 1, 1)) for m in sector_stack(chain_system(n, chi=0.1, host=n, sigma_z=0.3)))

        def singular(matrices):
            exponents, basis = eig(matrices)
            basis[failing][:, 1] = 0.0  # this sector loses an eigenvector
            return exponents, basis

        monkeypatch.setattr(chain.np.linalg, "eig", singular)
        with pytest.raises(SolverError, match="no unique steady state") as err:
            chain.sector_covariances(a, q)
        assert err.value.index == failing


def test_a_stack_solved_a_slice_at_a_time_is_each_equation_alone_bit_for_bit():
    # the sectors of pairs over three slices, and of 3-site chains over two
    pair = TwoCavitySystem(omega_left=1.0, omega_right=1.1, coupling=0.02, left=ReservoirSpec(0.06, 0.5),
                           right=ReservoirSpec(0.08, 0.1), atom=AtomSpec(0.1, 0.3))
    rates = 0.01 + 1e-4 * np.arange(chain.SOLVE_SLICE + 2)
    pairs = chain._sites(PairGrid.sweep(pair, left_rate=rates, right_rate=rates[::-1]))
    chains = chain._sites(chain_system(3, chi=0.1, host=3, sigma_z=0.3))
    for sites, owner in ((pairs, np.repeat(np.arange(len(rates)), 2)), (chains, np.zeros(chain.SOLVE_SLICE + 2, int))):
        a, q = chain._sector_equations(sites, owner, np.resize([1.0, -1.0], len(owner)))
        whole = chain.sector_covariances(a, q)
        for k in range(len(owner)):
            for got, want in zip(whole, chain.sector_covariances(a[k:k + 1], q[k:k + 1])):
                assert np.array_equal(got[k:k + 1], want)


def test_a_sweep_holds_less_than_a_kilobyte_a_point_while_it_solves():
    # tracemalloc counts numpy's buffers; the whole stack's Kronecker operator took 1.6 KB a point
    pair = TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.02, left=ReservoirSpec(1.0, 0.5),
                           right=ReservoirSpec(1.0, 0.0), atom=AtomSpec(0.05, 0.3))
    rates = 0.001 + 1e-7 * np.arange(100_000)
    grid = PairGrid.sweep(pair, left_rate=rates, right_rate=rates)
    tracemalloc.start()
    try:
        sweep_currents(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * len(rates)


def test_steady_matrix_residual_and_hermiticity():
    for n in (2, 5, 9):
        system = chain_system(n, chi=0.1, host=n)
        g = steady_state_matrix(system)
        assert block_residual(system, block_matrix(g)) < 1e-10
        assert np.linalg.norm(block_matrix(g) - block_matrix(g).conj().T) < 1e-10
        assert np.all(g.occupations >= 0)


def test_two_site_chain_reproduces_two_cavity_moments():
    system = chain_system(2, chi=0.1, host=2)
    g = steady_state_matrix(system)
    pair = TwoCavitySystem(
        omega_left=1.0,
        omega_right=1.0,
        coupling=system.coupling,
        left=system.left,
        right=system.right,
        atom=system.atom,
    )
    v = steady_state_matrix(pair)
    field = g.field_block
    assert field[0, 0].real == pytest.approx(v.occupations[0], rel=1e-10)
    assert field[1, 1].real == pytest.approx(v.occupations[1], rel=1e-10)
    assert field[0, 1] == pytest.approx(v.field_block[0, 1], rel=1e-10)
    # population-weighted moments too
    assert g.sz_block[0, 0] == pytest.approx(v.sz_block[0, 0], rel=1e-10, abs=1e-16)


@pytest.mark.parametrize("sigma_z", [-1.0, 0.3, 1.0, None], ids=["ground", "mixed", "excited", "no-atom"])
def test_resonant_pair_is_the_two_site_chain(sigma_z):
    chi = 0.0 if sigma_z is None else 0.12
    system = chain_system(2, chi=chi, host=None if sigma_z is None else 2, sigma_z=sigma_z,
                          gamma_right=0.1, nbar_right=0.1)
    pair = TwoCavitySystem(
        omega_left=1.0, omega_right=1.0, coupling=system.coupling,
        left=system.left, right=system.right, atom=system.atom,
    )
    g, v = steady_state_matrix(system), steady_state_matrix(pair)
    assert (g.n_sites, g.sigma_z) == (v.n_sites, v.sigma_z)
    assert np.max(np.abs(block_matrix(g) - block_matrix(v))) < 1e-13
    assert g.positivity_margin == pytest.approx(v.positivity_margin, abs=1e-13)
    as_chain, as_pair = boundary_currents(system, g), boundary_currents(pair, v)
    for field in ("i_left", "i_right", "i_occupation", "i_coherence"):
        assert getattr(as_chain, field) == pytest.approx(getattr(as_pair, field), rel=1e-12, abs=1e-16)
    # the switch classification belongs to the pair only
    assert as_chain.regime is None and as_pair.regime is not None


def test_equilibrium_chain_is_identity_times_occupation():
    system = chain_system(5, nbar_left=0.3, nbar_right=0.3)
    g = steady_state_matrix(system)
    assert np.allclose(g.field_block, 0.3 * np.eye(5), atol=1e-12)


def test_neighbour_coherences_purely_imaginary_without_atom():
    for n in range(2, 9):
        system = chain_system(n)
        field = steady_state_matrix(system).field_block
        for j in range(n - 1):
            assert abs(field[j, j + 1].real) < 1e-10


# --- currents -------------------------------------------------------------------


def test_ballistic_current_independent_of_size():
    expected = 4 * 1.0 * 0.05**2 * 0.15**2 * 0.5 / ((4 * 0.05**2 + 0.15**2) * 0.3)
    for n in range(2, 11):
        system = chain_system(n)
        g = steady_state_matrix(system)
        assert boundary_currents(system, g).i_left == pytest.approx(expected, abs=1e-12)
    assert ballistic_current(chain_system(4)) == pytest.approx(expected, rel=1e-15)


def test_zero_bias_no_current():
    system = chain_system(4, nbar_left=0.2, nbar_right=0.2)
    g = steady_state_matrix(system)
    assert boundary_currents(system, g).i_left == pytest.approx(0.0, abs=1e-14)


def test_two_site_current_matches_general_expression():
    system = chain_system(2, chi=0.1, host=2)
    g = steady_state_matrix(system)
    pair = TwoCavitySystem(
        omega_left=1.0, omega_right=1.0, coupling=0.05,
        left=system.left, right=system.right, atom=system.atom,
    )
    assert boundary_currents(system, g).i_left == pytest.approx(current_general(pair).i_left, rel=1e-10)


def test_boundary_currents_balance():
    # a host at either end shifts that end's frequency by s chi in sector s
    for host, sigma_z in itertools.product((1, 3, 6), (-1.0, 0.3, 1.0)):
        system = chain_system(6, chi=0.12, host=host, sigma_z=sigma_z, gamma_right=0.1, nbar_right=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = boundary_currents(system, steady_state_matrix(system))
        assert abs(report.i_left + report.i_right) < 1e-10 * abs(report.i_left)
        # the p_s-weighted currents of the two pinned sectors
        sectors = [(0.5 * (1 + s * sigma_z), replace(system, atom=replace(system.atom, sigma_z=s))) for s in (1.0, -1.0)]
        sectors = [(weight, boundary_currents(pinned, steady_state_matrix(pinned))) for weight, pinned in sectors]
        for field in ("i_left", "i_right", "i_occupation", "i_coherence"):
            mixed = sum(weight * getattr(sector, field) for weight, sector in sectors)
            assert getattr(report, field) == pytest.approx(mixed, rel=1e-11, abs=1e-16)


def test_non_steady_chain_state_warns():
    system = chain_system(5, chi=0.1, host=5, sigma_z=0.3)
    g = steady_state_matrix(system)
    field = g.field_block.copy()
    field[0, 0] += 0.1
    g = replace(g, field_block=field)
    with pytest.warns(UserWarning, match="not a steady state"):
        boundary_currents(system, g)


def test_a_tiny_imbalance_is_measured_against_the_terms_of_its_currents():
    # I_L = I_R = 1e-12 at omega_L = 1 is a 100% imbalance: a balance floor of omega_L^2 let it pass
    pair = TwoCavitySystem(1.0, 1.0, 0.01, ReservoirSpec(0.1, 0.0), ReservoirSpec(0.1, 0.0))
    coherence = np.array([[0.0, -1e-9], [-1e-9, 0.0]], dtype=complex)
    with pytest.warns(UserWarning, match="not a steady state"):
        report = boundary_currents(pair, MomentMatrix(coherence, np.zeros((2, 2), dtype=complex)))
    assert report.i_left == pytest.approx(1e-12, rel=1e-12) and report.i_right == pytest.approx(1e-12, rel=1e-12)


def test_bond_flow_uniform_along_atom_free_chain():
    system = chain_system(7)
    g = steady_state_matrix(system)
    flows = bond_flows(system, g)
    assert np.ptp(flows) < 1e-12
    # energy flux through the bonds equals the injected boundary current
    assert flows[0] * system.omega == pytest.approx(boundary_currents(system, g).i_left, rel=1e-10)


# --- profiles -------------------------------------------------------------------


def test_flat_interior_profile_without_atom():
    system = chain_system(8)
    occ = occupation_profile(system, steady_state_matrix(system))
    interior = occ[1:-1]
    assert np.ptp(interior) < 1e-10


def test_gradient_with_atom_at_the_far_end():
    system = chain_system(6, chi=0.1, host=6)
    occ = occupation_profile(system, steady_state_matrix(system))
    interior = occ[1:-1]
    assert np.all(np.diff(interior) < 0)


def test_interior_gradient_collapses_for_longer_chain():
    occ6 = occupation_profile(
        chain_system(6, chi=0.1, host=6), steady_state_matrix(chain_system(6, chi=0.1, host=6))
    )
    occ12 = occupation_profile(
        chain_system(12, chi=0.1, host=12), steady_state_matrix(chain_system(12, chi=0.1, host=12))
    )
    grad6 = np.diff(occ6[1:-1])
    grad12 = np.diff(occ12[1:-1])
    # mean interior slope shrinks with size, the mid-chain slope collapses
    assert np.mean(np.abs(grad12)) < np.mean(np.abs(grad6))
    centre6 = abs(grad6[len(grad6) // 2])
    centre12 = abs(grad12[len(grad12) // 2])
    assert centre12 < centre6 / 10


# --- size scan ------------------------------------------------------------------


def test_size_scan_trivial_without_atom():
    points = size_scan(chain_system(2), range(2, 7))
    for point in points:
        assert point.ratio == pytest.approx(1.0, abs=1e-10)
        assert point.residual < 1e-10


def test_size_scan_decreasing_and_saturating():
    template = chain_system(2, chi=0.15, host=2)
    points = size_scan(template, range(2, 11))
    ratios = [p.ratio for p in points]
    assert all(b < a for a, b in zip(ratios[:4], ratios[1:5]))
    increments = np.abs(np.diff([p.current for p in points]))
    assert np.all(np.diff(increments) < 0)


def test_size_scan_orders_by_dispersive_strength():
    weak = size_scan(chain_system(2, chi=0.1, host=2), range(2, 9))
    strong = size_scan(chain_system(2, chi=0.15, host=2), range(2, 9))
    for a, b in zip(weak, strong):
        assert b.ratio < a.ratio


def test_size_scan_host_rules():
    # the scan pins the atom to the last site, and an interior atom scatters
    # differently from an end-of-chain one
    template = chain_system(2, chi=0.1, host=2, sigma_z=-1.0)
    (point,) = size_scan(template, [4])
    interior, end = (chain_system(4, chi=0.1, host=host, sigma_z=-1.0) for host in (2, 4))
    interior_current = boundary_currents(interior, steady_state_matrix(interior)).i_left
    assert point.current == boundary_currents(end, steady_state_matrix(end)).i_left
    assert interior_current != pytest.approx(point.current, rel=1e-6)


@pytest.mark.parametrize("size", [math.inf, 2.5, 1, 3.0])
def test_size_scan_rejects_a_size_that_is_not_an_integer_of_at_least_2(size):
    with pytest.raises(ValueError, match="n_sites"):
        size_scan(chain_system(2, chi=0.1, host=2), [3, size])


@pytest.mark.parametrize(
    "observable",
    [lambda s, g: boundary_currents(s, g).i_left, lambda s, g: boundary_currents(s, g).i_right,
     occupation_profile, bond_flows],
    ids=["array_current", "right_boundary_current", "occupation_profile", "bond_flows"],
)
def test_observables_reject_a_state_of_another_system(observable):
    system = chain_system(5, chi=0.1, host=5, sigma_z=1.0)
    for other in (chain_system(5, chi=0.1, host=5, sigma_z=-1.0), chain_system(4, chi=0.1, host=4, sigma_z=1.0)):
        with pytest.raises(ValueError, match="does not belong"):
            observable(system, steady_state_matrix(other))
