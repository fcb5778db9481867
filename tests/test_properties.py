"""Property tests: validation at construction, balanced currents, agreement of
the closed form with the moment path (also with rates over five decades,
where ||A|| / ||Q|| is large), hot-to-cold flow without an atom, the
equilibrium state, currents affine in sigma_z, the pair as the two-site
chain, positive covariances, chains of three or more sites against the
block equation, every moment solve of a pair, a grid or a chain exactly
Hermitian and within the one bound on the block equation, the closed-form
2 x 2 eigenvalues of the pair solve against LAPACK, a sector stack with a
non-finite entry refused at the first such matrix, sweep grids equal to
their points, balanced oracle currents, a pair in other units solving as
the pair along the moment and oracle paths, and every public call given a
non-finite number raising or returning finite numbers, and given a
fractional size raising."""

import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import cavityheat  # noqa: E402
from cavityheat.chain import (  # noqa: E402
    _mixture, _pair_exponents, _pair_spectrum, _sector_equations, _sites, boundary_currents,
    sector_covariances, size_scan, steady_state_matrix, sweep_currents,
)
from cavityheat.closedform import current_general, current_pm, rectification  # noqa: E402
from cavityheat.fockspace import (  # noqa: E402
    FockConfig, converged_steady_rho, oracle_currents, steady_rho, thermal_fidelity, thermal_state,
)
from cavityheat.model import (  # noqa: E402
    RESIDUAL_TOL, ZERO_CURRENT_TOL, ArraySystem, AtomSpec, PairGrid, ReservoirSpec, SolverError, TwoCavitySystem,
    ValidationError, bose_occupation, sector_weights,
)
from cavityheat.moments import evolve  # noqa: E402

from block_reference import (  # noqa: E402
    block_backward_error, block_matrix, block_residual, kronecker_steady_matrix,
)
from fock_reference import sector_state  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)

PAIR = TwoCavitySystem(
    omega_left=1.0, omega_right=1.1, coupling=0.03,
    left=ReservoirSpec(0.06, 0.5), right=ReservoirSpec(0.08, 0.1),
    atom=AtomSpec(dispersive_strength=0.3, sigma_z=0.2),
)
CHAIN = ArraySystem(
    n_sites=4, omega=1.0, coupling=0.05, left=ReservoirSpec(0.1, 0.5), right=ReservoirSpec(0.1, 0.0),
    atom=AtomSpec(dispersive_strength=0.2, sigma_z=-1.0, host_index=4),
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_POSITIVE = NON_FINITE | st.floats(max_value=0.0)
NEGATIVE = NON_FINITE | st.floats(max_value=-5e-324)
OUTSIDE_UNIT = NON_FINITE | st.floats(min_value=1.0, exclude_min=True) | st.floats(max_value=-1.0, exclude_max=True)

# field -> (label of its message, bad values, the system built with one bad value)
BAD_FIELDS = {
    "omega_left": ("omega_left: frequency", NOT_POSITIVE, lambda v: replace(PAIR, omega_left=v)),
    "omega_right": ("omega_right: frequency", NOT_POSITIVE, lambda v: replace(PAIR, omega_right=v)),
    "coupling": ("coupling:", NEGATIVE, lambda v: replace(PAIR, coupling=v)),
    "left rate": ("left reservoir: rate", NOT_POSITIVE, lambda v: replace(PAIR, left=ReservoirSpec(v, 0.5))),
    "right occupation": ("right reservoir: mean occupation", NEGATIVE,
                         lambda v: replace(PAIR, right=ReservoirSpec(0.08, v))),
    "chi": ("atom: dispersive strength", NEGATIVE, lambda v: replace(PAIR, atom=AtomSpec(v, 0.2))),
    "sigma_z": ("atom: sigma_z", OUTSIDE_UNIT, lambda v: replace(PAIR, atom=AtomSpec(0.3, v))),
    "omega": ("omega: frequency", NOT_POSITIVE, lambda v: replace(CHAIN, omega=v)),
    "n_sites": ("n_sites:", st.integers(max_value=1), lambda v: replace(CHAIN, n_sites=v, atom=None)),
    "host_index": ("atom: host cavity index", st.integers(max_value=0) | st.integers(min_value=5),
                   lambda v: replace(CHAIN, atom=AtomSpec(0.2, -1.0, host_index=v))),
}


@st.composite
def bad_systems(draw):
    label, values, build = BAD_FIELDS[draw(st.sampled_from(sorted(BAD_FIELDS)))]
    return label, build, draw(values)


@PROPERTY
@given(bad_systems())
def test_a_field_outside_its_domain_is_named_once(case):
    label, build, value = case
    with pytest.raises(ValidationError) as err:
        build(value)
    assert len(err.value.errors) == 1 and err.value.errors[0].startswith(label), err.value.errors


@st.composite
def pairs(draw, atom=True, nbar=1.0):
    unit = st.floats(0.0, nbar)
    has_atom = atom and draw(st.booleans())
    return TwoCavitySystem(
        omega_left=1.0,
        omega_right=draw(st.floats(0.8, 1.2)),
        coupling=draw(st.floats(0.005, 0.1)),
        left=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(unit)),
        right=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(unit)),
        atom=AtomSpec(draw(st.floats(0.0, 2.0)), draw(st.floats(-1.0, 1.0))) if has_atom else None,
    )


@PROPERTY
@given(pairs())
def test_currents_balance_and_the_closed_form_matches_the_moments(system):
    report = boundary_currents(system, steady_state_matrix(system))
    closed = current_general(system)
    # the size of the terms that cancel in I_L and I_R: the reservoirs' and the cavities' energy flows
    scale = (system.left.rate * (system.omega_left * system.left.mean_occupation
                                 + abs(report.i_occupation) + abs(report.i_coherence))
             + system.right.rate * system.omega_right * system.right.mean_occupation)
    assert abs(report.i_left + report.i_right) <= 1e-9 * scale
    assert abs(closed.i_left - report.i_left) <= 1e-9 * scale


@PROPERTY
@given(pairs(atom=False))
def test_without_an_atom_heat_flows_from_hot_to_cold(system):
    bias = system.left.mean_occupation - system.right.mean_occupation
    # the closed form carries the sign of nbar_L - nbar_R exactly
    assert np.sign(current_general(system).i_left) == np.sign(bias)
    if abs(bias) > 1e-6:
        assert np.sign(boundary_currents(system, steady_state_matrix(system)).i_left) == np.sign(bias)


@st.composite
def chains(draw, min_sites=2, max_sites=10, occupation=st.floats(0.0, 1.0)):
    # chi <= 3 J keeps a mode trapped at an interior host coupled to the ends:
    # a stronger shift leaves it all but undamped, and the solver refuses it
    n = draw(st.integers(min_sites, max_sites))
    coupling = draw(st.floats(0.03, 0.1))
    atom = None
    if draw(st.booleans()):
        atom = AtomSpec(draw(st.floats(0.0, 3.0 * coupling)), draw(st.floats(-1.0, 1.0)),
                        host_index=draw(st.integers(1, n)))
    return ArraySystem(
        n_sites=n, omega=1.0, coupling=coupling,
        left=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(occupation)),
        right=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(occupation)),
        atom=atom,
    )


def solved(system):
    """The steady state and the currents of a pair (moment path) or a chain."""
    state = steady_state_matrix(system)
    return state, boundary_currents(system, state)


def energy_scale(system, report):
    """Size of the terms that cancel in a current: the reservoirs' and the cavities' energy flows."""
    omega_right = system.omega_right if isinstance(system, TwoCavitySystem) else system.omega
    omega_left = system.omega_left if isinstance(system, TwoCavitySystem) else system.omega
    return (system.left.rate * (omega_left * system.left.mean_occupation
                                + abs(report.i_occupation) + abs(report.i_coherence))
            + system.right.rate * omega_right * (system.right.mean_occupation + 1.0))


SYSTEMS = pairs() | chains()
CURRENT_FIELDS = ("i_left", "i_right", "i_occupation", "i_coherence")


@PROPERTY
@given(chains())
def test_chain_currents_balance(system):
    _, report = solved(system)
    assert abs(report.i_left + report.i_right) <= 1e-9 * energy_scale(system, report)


@PROPERTY
@given(chains(), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0, None]))
def test_equilibrium_state_is_nbar_times_identity(system, nbar, pinned):
    # sigma_z = +-1 holds one sector, a mixed sigma_z both
    atom = system.atom if pinned is None or system.atom is None else replace(system.atom, sigma_z=pinned)
    system = replace(system, left=ReservoirSpec(system.left.rate, nbar), right=ReservoirSpec(system.right.rate, nbar),
                     atom=atom)
    state, report = solved(system)
    eye = np.eye(system.n_sites)
    assert np.max(np.abs(state.field_block - nbar * eye)) <= 1e-9 * max(nbar, 1e-300)
    assert np.max(np.abs(state.sz_block - system.sigma_z * nbar * eye)) <= 1e-9 * max(nbar, 1e-300)
    assert abs(report.i_left) <= 1e-9 * energy_scale(system, report)


@PROPERTY
@given(SYSTEMS.filter(lambda system: system.atom is not None))
def test_every_current_is_affine_in_sigma_z(system):
    def at(sigma_z):
        pinned = replace(system, atom=replace(system.atom, sigma_z=sigma_z))
        reports = [solved(pinned)[1]]
        if isinstance(pinned, TwoCavitySystem):
            reports.append(current_general(pinned))
        return reports

    weight = 0.5 * (1.0 + system.sigma_z)
    for mixed, up, down in zip(at(system.sigma_z), at(1.0), at(-1.0)):
        scale = energy_scale(system, mixed)
        for field in CURRENT_FIELDS:
            line = weight * getattr(up, field) + (1.0 - weight) * getattr(down, field)
            assert abs(getattr(mixed, field) - line) <= 1e-9 * scale, field


@PROPERTY
@given(pairs(), st.floats(0.5, 1.5))
def test_the_two_site_chain_is_the_resonant_pair(pair, omega):
    pair = replace(pair, omega_left=omega, omega_right=omega)
    chain = ArraySystem(n_sites=2, omega=omega, coupling=pair.coupling, left=pair.left, right=pair.right,
                        atom=pair.atom)
    (pair_state, pair_report), (chain_state, chain_report) = solved(pair), solved(chain)
    pair_g, chain_g = block_matrix(pair_state), block_matrix(chain_state)
    assert np.max(np.abs(pair_g - chain_g)) <= 1e-12 * max(1.0, np.max(np.abs(pair_g)))
    scale = energy_scale(pair, pair_report)
    for field in CURRENT_FIELDS:
        assert abs(getattr(pair_report, field) - getattr(chain_report, field)) <= 1e-12 * scale, field


@PROPERTY
@given(SYSTEMS)
def test_the_positivity_margin_holds(system):
    assert solved(system)[0].positivity_margin >= -1e-10


@settings(PROPERTY, max_examples=25)
@given(chains(min_sites=3, max_sites=14))
def test_a_chain_of_three_or_more_sites_solves_the_block_equation(system):
    # the eigenbasis solve against the 2N x 2N block equation, solved densely
    state = steady_state_matrix(system)
    g = block_matrix(state)
    reference = kronecker_steady_matrix(system)
    assert np.max(np.abs(g - reference)) <= 1e-10 * max(1.0, np.max(np.abs(reference)))
    assert state.residual <= RESIDUAL_TOL
    if system.left.mean_occupation or system.right.mean_occupation:  # else M3 = 0 and G = 0
        assert block_residual(system, g) <= 1e-10
        assert block_backward_error(system, g) <= RESIDUAL_TOL


EPS = np.finfo(float).eps
# parts whose squares neither over- nor underflow, the range of the 2 x 2 closed forms
PART = st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6)
ENTRY = st.builds(complex, PART, PART)


@st.composite
def two_by_two(draw):
    """A stack of 2 x 2 complex matrices of one kind: any, defective
    [[l, 1], [0, l]], undamped i S with S real symmetric, or zero."""
    kind = draw(st.sampled_from(["any", "defective", "undamped", "zero"]))
    k = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(ENTRY, min_size=4 * k, max_size=4 * k))).reshape(k, 2, 2)
    if kind == "defective":
        a[:, 1, 1], a[:, 0, 1], a[:, 1, 0] = a[:, 0, 0], 1.0, 0.0
    elif kind == "undamped":
        a = 1j * (a.real + a.real.transpose(0, 2, 1))
    elif kind == "zero":
        a[:] = 0.0
    return kind, a


def paired_distance(got, want):
    """Largest distance between two stacks of eigenvalue pairs, each pair in its better order."""
    return np.minimum(np.max(np.abs(got - want), axis=1), np.max(np.abs(got - want[:, ::-1]), axis=1))


@settings(PROPERTY, max_examples=200)
@given(two_by_two())
@example(("defective", np.array([[[0.3 - 2.0j, 1.0], [0.0, 0.3 - 2.0j]]])))
@example(("any", np.array([[[-0.03 + 1e3j, 0.02j], [0.02j, -0.04 + 1e3j]]])))  # a sector far above its spread
def test_the_closed_form_decay_exponents_are_the_eigenvalues(case):
    kind, a = case
    got, want = _pair_exponents(a), np.linalg.eigvals(a)
    norm = np.linalg.norm(a, axis=(1, 2))
    assert np.all(got[:, 0].real >= got[:, 1].real)  # the slowest first
    # a rounding of A moves its eigenvalues by about eps ||A|| ||B|| / gap, B =
    # A - (t/2) I, and by up to sqrt(eps) ||A|| where they meet; both ways of solving do
    spread = np.linalg.norm(a - np.trace(a, axis1=1, axis2=2)[:, None, None] * np.eye(2) / 2, axis=(1, 2))
    gap = np.abs(want[:, 0] - want[:, 1])
    sensitivity = np.maximum(gap, np.sqrt(EPS) * spread)
    assert np.all(paired_distance(got, want) * sensitivity <= 8 * EPS * norm * (sensitivity + spread))
    # with the trace and the determinant kept to rounding at any gap
    assert np.all(np.abs(got.sum(axis=1) - np.trace(a, axis1=1, axis2=2)) <= 4 * EPS * norm)
    assert np.all(np.abs(got.prod(axis=1) - np.linalg.det(a)) <= 8 * EPS * norm**2)
    if kind in ("defective", "zero"):
        assert np.array_equal(got, want)
    if kind == "undamped":
        assert np.all(got.real == 0.0)
        with pytest.raises(SolverError, match="a chain mode is undamped"):
            sector_covariances(a, np.broadcast_to(np.eye(2, dtype=complex), a.shape))


@st.composite
def covariances(draw):
    """A stack of Hermitian positive semidefinite 2 x 2 matrices of one rank, 0 to 2."""
    k, rank = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    b = np.array(draw(st.lists(ENTRY, min_size=2 * k * rank, max_size=2 * k * rank)), complex).reshape(k, 2, rank)
    return b @ b.conj().transpose(0, 2, 1)


@PROPERTY
@given(covariances(), ENTRY, PART)
def test_the_closed_form_covariance_eigenvalues_read_the_lower_triangle_as_eigvalsh(c, upper, diagonal):
    noisy = c.copy()  # eigvalsh reads neither the upper triangle nor the imaginary diagonal
    noisy[:, 0, 1] = upper
    noisy[:, [0, 1], [0, 1]] += 1j * diagonal
    got, norm = _pair_spectrum(noisy), np.linalg.norm(c, axis=(1, 2))
    for want in (np.linalg.eigvalsh(noisy), np.linalg.eigvalsh(c)):
        assert np.all(np.abs(got - want) <= 8 * EPS * norm[:, None])
    assert np.all(got[:, 0] <= got[:, 1]) and np.all(got[:, 0] >= -8 * EPS * norm)


@PROPERTY
@given(st.sampled_from([2, 3]), st.integers(0, 5), st.integers(0, 8), NON_FINITE, st.booleans(), st.booleans(),
       st.booleans())
def test_a_sector_stack_with_a_non_finite_entry_is_refused_at_the_first(n, first, entry, value, imaginary, drive,
                                                                         again):
    # six sector matrices: three pairs (Kronecker solve) or one 3-site chain six times (eigenbasis solve)
    if n == 2:
        sites, owner = _sites(PairGrid.sweep(PAIR, chi=[0.1, 0.2, 0.3])), np.repeat(np.arange(3), 2)
    else:
        sites, owner = _sites(replace(CHAIN, n_sites=3, atom=replace(CHAIN.atom, host_index=3))), np.zeros(6, int)
    a, q = _sector_equations(sites, owner, np.tile([1.0, -1.0], 3))
    row, column = divmod(entry % (n * n), n)
    target = q if drive else a
    for k in (first, 5) if again else (first,):
        part = target[k, row, column]
        target[k, row, column] = complex(part.real, value) if imaginary else complex(value, part.imag)
    with pytest.raises(SolverError, match="^a sector equation has a non-finite entry$") as err:
        sector_covariances(a, q)
    assert err.value.index == first


def detuned_mixed(sigma_z):
    return TwoCavitySystem(
        omega_left=1.0, omega_right=1.1, coupling=0.02,
        left=ReservoirSpec(0.064, 0.5), right=ReservoirSpec(0.064, 0.0),
        atom=AtomSpec(dispersive_strength=0.3, sigma_z=sigma_z),
    )


@PROPERTY
@given(st.lists(pairs(), min_size=1, max_size=6))
@example([detuned_mixed(-0.4), detuned_mixed(0.2)])
def test_grid_currents_equal_the_currents_of_each_point(points):
    grid = PairGrid.from_systems(points)
    report, residuals = sweep_currents(grid)
    closed = current_general(grid)
    for k, system in enumerate(points):
        state = steady_state_matrix(system)
        single, single_closed = boundary_currents(system, state), current_general(system)
        assert residuals[k] == state.residual
        for field in CURRENT_FIELDS + ("alpha", "regime"):
            assert getattr(report, field)[k] == getattr(single, field), field
            assert getattr(closed, field)[k] == getattr(single_closed, field), field
        # a hot left reservoir tags the sign of I_L
        hot = system.left.mean_occupation > system.right.mean_occupation
        if abs(single.i_left) > ZERO_CURRENT_TOL * system.omega_left**2:
            assert single.regime == (("conducting" if single.i_left > 0 else "reversed") if hot else None)


@st.composite
def ground_state_pairs(draw):
    return replace(draw(pairs(atom=False)), omega_right=draw(st.floats(0.5, 2.0)),
                   atom=AtomSpec(draw(st.floats(0.0, 2.5)), -1.0))


def bits(value):
    return float(value).hex()


# r = omega_L Gamma_L + Gamma_R (omega_R - chi) = 0: the reverse direction is blocked
BLOCKED = TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.05, left=ReservoirSpec(0.1, 0.5),
                          right=ReservoirSpec(0.2, 0.0), atom=AtomSpec(1.5, -1.0))


@PROPERTY
@given(st.lists(ground_state_pairs(), min_size=1, max_size=6))
@example([BLOCKED, replace(BLOCKED, left=ReservoirSpec(0.099, 0.5)), replace(BLOCKED, left=ReservoirSpec(0.101, 0.5))])
def test_grid_rectification_equals_the_rectification_of_each_point(points):
    result = rectification(PairGrid.from_systems(points))
    for k, system in enumerate(points):
        single = rectification(system)
        for field in ("forward", "reverse", "ratio"):
            assert bits(getattr(result, field)[k]) == bits(getattr(single, field)), field


# The oracle costs milliseconds a point, so it runs on few examples, at small
# truncations and occupations low enough for the Gibbs tail guard.
@settings(PROPERTY, max_examples=20)
@given(pairs(nbar=0.05), st.integers(3, 6))
def test_oracle_currents_balance(system, n_max):
    report = oracle_currents(system, steady_rho(system, FockConfig(n_max=n_max, tail_bound=1e-4)))
    # the size of the reservoirs' energy flows, which cancel in I_L + I_R
    scale = (system.left.rate * system.omega_left * (system.left.mean_occupation + 1.0)
             + system.right.rate * system.omega_right * (system.right.mean_occupation + 1.0))
    assert abs(report.i_left + report.i_right) <= 1e-12 * scale


@pytest.mark.parametrize("rate, n_max", [(1e-7, 12), (1e-7, 20), (1e-9, 20)])
def test_oracle_currents_of_a_high_q_pair_balance(rate, n_max):
    # flows of size Gamma against omega = 1: a solve's error leaves |I_L + I_R| near 3e-17, above 1e-10 of the
    # flows' magnitudes, and the state's backward error bounds it, so no warning is raised
    system = TwoCavitySystem(1.0, 1.0, 0.01, ReservoirSpec(rate, 0.5), ReservoirSpec(rate, 0.0), AtomSpec(0.05, 1.0))
    report = oracle_currents(system, steady_rho(system, FockConfig(n_max=n_max, tail_bound=1e-3)))
    assert report.i_left == pytest.approx(boundary_currents(system, steady_state_matrix(system)).i_left, rel=1e-3)


def in_units(system: TwoCavitySystem, scale: float) -> TwoCavitySystem:
    """The pair with every frequency and rate times ``scale``: the same physics
    in other units, with every occupation the same and every current, an
    energy per time, times scale^2."""
    return TwoCavitySystem(
        omega_left=scale * system.omega_left, omega_right=scale * system.omega_right,
        coupling=scale * system.coupling,
        left=ReservoirSpec(scale * system.left.rate, system.left.mean_occupation),
        right=ReservoirSpec(scale * system.right.rate, system.right.mean_occupation),
        atom=replace(system.atom, dispersive_strength=scale * system.chi) if system.atom else None,
    )


@st.composite
def hot_left_pairs(draw):
    """Pairs whose current keeps one sign and stays far from zero: a hot left
    reservoir and a dispersive shift below omega_right."""
    return TwoCavitySystem(
        omega_left=1.0,
        omega_right=draw(st.floats(0.8, 1.2)),
        coupling=draw(st.floats(0.005, 0.1)),
        left=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(st.floats(0.03, 0.3))),
        right=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(st.floats(0.0, 0.01))),
        atom=AtomSpec(draw(st.floats(0.0, 0.5)), draw(st.floats(-1.0, 1.0))) if draw(st.booleans()) else None,
    )


# Both residuals are backward errors, so they hold one bound in any units: an
# absolute residual bound refuses a pair at 1e8 and cannot see a wrong state at 1e-6.
UNITS_PAIR = TwoCavitySystem(omega_left=1.0, omega_right=1.1, coupling=0.03, left=ReservoirSpec(0.06, 0.3),
                             right=ReservoirSpec(0.1, 0.05), atom=AtomSpec(0.1, 0.3))


@settings(PROPERTY, max_examples=15)
@given(hot_left_pairs(), st.floats(-6.0, 8.0), st.integers(4, 12))
@example(UNITS_PAIR, 8.0, 12)
@example(UNITS_PAIR, -6.0, 12)
def test_a_pair_in_other_units_solves_as_the_pair_along_the_moment_and_oracle_paths(system, exponent, n_max):
    scale = 10.0**exponent
    scaled = in_units(system, scale)
    cfg = FockConfig(n_max=n_max, tail_bound=1e-2)
    for solve, currents in ((steady_state_matrix, boundary_currents),
                            (lambda pair: steady_rho(pair, cfg), oracle_currents)):
        state = solve(scaled)
        assert state.residual <= RESIDUAL_TOL
        expected = currents(system, solve(system)).i_left
        assert currents(scaled, state).i_left / scale**2 == pytest.approx(expected, rel=1e-12)


@st.composite
def hot_pairs(draw, occupation=st.floats(0.0, 3.0)):
    rate = st.floats(-4.0, 1.0).map(lambda exponent: 10.0**exponent)
    has_atom = draw(st.booleans())
    return TwoCavitySystem(
        omega_left=1.0,
        omega_right=draw(st.floats(0.5, 3.0)),
        coupling=draw(st.floats(0.0, 10.0)),
        left=ReservoirSpec(draw(rate), draw(occupation)),
        right=ReservoirSpec(draw(rate), draw(occupation)),
        atom=AtomSpec(draw(st.floats(0.0, 2.0)), draw(st.floats(-1.0, 1.0))) if has_atom else None,
    )


@settings(PROPERTY, max_examples=200)
@given(hot_pairs())
@example(TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.01, left=ReservoirSpec(1e-6, 0.5),
                         right=ReservoirSpec(1e-6, 0.0), atom=AtomSpec(0.05, 1.0)))
def test_a_pair_solves_to_the_closed_form_with_rates_over_five_decades(system):
    # rates from 1e-4 against couplings up to 10: ||A|| / Gamma reaches 1e5, and the backward error stays at a few eps
    state = steady_state_matrix(system)
    assert state.residual <= RESIDUAL_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = boundary_currents(system, state)
    scale = energy_scale(system, report)
    assert abs(report.i_left + report.i_right) <= 1e-9 * scale
    assert abs(current_general(system).i_left - report.i_left) <= 1e-9 * scale


# any sigma_z, with sector weights down to 5e-13 next to a pinned atom
SIGMA_Z = st.floats(-1.0, 1.0) | st.sampled_from([1.0 - 1e-12, -1.0 + 1e-12])
# Occupations of 0 or at least 1e-250 keep Q and C normal numbers: a subnormal
# carries fewer than 52 bits, so no backward error of a few eps can be reached
# or measured there (the reference's own residual is rounded at an absolute 5e-324).
NORMAL = st.just(0.0) | st.floats(1e-250, 1.0)
NORMAL_PAIRS = hot_pairs(occupation=NORMAL)
HIGH_Q = TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.01, left=ReservoirSpec(1e-10, 0.5),
                         right=ReservoirSpec(1e-10, 0.0), atom=AtomSpec(0.05, 1.0))


@PROPERTY
@given(NORMAL_PAIRS | st.lists(NORMAL_PAIRS, min_size=1, max_size=5) | chains(max_sites=12, occupation=NORMAL), SIGMA_Z)
@example(HIGH_Q, 1.0)
@example([HIGH_Q, replace(HIGH_Q, omega_right=1.1)], 1.0 - 1e-12)
def test_every_moment_solve_is_hermitian_and_holds_the_block_equation(case, sigma_z):
    # a pair, a grid of pairs (one stack solve) or a chain; the sector bound holds the 2N x 2N block equation
    systems = case if isinstance(case, list) else [case]
    systems = [replace(system, atom=replace(system.atom, sigma_z=sigma_z)) if system.atom else system
               for system in systems]
    if isinstance(case, list):
        field, sz_block, _, _ = _mixture(_sites(PairGrid.from_systems(systems)))
    else:
        state = steady_state_matrix(systems[0])
        field, sz_block = [state.field_block], [state.sz_block]
    for system, f, s in zip(systems, field, sz_block):
        assert np.array_equal(f, f.conj().T) and np.array_equal(s, s.conj().T)
        g = np.block([[f, s], [s, f]])
        if np.any(g):  # else M3 = 0, and the backward error is 0 / 0
            assert block_backward_error(system, g) <= RESIDUAL_TOL


# Hot reservoirs cut at a few levels (tail_bound 1) with rates over five
# decades: here Schur blocks of the elimination are far from definite. At
# n_max 6 the largest block (49 entries) also passes one split of the
# block-recursive inverse; below it every block is a pivoted leaf.
@settings(PROPERTY, max_examples=30)
@given(hot_pairs(), st.integers(1, 6))
@example(TwoCavitySystem(omega_left=1.0, omega_right=2.55, coupling=0.0133,
                         left=ReservoirSpec(5.78, 0.0061), right=ReservoirSpec(2.0e-4, 2.80)), 6)
def test_oracle_state_is_the_full_generator_solve_with_hot_reservoirs(system, n_max):
    rho = steady_rho(system, FockConfig(n_max=n_max, tail_bound=1.0))
    for _, sign, state in rho.sectors:
        assert np.max(np.abs(state - sector_state(system, sign, n_max))) <= 1e-10


# --- finite or raise, across cavityheat.__all__ ------------------------------------


def pair_of(omega_left, omega_right, coupling, left_rate, left_occupation, right_rate, right_occupation, chi,
            sigma_z):
    return TwoCavitySystem(omega_left, omega_right, coupling, ReservoirSpec(left_rate, left_occupation),
                           ReservoirSpec(right_rate, right_occupation), AtomSpec(chi, sigma_z))


def chain_of(n_sites, omega, coupling, left_rate, left_occupation, right_rate, right_occupation, chi, sigma_z,
             host_index):
    return ArraySystem(n_sites, omega, coupling, ReservoirSpec(left_rate, left_occupation),
                       ReservoirSpec(right_rate, right_occupation), AtomSpec(chi, sigma_z, host_index))


PAIR_NUMBERS = dict(omega_left=1.0, omega_right=1.1, coupling=0.03, left_rate=0.06, left_occupation=0.5,
                    right_rate=0.08, right_occupation=0.1, chi=0.3, sigma_z=0.2)
CHAIN_NUMBERS = dict(n_sites=4, omega=1.0, coupling=0.05, left_rate=0.1, left_occupation=0.5, right_rate=0.1,
                     right_occupation=0.0, chi=0.2, sigma_z=-1.0, host_index=4)
# cold enough for a Fock truncation at n_max = 3
COLD_PAIR = pair_of(**dict(PAIR_NUMBERS, left_occupation=0.01, right_occupation=0.0))
COLD_FOCK = FockConfig(n_max=3, tail_bound=1e-3)

# (public name, a call that takes numbers, a valid set of them, the names of those that are sizes)
NUMBER_CALLS = [
    ("bose_occupation", bose_occupation, dict(omega=1.0, temperature=0.5), ()),
    ("sector_weights", lambda sigma_z: sector_weights(np.array([sigma_z]), np.array([True])), dict(sigma_z=0.3), ()),
    ("current_pm", lambda sign: current_pm(PAIR, sign), dict(sign=1), ()),
    ("evolve", lambda t_final, dt: evolve(PAIR, steady_state_matrix(PAIR), t_final, dt), dict(t_final=0.02, dt=0.01), ()),
    ("converged_steady_rho",
     lambda occupation_tol, step: converged_steady_rho(COLD_PAIR, COLD_FOCK, occupation_tol, step),
     dict(occupation_tol=1e-6, step=1), ("step",)),
    ("thermal_state", thermal_state, dict(n_levels=4, nbar=0.3), ("n_levels",)),
    ("thermal_fidelity", lambda nbar: thermal_fidelity(thermal_state(4, 0.3), nbar), dict(nbar=0.3), ()),
    ("size_scan", lambda size: size_scan(CHAIN, [size]), dict(size=3), ("size",)),
    ("PairGrid", lambda **fields: PairGrid.sweep(PAIR, **fields), PAIR_NUMBERS, ()),
    ("steady_rho", lambda **fields: steady_rho(COLD_PAIR, FockConfig(**fields)),
     dict(n_max=3, tail_bound=1e-3), ("n_max",)),
    ("TwoCavitySystem", pair_of, PAIR_NUMBERS, ()),
    ("ArraySystem", chain_of, CHAIN_NUMBERS, ("n_sites", "host_index")),
]
# every other public name, with what it takes in place of numbers
TAKES_NO_NUMBER = {
    "ValidationError": "messages", "SolverError": "a message",
    "atomic_sectors": "a system", "validate": "a system", "validation_errors": "a system",
    "current_general": "a system or grid", "steady_moments": "a system or grid", "classify_regime": "a system or grid",
    "rectification": "a system or grid", "current_resonant_with_atom": "a system", "peak_rate": "a system",
    "sweep_currents": "a grid", "steady_state_matrix": "a pair or a chain",
    "ballistic_current": "a system", "boundary_currents": "a system and a state",
    "occupation_profile": "a system and a state", "oracle_currents": "a system and a state",
    "g2_zero": "a state", "MomentMatrix": "a state, which it checks", "DensityMatrix": "a state, which it checks",
    "CurrentReport": "solver results", "RectificationResult": "solver results", "SteadyMoments": "solver results",
    "MomentTrajectory": "solver results",
}
# plain records: they hold numbers as given, and the system or solve that reads them checks them
PLAIN_RECORDS = ("ReservoirSpec", "AtomSpec", "FockConfig")


def test_every_public_name_is_walked_or_listed():
    walked = [name for name, *_ in NUMBER_CALLS]
    listed = walked + list(TAKES_NO_NUMBER) + list(PLAIN_RECORDS)
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(cavityheat.__all__)


def finite_numbers(value) -> bool:
    """Whether every number in a returned value is finite."""
    if value is None or isinstance(value, str):
        return True
    if dataclasses.is_dataclass(value):
        return all(finite_numbers(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(finite_numbers, value))
    array = np.asarray(value)
    if array.dtype == object:
        assert array.ndim > 0, f"unexpected result {value!r}"
        return all(map(finite_numbers, array.flat))
    return bool(np.isfinite(array).all())


def walked_call(name, argument, value):
    """One walked call with one of its numbers replaced, and whether that makes
    it a fractional size, which must raise: a finite result would be of another size."""
    _, call, numbers, sizes = next(entry for entry in NUMBER_CALLS if entry[0] == name)
    return name, call, dict(numbers, **{argument: value}), argument in sizes and value == 2.5


@st.composite
def non_finite_calls(draw):
    name, _, numbers, sizes = draw(st.sampled_from(NUMBER_CALLS))
    argument = draw(st.sampled_from(sorted(numbers)))
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf] + ([2.5] if argument in sizes else [])))
    return walked_call(name, argument, value)


@settings(PROPERTY, max_examples=200)
@given(non_finite_calls())
@example(walked_call("thermal_state", "n_levels", 2.5))
@example(walked_call("ArraySystem", "host_index", 2.5))
def test_a_public_call_given_a_non_finite_number_raises_or_returns_finite_numbers(case):
    name, call, numbers, fractional_size = case
    try:
        result = call(**numbers)
    except ValueError:
        return
    assert not fractional_size, (name, numbers)
    assert finite_numbers(result), (name, numbers)


@pytest.mark.parametrize("name, call, numbers, sizes", NUMBER_CALLS, ids=[name for name, *_ in NUMBER_CALLS])
def test_each_walked_call_is_valid_as_given(name, call, numbers, sizes):
    assert finite_numbers(call(**numbers))
