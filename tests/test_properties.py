"""Property tests: validation at construction, balanced currents, agreement of
the closed form with the moment path, hot-to-cold flow without an atom, the
equilibrium state, currents affine in sigma_z, the pair as the two-site
chain, positive covariances, sweep grids equal to their points, and balanced
oracle currents."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cavityheat.chain import boundary_currents, steady_state_matrix  # noqa: E402
from cavityheat.closedform import ZERO_CURRENT_TOL, current_general  # noqa: E402
from cavityheat.fockspace import FockConfig, oracle_currents, steady_rho  # noqa: E402
from cavityheat.model import (  # noqa: E402
    ArraySystem, AtomSpec, PairGrid, ReservoirSpec, TwoCavitySystem, ValidationError,
)
from cavityheat.moments import steady_state, sweep_currents  # noqa: E402

from block_reference import block_matrix  # noqa: E402

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
    report = boundary_currents(system, steady_state(system))
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
        assert np.sign(boundary_currents(system, steady_state(system)).i_left) == np.sign(bias)


@st.composite
def chains(draw, max_sites=10):
    # chi <= 3 J keeps a mode trapped at an interior host coupled to the ends:
    # a stronger shift leaves it all but undamped, and the solver refuses it
    n = draw(st.integers(2, max_sites))
    unit = st.floats(0.0, 1.0)
    coupling = draw(st.floats(0.03, 0.1))
    atom = None
    if draw(st.booleans()):
        atom = AtomSpec(draw(st.floats(0.0, 3.0 * coupling)), draw(st.floats(-1.0, 1.0)),
                        host_index=draw(st.integers(1, n)))
    return ArraySystem(
        n_sites=n, omega=1.0, coupling=coupling,
        left=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(unit)),
        right=ReservoirSpec(draw(st.floats(0.01, 0.2)), draw(unit)),
        atom=atom,
    )


def solved(system):
    """The steady state and the currents of a pair (moment path) or a chain."""
    state = steady_state(system) if isinstance(system, TwoCavitySystem) else steady_state_matrix(system)
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
        state = steady_state(system)
        single, single_closed = boundary_currents(system, state), current_general(system)
        assert residuals[k] == state.residual
        for field in CURRENT_FIELDS + ("alpha", "regime"):
            assert getattr(report, field)[k] == getattr(single, field), field
            assert getattr(closed, field)[k] == getattr(single_closed, field), field
        # a hot left reservoir tags the sign of I_L
        hot = system.left.mean_occupation > system.right.mean_occupation
        if abs(single.i_left) > ZERO_CURRENT_TOL * system.omega_left**2:
            assert single.regime == (("conducting" if single.i_left > 0 else "reversed") if hot else None)


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
