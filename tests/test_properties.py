"""Property tests: validation at construction, balanced currents, agreement of
the closed form with the moment path, and hot-to-cold flow without an atom."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cavityheat.closedform import current_general  # noqa: E402
from cavityheat.model import ArraySystem, AtomSpec, ReservoirSpec, TwoCavitySystem, ValidationError  # noqa: E402
from cavityheat.moments import currents_from_moments, steady_state  # noqa: E402

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
    "transition": ("atom: transition frequency", NON_FINITE,
                   lambda v: replace(PAIR, atom=AtomSpec(0.3, 0.2, transition_frequency=v))),
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
def pairs(draw, atom=True):
    unit = st.floats(0.0, 1.0)
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
    report = currents_from_moments(system, steady_state(system))
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
        assert np.sign(currents_from_moments(system, steady_state(system)).i_left) == np.sign(bias)
