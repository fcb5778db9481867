import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cavityheat import model
from cavityheat.chain import boundary_currents, steady_state_matrix
from cavityheat.closedform import current_general, rectification
from cavityheat.fockspace import FockConfig, oracle_currents, steady_rho
from cavityheat.model import (
    ArraySystem,
    AtomSpec,
    PairGrid,
    ReservoirSpec,
    TwoCavitySystem,
    ValidationError,
    atomic_sectors,
    bose_occupation,
    sector_weights,
    validate,
)


def two_cavity(**overrides):
    base = dict(
        omega_left=1.0,
        omega_right=1.0,
        coupling=0.02,
        left=ReservoirSpec(rate=0.064, mean_occupation=0.5),
        right=ReservoirSpec(rate=0.064, mean_occupation=0.0),
        atom=AtomSpec(dispersive_strength=0.05, sigma_z=1.0),
    )
    base.update(overrides)
    return TwoCavitySystem(**base)


def construction_errors(build, *args, **kwargs):
    """The messages of the ValidationError raised while building a system; [] when it builds."""
    try:
        build(*args, **kwargs)
    except ValidationError as exc:
        return exc.errors
    return []


def test_bose_occupation_zero_temperature():
    assert bose_occupation(1.0, 0.0) == 0.0


def test_bose_occupation_ln2_ratio():
    # exp(ln 2) - 1 = 1
    assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)


def test_bose_occupation_unit_point():
    assert bose_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)


def test_bose_occupation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        bose_occupation(-1.0, 1.0)
    with pytest.raises(ValueError):
        bose_occupation(1.0, -0.5)
    for omega in (math.nan, math.inf):
        with pytest.raises(ValueError, match="omega"):
            bose_occupation(omega, 1.0)
    for temperature in (math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature"):
            bose_occupation(1.0, temperature)


def test_bose_occupation_extreme_ratio_underflows_to_zero():
    assert bose_occupation(1.0, 1e-4) == 0.0


@pytest.mark.parametrize("omega, temperature", [(1e-300, 1e300), (5e-324, 1.0)], ids=["ratio-zero", "ratio-subnormal"])
def test_bose_occupation_rejects_an_infinite_occupation(omega, temperature):
    # omega/T underflows to 0, or is so small that 1/expm1 overflows
    with pytest.raises(ValueError, match=re.escape(f"omega={omega}, temperature={temperature}")):
        bose_occupation(omega, temperature)


def test_bose_occupation_stays_finite_down_to_the_smallest_normal_ratio():
    assert bose_occupation(1e-307, 1.0) == pytest.approx(1e307, rel=1e-14)


def test_bose_occupation_monotonic_in_temperature_and_frequency():
    temps = np.linspace(0.05, 5.0, 40)
    occ_t = [bose_occupation(1.0, t) for t in temps]
    assert all(b > a for a, b in zip(occ_t, occ_t[1:]))
    freqs = np.linspace(0.2, 5.0, 40)
    occ_w = [bose_occupation(w, 1.0) for w in freqs]
    assert all(b < a for a, b in zip(occ_w, occ_w[1:]))


def test_reservoir_from_temperature():
    res = ReservoirSpec.from_temperature(rate=0.1, frequency=1.0, temperature=1.0)
    assert res.mean_occupation == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)


def test_negative_rate_rejected():
    with pytest.raises(ValidationError) as err:
        two_cavity(left=ReservoirSpec(rate=-0.1, mean_occupation=0.5))
    assert any("rate must be positive" in msg for msg in err.value.errors)


def test_negative_dispersive_strength_rejected():
    with pytest.raises(ValidationError) as err:
        two_cavity(atom=AtomSpec(dispersive_strength=-0.2, sigma_z=1.0))
    assert any("dispersive strength must be non-negative" in msg for msg in err.value.errors)


def test_reference_parameter_set_accepted():
    # J/omega = 0.02, chi/omega = 0.05 with matched reservoirs
    assert validate(two_cavity()) is not None


def test_all_violations_reported_together():
    errors = construction_errors(
        two_cavity,
        omega_left=-1.0,
        coupling=-0.5,
        left=ReservoirSpec(rate=-0.1, mean_occupation=-0.2),
        atom=AtomSpec(dispersive_strength=-0.1, sigma_z=2.0),
    )
    assert len(errors) == 6


def test_sigma_z_out_of_range_rejected():
    errors = construction_errors(two_cavity, atom=AtomSpec(dispersive_strength=0.1, sigma_z=-1.5))
    assert any("sigma_z" in msg for msg in errors)


def test_two_cavity_atom_must_sit_in_right_cavity():
    errors = construction_errors(two_cavity, atom=AtomSpec(dispersive_strength=0.1, sigma_z=1.0, host_index=1))
    assert any("right cavity" in msg for msg in errors)


def test_array_host_site_bounds():
    def array_with_host(m):
        return ArraySystem(
            n_sites=4,
            omega=1.0,
            coupling=0.05,
            left=ReservoirSpec(0.15, 0.5),
            right=ReservoirSpec(0.15, 0.0),
            atom=AtomSpec(dispersive_strength=0.1, sigma_z=-1.0, host_index=m),
        )

    assert construction_errors(array_with_host, 4) == []
    assert any("host cavity index" in msg for msg in construction_errors(array_with_host, 5))
    assert any("host cavity index" in msg for msg in construction_errors(array_with_host, 0))


@pytest.mark.parametrize("host_index", [2.5, 4.0, math.nan, True])
def test_array_host_site_must_be_an_integer(host_index):
    errors = construction_errors(
        ArraySystem, n_sites=4, omega=1.0, coupling=0.05, left=ReservoirSpec(0.15, 0.5),
        right=ReservoirSpec(0.15, 0.0), atom=AtomSpec(dispersive_strength=0.1, sigma_z=-1.0, host_index=host_index),
    )
    assert errors == [f"atom: host cavity index must be an integer (got {host_index!r})"]


def test_array_needs_two_sites():
    errors = construction_errors(
        ArraySystem, n_sites=1, omega=1.0, coupling=0.05, left=ReservoirSpec(0.1, 0.1), right=ReservoirSpec(0.1, 0.0)
    )
    assert any("at least 2" in msg for msg in errors)


@pytest.mark.parametrize("n_sites", [2.5, math.nan, math.inf, True])
def test_array_size_must_be_an_integer(n_sites):
    errors = construction_errors(
        ArraySystem, n_sites=n_sites, omega=1.0, coupling=0.05, left=ReservoirSpec(0.1, 0.1),
        right=ReservoirSpec(0.1, 0.0),
    )
    assert errors == [f"n_sites: must be an integer (got {n_sites})"]


def test_derived_quantities():
    system = two_cavity(omega_right=0.8, left=ReservoirSpec(0.1, 0.5), right=ReservoirSpec(0.03, 0.0))
    assert system.gamma == pytest.approx(0.065)
    assert system.detuning == pytest.approx(0.2)
    assert system.gamma > 0


def test_records_are_immutable():
    system = two_cavity()
    with pytest.raises(AttributeError):
        system.coupling = 0.1
    with pytest.raises(AttributeError):
        system.left.rate = 0.2



NON_FINITE = [math.nan, math.inf, -math.inf]

# each real-valued field of a two-cavity system, set to a given value
TWO_CAVITY_FIELDS = {
    "omega_left": lambda x: two_cavity(omega_left=x),
    "omega_right": lambda x: two_cavity(omega_right=x),
    "coupling": lambda x: two_cavity(coupling=x),
    "rate": lambda x: two_cavity(left=ReservoirSpec(rate=x, mean_occupation=0.5)),
    "mean_occupation": lambda x: two_cavity(right=ReservoirSpec(rate=0.064, mean_occupation=x)),
    "dispersive_strength": lambda x: two_cavity(atom=AtomSpec(dispersive_strength=x, sigma_z=1.0)),
    "sigma_z": lambda x: two_cavity(atom=AtomSpec(dispersive_strength=0.05, sigma_z=x)),
}


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", sorted(TWO_CAVITY_FIELDS))
def test_non_finite_two_cavity_field_rejected_once(field, bad):
    errors = construction_errors(TWO_CAVITY_FIELDS[field], bad)
    assert len(errors) == 1 and "must be finite" in errors[0]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["omega", "coupling"])
def test_non_finite_array_field_rejected_once(field, bad):
    system = ArraySystem(
        n_sites=3, omega=1.0, coupling=0.05, left=ReservoirSpec(0.1, 0.5), right=ReservoirSpec(0.1, 0.0)
    )
    errors = construction_errors(replace, system, **{field: bad})
    assert len(errors) == 1 and "must be finite" in errors[0]


@pytest.mark.parametrize(
    "sigma_z, expected",
    [(1.0, [(1.0, 1.0)]), (-1.0, [(1.0, -1.0)]), (0.2, [(0.6, 1.0), (0.4, -1.0)]), (0.0, [(0.5, 1.0), (0.5, -1.0)])],
)
def test_atomic_sectors_weights_and_order(sigma_z, expected):
    sectors = atomic_sectors(two_cavity(atom=AtomSpec(dispersive_strength=0.05, sigma_z=sigma_z)))
    assert [sign for _, sign in sectors] == [sign for _, sign in expected]
    assert [weight for weight, _ in sectors] == pytest.approx([weight for weight, _ in expected], abs=1e-15)
    assert sum(weight for weight, _ in sectors) == pytest.approx(1.0, abs=1e-15)


def test_atomic_sectors_without_an_atom():
    assert atomic_sectors(two_cavity(atom=None)) == [(1.0, 0.0)]
    chain = ArraySystem(
        n_sites=4, omega=1.0, coupling=0.02,
        left=ReservoirSpec(0.1, 0.5), right=ReservoirSpec(0.1, 0.0),
    )
    assert atomic_sectors(chain) == [(1.0, 0.0)]
    hosted = replace(chain, atom=AtomSpec(dispersive_strength=0.1, sigma_z=-0.5, host_index=4))
    assert atomic_sectors(hosted) == [(0.25, 1.0), (0.75, -1.0)]


def test_each_system_is_validated_once_when_built(monkeypatch):
    calls = []
    check = model.validation_errors
    monkeypatch.setattr(model, "validation_errors", lambda system: calls.append(system) or check(system))
    mixed = two_cavity(omega_right=1.1, atom=AtomSpec(dispersive_strength=0.3, sigma_z=0.2))
    ground = replace(mixed, atom=AtomSpec(dispersive_strength=0.3, sigma_z=-1.0))
    array = ArraySystem(
        n_sites=4, omega=1.0, coupling=0.05, left=ReservoirSpec(0.1, 0.5), right=ReservoirSpec(0.1, 0.0),
        atom=AtomSpec(dispersive_strength=0.2, sigma_z=0.5, host_index=4),
    )
    assert len(calls) == 3
    for pair in (mixed, ground):
        boundary_currents(pair, steady_state_matrix(pair))
    boundary_currents(array, steady_state_matrix(array))
    current_general(mixed)
    rectification(ground)
    oracle_currents(mixed, steady_rho(mixed, FockConfig(n_max=6, tail_bound=1e-3)))
    assert len(calls) == 3  # no solver checks a system again
    with pytest.raises(ValidationError, match="coupling"):
        replace(mixed, coupling=math.nan)


# --- pair grids -------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, values, message",
    [("chi", [0.0, 0.1, 0.5], "no atom: dispersive strength must be 0 (got 0.1)"),
     ("chi", [math.nan, 0.1], "no atom: dispersive strength must be finite (got nan)"),
     ("sigma_z", [0.0, 7.0], "no atom: sigma_z expectation must be 0 (got 7.0)")],
    ids=["chi", "nan-chi", "sigma_z"],
)
def test_a_grid_point_without_an_atom_holds_chi_and_sigma_z_at_zero(field, values, message):
    # chi at an atom-free point would shift the closed form's cavity but not the moment path's
    with pytest.raises(ValidationError) as err:
        PairGrid.sweep(two_cavity(atom=None, left=ReservoirSpec(0.05, 0.5), right=ReservoirSpec(0.05, 0.0)),
                       **{field: values})
    assert err.value.errors == [message]


def test_a_grid_of_systems_meets_the_atom_rules():
    systems = [two_cavity(), two_cavity(atom=None)]
    grid = PairGrid.from_systems(systems)
    assert model._grid_errors(grid) == []
    hosted = PairGrid.sweep(systems[1], chi=[0.0, 0.1], sigma_z=[0.0, -0.5], atom=[False, True])
    assert hosted.chi.tolist() == [0.0, 0.1]


@pytest.mark.parametrize("sigma_z", [math.nan, math.inf, -math.inf, 3.0, -1.5])
def test_sector_weights_reject_a_sigma_z_outside_the_unit_interval(sigma_z):
    with pytest.raises(ValueError, match=re.escape(f"sigma_z of point 1, which has an atom, must lie in [-1, 1] "
                                                   f"(got {sigma_z})")):
        sector_weights(np.array([0.5, sigma_z]), np.array([True, True]))


def test_a_two_dimensional_grid_and_an_unknown_system_type_are_refused():
    with pytest.raises(ValueError) as err:
        PairGrid.sweep(two_cavity(), chi=[[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
    assert str(err.value) == "a pair grid is one-dimensional, got shape (2, 3)"
    with pytest.raises(ValidationError) as err:
        validate(object())
    assert err.value.errors == ["unsupported system type object"]
