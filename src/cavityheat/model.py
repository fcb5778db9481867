"""Parameter records, unit conventions, and validation shared by all solvers.

Units: hbar = k_B = 1. The left-cavity frequency (two-cavity system) or the
common cavity frequency (array) is the reference; every other quantity is
naturally entered as a ratio against it. Reservoirs are specified by their
mean photon number directly; temperature entry is a convenience routed
through :func:`bose_occupation`.

All records are frozen dataclasses: immutable after construction, safe to
share across threads and reuse across parameter grids. ``TwoCavitySystem``
and ``ArraySystem`` are valid by construction: each runs :func:`validate`
when it is built, also by ``dataclasses.replace``, and raises
:class:`ValidationError` listing every violation, those of its reservoirs and
atom included. No solver checks a system again.

A sweep of cavity pairs is one ``PairGrid``: one float64 array per field,
checked by the same rules in one vectorised pass when it is built. Every
path reads a pair, a grid or a chain as one statement of the model, its
site vectors (``_sites``): the moment solves and the Fock oracle alike. Every
steady solve, moment or Fock oracle, passes ``_check_steady``, which alone
holds it to ``POSITIVITY_TOL`` and ``RESIDUAL_TOL``, relative bounds that
hold in any units. ``closedform``, ``chain`` and ``fockspace`` import this
module alone: it states every path's ``CurrentReport``, switch classification
and balance rule (``_report``), and the first-failure rule of every check (``_guard``).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "ValidationError",
    "SolverError",
    "REGIME_CONDUCTING",
    "REGIME_INSULATING",
    "REGIME_REVERSED",
    "CurrentReport",
    "bose_occupation",
    "ReservoirSpec",
    "AtomSpec",
    "TwoCavitySystem",
    "ArraySystem",
    "PairGrid",
    "sector_weights",
    "atomic_sectors",
    "validation_errors",
    "validate",
]


class ValidationError(ValueError):
    """A system violated one or more invariants; carries the full list."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SolverError(RuntimeError):
    """A steady-state solve failed (singular generator or residual breach).

    A batched solve sets ``index`` to the position of the failing system or
    matrix.
    """

    index: int | None = None


# normwise backward error (``_backward_error``) allowed of every steady solve,
# moment or oracle, about 45 eps: a backward-stable solve leaves a few eps
RESIDUAL_TOL = 1e-14
# smallest eigenvalue of a sector covariance or of the excitation blocks of a
# sector density matrix, relative to its largest, that counts as semidefinite
POSITIVITY_TOL = 1e-10


def _backward_error(residual, norm_a, norm_c, norm_q):
    """Normwise backward error ||R|| / (2 ||A|| ||C|| + ||Q||) of a solution C of
    A C + C A+ + Q = 0 with residual R (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 16): the residual against the size of
    the terms it is summed from, so a backward-stable solve leaves a few eps
    whatever ||A|| / ||Q|| is or the units are. With a zero denominator it is ||R||."""
    denominator = 2.0 * norm_a * norm_c + norm_q
    return np.divide(residual, denominator, out=np.array(residual, dtype=float), where=denominator > 0)


def _guard(ok: np.ndarray, message: str, error: type = SolverError, **values: np.ndarray) -> None:
    """Raise ``error`` with ``index`` at the first entry failing ``ok``, ``message`` formatted by ``values`` there."""
    failed = np.flatnonzero(~np.asarray(ok))
    if failed.size:
        k = int(failed[0])
        exc = error(message.format(index=k, **{name: np.asarray(v)[k].item() for name, v in values.items()}))
        exc.index = k
        raise exc


def _check_steady(eigenvalues: np.ndarray, residual: np.ndarray, state: str) -> np.ndarray:
    """The rules of every steady solve, on K solutions: each positivity margin,
    its smallest eigenvalue (K, m) over their largest magnitude (0 if all
    vanish), within -POSITIVITY_TOL, then each backward error ``residual`` (K,)
    within RESIDUAL_TOL (a NaN fails). Returns the margins; a SolverError
    names the ``state``."""
    scale = np.max(np.abs(eigenvalues), axis=1)
    margin = np.divide(np.min(eigenvalues, axis=1), scale, out=np.zeros(len(scale)), where=scale > 0)
    _guard(margin >= -POSITIVITY_TOL, f"{state} is not positive semidefinite (relative eigenvalue {{margin:.3e}})",
           margin=margin)
    _guard(residual <= RESIDUAL_TOL, f"sector steady-state residual {{residual:.3e}} exceeds {RESIDUAL_TOL}",
           residual=residual)
    return margin


REGIME_CONDUCTING = "conducting"
REGIME_INSULATING = "insulating"
REGIME_REVERSED = "reversed"

# |I_L| below this (in units of omega_left**2) tags a report as insulating.
ZERO_CURRENT_TOL = 1e-12


@dataclass(frozen=True)
class CurrentReport:
    """Steady-state currents and their decomposition; for a grid, each field
    is an array over its points (``alpha`` and ``regime`` of dtype object).

    ``i_left`` (``i_right``) is the energy flow from the left (right)
    reservoir into the system; in steady state they sum to zero.
    ``i_occupation`` is the contribution of the reservoir/cavity occupation
    imbalance and ``i_coherence`` the contribution of the inter-cavity
    coherence, normalised so that i_left = Gamma_L * (i_occupation -
    i_coherence). ``alpha`` and ``regime`` are populated when the switch
    classification applies (hot left reservoir; alpha additionally needs an
    atom with chi > omega_right and sigma_z = +-1).
    """

    i_left: float | np.ndarray
    i_right: float | np.ndarray
    i_occupation: float | np.ndarray
    i_coherence: float | np.ndarray
    alpha: float | np.ndarray | None = None
    regime: str | np.ndarray | None = None


def _scalars(system, *arrays) -> tuple:
    """The arrays as they are for a grid; for one pair or chain, their one entry each, as a Python scalar."""
    if isinstance(system, PairGrid):
        return arrays
    return tuple(np.asarray(values).tolist()[0] for values in arrays)


def _alpha(p: PairGrid) -> np.ndarray:
    """The switch parameter alpha = (Gamma_R / Gamma_L) / ((chi - omega_R) / omega_L)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p.right_rate / p.left_rate) / ((p.chi - p.omega_right) / p.omega_left)


def _classification(p: PairGrid, i_left: np.ndarray) -> tuple:
    """Regime tag of each point of a grid from the sign of its current, and
    alpha where it is defined, as object arrays; both are None where the left
    reservoir is not the hotter one, where the tag has no meaning."""
    sign_tag = np.where(i_left > 0, REGIME_CONDUCTING, REGIME_REVERSED)
    tag = np.where(np.abs(i_left) < ZERO_CURRENT_TOL * p.omega_left**2, REGIME_INSULATING, sign_tag)
    hot = p.left_occupation > p.right_occupation
    definite = (p.sigma_z == 1.0) | (p.sigma_z == -1.0)
    alpha = np.where(hot & p.atom & definite & (p.chi > p.omega_right), _alpha(p), None)
    return alpha, np.where(hot, tag, None)


def _report(system, stack, i_left, i_right, i_occupation, i_coherence, scale, state: str, stacklevel: int,
            floor=0.0) -> CurrentReport:
    """The CurrentReport of the (M,) currents of ``stack`` = ``_stack(system)``, scalars for one pair or chain;
    pairs are classified. Unless |I_L + I_R| <= 1e-10 T + ``floor`` (a NaN fails), T the ``scale``, the summed
    magnitudes of the terms of I_L and I_R, the ``state`` is not steady: it warns ``stacklevel`` frames up."""
    imbalance = np.abs(i_left + i_right)
    bad = np.flatnonzero(~(imbalance <= 1e-10 * scale + floor))
    if bad.size:
        warnings.warn(f"boundary currents do not balance (|I_L + I_R| = {imbalance[bad[0]]:.3e} for system "
                      f"{bad[0]}); the {state} is not a steady state", stacklevel=stacklevel + 1)
    alpha, regime = _classification(stack, i_left) if isinstance(stack, PairGrid) else (np.full(1, None),) * 2
    return CurrentReport(*_scalars(system, i_left, i_right, i_occupation, i_coherence, alpha, regime))


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean thermal photon number 1/(exp(omega/T) - 1); zero at T = 0.

    Raises ValueError for a non-finite or out-of-domain input, and when
    omega/T is so small that the occupation is not a finite double.
    """
    if not 0 < omega < math.inf:
        raise ValueError(f"omega (frequency) must be positive and finite, got {omega}")
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be non-negative and finite, got {temperature}")
    if temperature == 0:
        return 0.0
    x = omega / temperature
    if x > 700.0:
        # occupation underflows double precision well before exp overflows
        return 0.0
    # 1/expm1(x) ~ 1/x overflows for a subnormal x, and x = 0 when the ratio underflows
    occupation = 1.0 / math.expm1(x) if x > 0 else math.inf
    if occupation == math.inf:
        raise ValueError(
            f"omega/temperature underflows at omega={omega}, temperature={temperature}: "
            "the thermal occupation is not finite"
        )
    return occupation


@dataclass(frozen=True)
class ReservoirSpec:
    """Thermal reservoir attached to one boundary cavity."""

    rate: float  # coupling rate Gamma, in units of the reference frequency
    mean_occupation: float  # nbar >= 0

    @classmethod
    def from_temperature(cls, rate: float, frequency: float, temperature: float) -> "ReservoirSpec":
        return cls(rate=rate, mean_occupation=bose_occupation(frequency, temperature))


@dataclass(frozen=True)
class AtomSpec:
    """Two-level atom dispersively coupled to its host cavity.

    The dispersive interaction shifts the host cavity frequency by
    +/- dispersive_strength depending on the atomic state and conserves the
    atomic population, so sigma_z acts as an external dial in [-1, 1]. The
    two switch settings of interest are exactly +1 (excited) and -1 (ground).
    """

    dispersive_strength: float  # chi >= 0
    sigma_z: float  # population inversion expectation value
    host_index: int = 2  # 1-based site index; the right cavity of a pair


@dataclass(frozen=True)
class TwoCavitySystem:
    """Two linearly coupled cavities, each damped by its own reservoir."""

    omega_left: float
    omega_right: float
    coupling: float  # photon hopping J
    left: ReservoirSpec
    right: ReservoirSpec
    atom: AtomSpec | None = None  # hosted by the right cavity when present

    def __post_init__(self):
        # the module global, looked up per call: a wrapper bound to model.validate sees every check
        validate(self)

    @property
    def gamma(self) -> float:
        """Mean damping rate (Gamma_L + Gamma_R) / 2."""
        return 0.5 * (self.left.rate + self.right.rate)

    @property
    def detuning(self) -> float:
        """Bare cavity detuning omega_left - omega_right."""
        return self.omega_left - self.omega_right

    @property
    def chi(self) -> float:
        return self.atom.dispersive_strength if self.atom is not None else 0.0

    @property
    def sigma_z(self) -> float:
        return self.atom.sigma_z if self.atom is not None else 0.0


@dataclass(frozen=True)
class ArraySystem:
    """Uniform chain of cavities; reservoirs drive sites 1 and N only."""

    n_sites: int
    omega: float
    coupling: float
    left: ReservoirSpec
    right: ReservoirSpec
    atom: AtomSpec | None = None

    def __post_init__(self):
        validate(self)

    @property
    def chi(self) -> float:
        return self.atom.dispersive_strength if self.atom is not None else 0.0

    @property
    def sigma_z(self) -> float:
        return self.atom.sigma_z if self.atom is not None else 0.0


@dataclass(frozen=True, eq=False)
class PairGrid:
    """Cavity pairs at the M points of a parameter grid, one float64 array of
    shape (M,) per field; ``atom`` marks the points whose right cavity hosts
    an atom (chi and sigma_z must be 0 where it does not).

    Valid by construction, like ``TwoCavitySystem``: the fields are checked
    in one vectorised pass when the grid is built, by the rules of
    ``validation_errors``. A ValidationError lists the violations of the
    first failing point, exactly as ``validate`` lists them for that point's
    pair. The arrays are read-only; a scalar field is broadcast over the grid.
    """

    omega_left: np.ndarray
    omega_right: np.ndarray
    coupling: np.ndarray
    left_rate: np.ndarray
    left_occupation: np.ndarray
    right_rate: np.ndarray
    right_occupation: np.ndarray
    chi: np.ndarray
    sigma_z: np.ndarray
    atom: np.ndarray  # bool

    def __post_init__(self):
        self._store_arrays()
        errs = _grid_errors(self)
        if errs:
            raise ValidationError(errs)

    def _store_arrays(self) -> None:
        """Replace every field by a read-only array of the grid's shape."""
        names = [field.name for field in fields(self)]
        values = [np.array(getattr(self, name), dtype=bool if name == "atom" else float) for name in names]
        shape = np.broadcast_shapes((1,), *(value.shape for value in values))
        if len(shape) != 1:
            raise ValueError(f"a pair grid is one-dimensional, got shape {shape}")
        for name, value in zip(names, values):
            value = value if value.shape == shape else np.broadcast_to(value, shape)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_systems(cls, systems: Sequence[TwoCavitySystem]) -> "PairGrid":
        """The grid of a list of pairs, point k being systems[k]. Each pair was
        checked when it was built, so the grid is not checked again."""
        grid = cls.__new__(cls)
        points = [{**_values(s), "chi": s.chi, "sigma_z": s.sigma_z, "atom": s.atom is not None} for s in systems]
        for name in cls.__dataclass_fields__:
            object.__setattr__(grid, name, [point[name] for point in points])
        grid._store_arrays()
        return grid

    @classmethod
    def sweep(cls, base: TwoCavitySystem, **arrays) -> "PairGrid":
        """The pair ``base`` at every point, with the named fields taken from ``arrays``."""
        return replace(cls.from_systems([base]), **arrays)

    def __len__(self) -> int:
        return self.omega_left.shape[0]

    @property
    def gamma(self) -> np.ndarray:
        """Mean damping rate (Gamma_L + Gamma_R) / 2."""
        return 0.5 * (self.left_rate + self.right_rate)

    @property
    def detuning(self) -> np.ndarray:
        """Bare cavity detuning omega_left - omega_right."""
        return self.omega_left - self.omega_right


class _Sites(NamedTuple):
    """A stack of M chains of one size N as site vectors: the model, stated once for every path."""

    onsite: np.ndarray  # (M, N) cavity frequencies
    coupling: np.ndarray  # (M,) hopping J between neighbouring sites
    shift: np.ndarray  # (M, N) atom shift: chi at the host site, 0 elsewhere
    rates: np.ndarray  # (M, 2) rates of the reservoirs at sites 1 and N
    nbar: np.ndarray  # (M, 2) their mean occupations
    sigma_z: np.ndarray  # (M,)
    atom: np.ndarray  # (M,) bool


def _sites(stack: Union[PairGrid, ArraySystem]) -> _Sites:
    """The site vectors of a grid of pairs, or of one chain as a stack of one.
    A cavity pair is the N = 2 chain with on-site frequencies omega_L,
    omega_R and the atom on site 2."""
    if isinstance(stack, PairGrid):
        onsite = np.stack([stack.omega_left, stack.omega_right], axis=1)
        host = np.ones(len(stack), dtype=int)
        coupling, chi, sigma_z, atom = stack.coupling, stack.chi, stack.sigma_z, stack.atom
        rates = np.stack([stack.left_rate, stack.right_rate], axis=1)
        nbar = np.stack([stack.left_occupation, stack.right_occupation], axis=1)
    else:
        onsite = np.full((1, stack.n_sites), stack.omega)
        host = np.array([stack.atom.host_index - 1 if stack.atom is not None else 0])
        coupling, chi, sigma_z = (np.array([getattr(stack, name)]) for name in ("coupling", "chi", "sigma_z"))
        atom = np.array([stack.atom is not None])
        rates = np.array([[stack.left.rate, stack.right.rate]])
        nbar = np.array([[stack.left.mean_occupation, stack.right.mean_occupation]])
    shift = np.zeros(onsite.shape)
    shift[np.arange(len(shift)), host] = chi
    return _Sites(onsite, coupling, shift, rates, nbar, sigma_z, atom)


def _stack(system: Union[TwoCavitySystem, ArraySystem]) -> Union[PairGrid, ArraySystem]:
    """A pair as a grid of one; a chain as it is."""
    return PairGrid.from_systems([system]) if isinstance(system, TwoCavitySystem) else system


def sector_weights(sigma_z: np.ndarray, atom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, s) of the two atomic sectors of each point, as (M, 2) arrays: the
    weights p = (1 + s sigma_z)/2 of s = +1, then s = -1, where ``atom`` is
    set; (1, 0) and (0, 0), one atom-free sector, where it is not. A
    ValueError names the first sigma_z outside [-1, 1] (NaN included) at a
    point with an atom."""
    _guard(~(atom & ~_unit_interval(sigma_z)), "sigma_z of point {index}, which has an atom, must lie in [-1, 1] "
           "(got {sigma_z})", ValueError, sigma_z=sigma_z)
    atom = atom[:, None]
    sign = np.where(atom, [1.0, -1.0], 0.0)
    weight = np.where(atom, 0.5 * (1.0 + sign * sigma_z[:, None]), [1.0, 0.0])
    return weight, sign


def atomic_sectors(system: Union[TwoCavitySystem, ArraySystem]) -> list[tuple[float, float]]:
    """(p_s, s) of each atomic sector with non-zero weight: s = +1, then s = -1.

    The dispersive coupling conserves the atomic population, so every steady
    quantity is the mixture, with weights p_s = (1 + s sigma_z)/2, of two
    atom-free sectors in which the host cavity is shifted by s chi. Without
    an atom there is one sector, (1.0, 0.0).
    """
    weight, sign = sector_weights(np.array([system.sigma_z]), np.array([system.atom is not None]))
    return [(p, s) for p, s in zip(weight[0].tolist(), sign[0].tolist()) if p > 0.0]


def _check(errs: list[str], label: str, value: float, ok, requirement: str) -> None:
    """Append one message when ``value`` is NaN or infinite, or fails ``ok``."""
    if not math.isfinite(value):
        errs.append(f"{label} must be finite (got {value})")
    elif not ok(value):
        errs.append(f"{label} {requirement} (got {value})")


def _positive(value):
    return value > 0


def _non_negative(value):
    return value >= 0


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _zero(value):
    return value == 0


def _unit_interval(value):
    return (-1.0 <= value) & (value <= 1.0)


# (label, field, ok, requirement) of each real field, in the order in which
# validation_errors reports them; ok takes a float or an array
_RESERVOIR_RULES = tuple(
    rule
    for side in ("left", "right")
    for rule in (
        (f"{side} reservoir: rate", f"{side}_rate", _positive, "must be positive"),
        (f"{side} reservoir: mean occupation", f"{side}_occupation", _non_negative, "must be non-negative"),
    )
)
_PAIR_RULES = (
    ("omega_left: frequency", "omega_left", _positive, "must be positive"),
    ("omega_right: frequency", "omega_right", _positive, "must be positive"),
    ("coupling:", "coupling", _non_negative, "must be non-negative"),
) + _RESERVOIR_RULES
_CHAIN_RULES = (
    ("omega: frequency", "omega", _positive, "must be positive"),
    ("coupling:", "coupling", _non_negative, "must be non-negative"),
) + _RESERVOIR_RULES
_ATOM_RULES = (
    ("atom: dispersive strength", "chi", _non_negative, "must be non-negative"),
    ("atom: sigma_z expectation", "sigma_z", _unit_interval, "must lie in [-1, 1]"),
)
# a grid point without an atom holds chi = sigma_z = 0, as a pair without one reads them
_ATOM_FREE_RULES = (
    ("no atom: dispersive strength", "chi", _zero, "must be 0"),
    ("no atom: sigma_z expectation", "sigma_z", _zero, "must be 0"),
)


def _rule_errors(rules, values: dict) -> list[str]:
    errs: list[str] = []
    for label, field, ok, requirement in rules:
        _check(errs, label, values[field], ok, requirement)
    return errs


def _values(system: Union[TwoCavitySystem, ArraySystem]) -> dict:
    """The real fields of a system, named as in the rules."""
    values = {
        "coupling": system.coupling,
        "left_rate": system.left.rate, "left_occupation": system.left.mean_occupation,
        "right_rate": system.right.rate, "right_occupation": system.right.mean_occupation,
    }
    if isinstance(system, TwoCavitySystem):
        values.update(omega_left=system.omega_left, omega_right=system.omega_right)
    else:
        values["omega"] = system.omega
    if system.atom is not None:
        values.update(chi=system.atom.dispersive_strength, sigma_z=system.atom.sigma_z)
    return values


def _atom_errors(atom: AtomSpec, n_sites: int, values: dict) -> list[str]:
    errs = _rule_errors(_ATOM_RULES, values)
    if not _is_integer(atom.host_index):
        errs.append(f"atom: host cavity index must be an integer (got {atom.host_index!r})")
    elif not 1 <= atom.host_index <= n_sites:
        errs.append(f"atom: host cavity index must lie in [1, {n_sites}] (got {atom.host_index})")
    return errs


def _grid_errors(grid: PairGrid) -> list[str]:
    """The messages of ``validation_errors`` for the first point of a grid that
    breaks a rule; empty when every point is valid."""
    bad = np.zeros(len(grid), dtype=bool)
    for rules, where in ((_PAIR_RULES, True), (_ATOM_RULES, grid.atom), (_ATOM_FREE_RULES, ~grid.atom)):
        for _, field, ok, _ in rules:
            value = getattr(grid, field)
            bad |= where & ~(np.isfinite(value) & ok(value))
    if not bad.any():
        return []
    k = int(np.argmax(bad))
    values = {field: getattr(grid, field)[k].item() for field in grid.__dataclass_fields__}
    return _rule_errors(_PAIR_RULES + (_ATOM_RULES if grid.atom[k] else _ATOM_FREE_RULES), values)


def validation_errors(system: Union[TwoCavitySystem, ArraySystem]) -> list[str]:
    """Collect every invariant violation; empty list means the system is valid.

    Every real-valued field must be finite; a NaN or an infinity is reported
    as such, once per field.
    """
    errs: list[str] = []
    if isinstance(system, TwoCavitySystem):
        values = _values(system)
        errs += _rule_errors(_PAIR_RULES, values)
        if system.atom is not None:
            errs += _atom_errors(system.atom, 2, values)
            if system.atom.host_index != 2:
                errs.append("atom: the two-cavity system hosts the atom in the right cavity (index 2)")
    elif isinstance(system, ArraySystem):
        if not _is_integer(system.n_sites):
            errs.append(f"n_sites: must be an integer (got {system.n_sites})")
        elif system.n_sites < 2:
            errs.append(f"n_sites: need at least 2 cavities (got {system.n_sites})")
        values = _values(system)
        errs += _rule_errors(_CHAIN_RULES, values)
        if system.atom is not None:
            errs += _atom_errors(system.atom, system.n_sites, values)
    else:
        errs.append(f"unsupported system type {type(system).__name__}")
    return errs


def validate(system: Union[TwoCavitySystem, ArraySystem]):
    """Return the system unchanged, or raise ValidationError listing every
    violation; each system runs it once, when it is built."""
    errs = validation_errors(system)
    if errs:
        raise ValidationError(errs)
    return system
