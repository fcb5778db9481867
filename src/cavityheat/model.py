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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "ValidationError",
    "SolverError",
    "bose_occupation",
    "ReservoirSpec",
    "AtomSpec",
    "TwoCavitySystem",
    "ArraySystem",
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
    transition_frequency: float = 0.0  # additive constant per sector; no effect on currents


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


def atomic_sectors(system: Union[TwoCavitySystem, ArraySystem]) -> list[tuple[float, float]]:
    """(p_s, s) of each atomic sector with non-zero weight: s = +1, then s = -1.

    The dispersive coupling conserves the atomic population, so every steady
    quantity is the mixture, with weights p_s = (1 + s sigma_z)/2, of two
    atom-free sectors in which the host cavity is shifted by s chi. Without
    an atom there is one sector, (1.0, 0.0).
    """
    if system.atom is None:
        return [(1.0, 0.0)]
    weighted = ((0.5 * (1.0 + sign * system.sigma_z), sign) for sign in (1.0, -1.0))
    return [(weight, sign) for weight, sign in weighted if weight > 0.0]


def _check(errs: list[str], label: str, value: float, ok, requirement: str) -> None:
    """Append one message when ``value`` is NaN or infinite, or fails ``ok``."""
    if not math.isfinite(value):
        errs.append(f"{label} must be finite (got {value})")
    elif not ok(value):
        errs.append(f"{label} {requirement} (got {value})")


def _positive(value: float) -> bool:
    return value > 0


def _non_negative(value: float) -> bool:
    return value >= 0


def _reservoir_errors(res: ReservoirSpec, name: str) -> list[str]:
    errs: list[str] = []
    _check(errs, f"{name} reservoir: rate", res.rate, _positive, "must be positive")
    _check(errs, f"{name} reservoir: mean occupation", res.mean_occupation, _non_negative, "must be non-negative")
    return errs


def _atom_errors(atom: AtomSpec, n_sites: int) -> list[str]:
    errs: list[str] = []
    _check(errs, "atom: dispersive strength", atom.dispersive_strength, _non_negative, "must be non-negative")
    _check(errs, "atom: sigma_z expectation", atom.sigma_z, lambda v: -1.0 <= v <= 1.0, "must lie in [-1, 1]")
    if not math.isfinite(atom.transition_frequency):
        errs.append(f"atom: transition frequency must be finite (got {atom.transition_frequency})")
    if not 1 <= atom.host_index <= n_sites:
        errs.append(f"atom: host cavity index must lie in [1, {n_sites}] (got {atom.host_index})")
    return errs


def validation_errors(system: Union[TwoCavitySystem, ArraySystem]) -> list[str]:
    """Collect every invariant violation; empty list means the system is valid.

    Every real-valued field must be finite; a NaN or an infinity is reported
    as such, once per field.
    """
    errs: list[str] = []
    if isinstance(system, TwoCavitySystem):
        _check(errs, "omega_left: frequency", system.omega_left, _positive, "must be positive")
        _check(errs, "omega_right: frequency", system.omega_right, _positive, "must be positive")
        _check(errs, "coupling:", system.coupling, _non_negative, "must be non-negative")
        errs += _reservoir_errors(system.left, "left")
        errs += _reservoir_errors(system.right, "right")
        if system.atom is not None:
            errs += _atom_errors(system.atom, 2)
            if system.atom.host_index != 2:
                errs.append("atom: the two-cavity system hosts the atom in the right cavity (index 2)")
    elif isinstance(system, ArraySystem):
        if system.n_sites < 2:
            errs.append(f"n_sites: need at least 2 cavities (got {system.n_sites})")
        _check(errs, "omega: frequency", system.omega, _positive, "must be positive")
        _check(errs, "coupling:", system.coupling, _non_negative, "must be non-negative")
        errs += _reservoir_errors(system.left, "left")
        errs += _reservoir_errors(system.right, "right")
        if system.atom is not None:
            errs += _atom_errors(system.atom, system.n_sites)
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
