"""Exact solver for the closed two-cavity moment equations.

The eight second-order moments listed below close under the dynamics because
the atomic population operator commutes with the full generator: there is no
truncation, so this path agrees with the density-matrix oracle up to Fock
truncation error only.

Moment ordering of the 8-vector:

    0  <a_L+ a_L>       4  <a_L+ a_L sz>
    1  <a_R+ a_R>       5  <a_R+ a_R sz>
    2  <a_L+ a_R>       6  <a_L+ a_R sz>
    3  <a_L  a_R+>      7  <a_L  a_R+ sz>

Entries 0, 1, 4, 5 are real and entries 3, 7 are the conjugates of 2, 6 for
any physical state; the generator is kept complex throughout and those
properties are asserted after the solve rather than baked in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .closedform import CurrentReport, _classification
from .model import SolverError, TwoCavitySystem, validate

__all__ = [
    "MomentVector",
    "MomentTrajectory",
    "generator_matrix",
    "steady_state",
    "steady_residual",
    "evolve",
    "currents_from_moments",
]

# relative residual bound for the direct linear solve
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class MomentVector:
    """The eight closed field moments plus the conserved atomic population."""

    values: np.ndarray  # shape (8,), complex
    sigma_z: float = 0.0
    residual: float | None = None  # relative residual of the solve that produced it, if any

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        if arr.shape != (8,):
            raise ValueError(f"moment vector must have 8 entries, got shape {arr.shape}")
        object.__setattr__(self, "values", arr)

    @classmethod
    def zero(cls, sigma_z: float = 0.0) -> "MomentVector":
        """Vacuum-aligned initial state: every field moment zero."""
        return cls(values=np.zeros(8, dtype=complex), sigma_z=sigma_z)

    @property
    def n_left(self) -> float:
        return self.values[0].real

    @property
    def n_right(self) -> float:
        return self.values[1].real

    @property
    def coherence(self) -> complex:
        return self.values[2]


@dataclass(frozen=True)
class MomentTrajectory:
    """Fixed-step time evolution of the moment vector."""

    times: np.ndarray  # shape (n+1,)
    values: np.ndarray  # shape (n+1, 8), complex
    sigma_z: float

    @property
    def final(self) -> MomentVector:
        return MomentVector(values=self.values[-1], sigma_z=self.sigma_z)


def generator_matrix(system: TwoCavitySystem) -> tuple[np.ndarray, np.ndarray]:
    """Affine generator (A, b) of the moment dynamics d<v>/dt = A <v> + b."""
    validate(system)
    gl, gr = system.left.rate, system.right.rate
    nl, nr = system.left.mean_occupation, system.right.mean_occupation
    j, chi, dc, g, sz = system.coupling, system.chi, system.detuning, system.gamma, system.sigma_z

    a = np.zeros((8, 8), dtype=complex)
    b = np.zeros(8, dtype=complex)

    # occupations: hopping exchange against the coherences, damping, drive
    a[0, 2], a[0, 3], a[0, 0] = -1j * j, 1j * j, -gl
    b[0] = gl * nl
    a[1, 2], a[1, 3], a[1, 1] = 1j * j, -1j * j, -gr
    b[1] = gr * nr
    # coherences: free rotation at the detuning, hopping against the
    # occupation imbalance, atom-shift coupling into the sz sector
    a[2, 2] = 1j * dc - g
    a[2, 0], a[2, 1], a[2, 6] = -1j * j, 1j * j, -1j * chi
    a[3, 3] = -1j * dc - g
    a[3, 0], a[3, 1], a[3, 7] = 1j * j, -1j * j, 1j * chi
    # sz-weighted copies: identical structure, drive scaled by <sz>
    a[4, 6], a[4, 7], a[4, 4] = -1j * j, 1j * j, -gl
    b[4] = gl * nl * sz
    a[5, 6], a[5, 7], a[5, 5] = 1j * j, -1j * j, -gr
    b[5] = gr * nr * sz
    a[6, 6] = 1j * dc - g
    a[6, 4], a[6, 5], a[6, 2] = -1j * j, 1j * j, -1j * chi
    a[7, 7] = -1j * dc - g
    a[7, 4], a[7, 5], a[7, 3] = 1j * j, -1j * j, 1j * chi
    return a, b


def _residual(a: np.ndarray, b: np.ndarray, values: np.ndarray) -> float:
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return float(np.linalg.norm(a @ values))
    return float(np.linalg.norm(a @ values + b) / norm_b)


def steady_state(system: TwoCavitySystem) -> MomentVector:
    """Direct dense solve of A <v> = -b; the result carries its residual."""
    a, b = generator_matrix(system)
    try:
        v = np.linalg.solve(a, -b)
    except np.linalg.LinAlgError as exc:
        raise SolverError("no unique steady state: moment generator is singular") from exc
    residual = _residual(a, b, v)
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return MomentVector(values=v, sigma_z=system.sigma_z, residual=residual)


def steady_residual(system: TwoCavitySystem, v: MomentVector) -> float:
    """Relative residual ||A v + b|| / ||b|| of a candidate steady state."""
    a, b = generator_matrix(system)
    return _residual(a, b, v.values)


def evolve(
    system: TwoCavitySystem,
    initial: MomentVector,
    t_final: float,
    dt: float,
) -> MomentTrajectory:
    """Fixed-step 4th-order integration of the affine moment dynamics.

    The step count is t_final/dt rounded to the nearest integer, so the
    trajectory ends at that multiple of dt. The conserved sigma_z is carried
    through unchanged.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final < dt:
        raise ValueError(f"t_final must be at least dt (got t_final={t_final}, dt={dt})")
    a, b = generator_matrix(system)
    spectral_bound = float(np.max(np.abs(np.linalg.eigvals(a))))
    if dt * spectral_bound >= 0.1:
        warnings.warn(
            f"dt * max|eigenvalue| = {dt * spectral_bound:.3g} >= 0.1; "
            "reduce the step for a faithful transient",
            stacklevel=2,
        )
    n_steps = max(1, int(round(t_final / dt)))
    out = np.empty((n_steps + 1, 8), dtype=complex)
    out[0] = initial.values
    v = initial.values.copy()
    for i in range(n_steps):
        k1 = a @ v + b
        k2 = a @ (v + 0.5 * dt * k1) + b
        k3 = a @ (v + 0.5 * dt * k2) + b
        k4 = a @ (v + dt * k3) + b
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = v
    times = dt * np.arange(n_steps + 1)
    return MomentTrajectory(times=times, values=out, sigma_z=initial.sigma_z)


def currents_from_moments(system: TwoCavitySystem, v: MomentVector) -> CurrentReport:
    """Currents evaluated on a steady moment vector.

    The right cavity's frequency is omega_right + s * chi in atomic sector
    s = +-1, so its occupation term mixes the sectors as
    omega_right <n_R> + chi <n_R sz> (moment slot 5), exact for any sigma_z. A warning
    is emitted when the two boundary currents fail to balance, which signals
    a non-steady input vector.
    """
    validate(system)
    gl, gr = system.left.rate, system.right.rate
    wl, wr = system.omega_left, system.omega_right
    i_occ = (system.left.mean_occupation - v.values[0].real) * wl
    i_coh = 0.5 * system.coupling * (v.values[2] + v.values[3]).real
    i_left = gl * (i_occ - i_coh)
    nr = system.right.mean_occupation
    i_right_occ = nr * (wr + v.sigma_z * system.chi) - (wr * v.values[1].real + system.chi * v.values[5].real)
    i_right = gr * (i_right_occ - i_coh)
    imbalance = abs(i_left + i_right)
    scale = wl**2
    if imbalance > max(1e-10 * abs(i_left), 1e-10 * scale):
        warnings.warn(
            f"boundary currents do not balance (|I_L + I_R| = {imbalance:.3e}); "
            "the moment vector is not a steady state",
            stacklevel=2,
        )
    alpha, regime = _classification(system, i_left)
    return CurrentReport(
        i_left=i_left,
        i_right=i_right,
        i_occupation=i_occ,
        i_coherence=i_coh,
        alpha=alpha,
        regime=regime,
    )
