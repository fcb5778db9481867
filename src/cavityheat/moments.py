"""Transients of the moment equations of a cavity pair or a chain.

``evolve`` integrates G = [[F, S], [S, F]] in time as its two sector
equations, built by ``chain._sector_equations`` from the site vectors
(``model._sites``) that every steady solve reads, and stepped on
``chain._lyapunov``, the one statement of A C + C A+ + Q. A
``MomentTrajectory`` holds the stacks of F and S. The steady state, and the
currents of one system or of a whole sweep grid, are ``chain``'s
(``chain.steady_state_matrix``, ``chain.sweep_currents``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .chain import MomentMatrix, _lyapunov, _sector_equations
from .model import ArraySystem, SolverError, TwoCavitySystem, _sites

__all__ = [
    "MomentTrajectory",
    "evolve",
]


@dataclass(frozen=True)
class MomentTrajectory:
    """Fixed-step time evolution of the moment matrix, as the stacks of its two blocks."""

    times: np.ndarray  # shape (n+1,)
    field_block: np.ndarray  # F at each time, shape (n+1, N, N), complex
    sz_block: np.ndarray  # S at each time, shape (n+1, N, N), complex
    sigma_z: float

    @property
    def final(self) -> MomentMatrix:
        return MomentMatrix(self.field_block[-1], self.sz_block[-1], sigma_z=self.sigma_z)


def evolve(
    system: Union[TwoCavitySystem, ArraySystem],
    initial: MomentMatrix,
    t_final: float,
    dt: float,
) -> MomentTrajectory:
    """Fixed-step 4th-order integration of the moment equations of a pair or a chain.

    G = [[F, S], [S, F]] is integrated as its sectors X_s = (F + s S)/2, by
    dX_s/dt = A_s X_s + X_s A_s+ + p_s Q, and F = X_+ + X_-, S = X_+ - X_-;
    a ValueError is raised for an ``initial`` matrix of another size or
    sigma_z, for a t_final/dt that is not finite, and for a trajectory too
    large to index or allocate. The step count is
    t_final/dt rounded, so the trajectory ends at that multiple of dt. The
    conserved sigma_z is carried through unchanged. A warning is emitted when
    dt |b_i + conj(b_j)|, b the eigenvalues of A_s, reaches 0.1; a SolverError
    when a step leaves the finite range.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (dt <= t_final < math.inf and math.isfinite(t_final / dt)):
        raise ValueError(f"t_final must be finite and at least dt, t_final/dt a finite step count "
                         f"(got t_final={t_final}, dt={dt})")
    initial.check_system(system)
    # both sectors s = +-1, with p_s = (1 + s sz)/2 even where it is 0: (F, S) need not be a mixture
    sign = np.array([1.0, -1.0])
    a, q = _sector_equations(_sites(system), np.zeros(2, dtype=int), sign)
    q = 0.5 * (1.0 + sign * system.sigma_z)[:, None, None] * q
    b = np.linalg.eigvals(a)  # sector s relaxes with the eigenvalues b_i + conj(b_j) of its A_s
    spectral_bound = float(np.max(np.abs(b[:, :, None] + b.conj()[:, None, :])))
    if dt * spectral_bound >= 0.1:
        warnings.warn(
            f"dt * max|eigenvalue| = {dt * spectral_bound:.3g} >= 0.1; "
            "reduce the step for a faithful transient",
            stacklevel=2,
        )
    n_steps = max(1, int(round(t_final / dt)))
    try:
        field, sz_block = np.empty((2, n_steps + 1) + a.shape[1:], dtype=complex)
    except (ValueError, MemoryError) as exc:  # numpy's refusal of a shape it cannot index or hold
        raise ValueError(f"a trajectory of {n_steps + 1} states cannot be held (t_final={t_final}, dt={dt}): "
                         f"{exc}") from exc
    field[0], sz_block[0] = initial.field_block, initial.sz_block
    x = 0.5 * (field[0] + sign[:, None, None] * sz_block[0])  # X_s = (F + s S)/2
    for i in range(n_steps):
        # an overflow is caught below, the same whether or not numpy warnings are errors
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = _lyapunov(a, x, q)
            k2 = _lyapunov(a, x + 0.5 * dt * k1, q)
            k3 = _lyapunov(a, x + 0.5 * dt * k2, q)
            k4 = _lyapunov(a, x + dt * k3, q)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            field[i + 1], sz_block[i + 1] = x[0] + x[1], x[0] - x[1]
        if not (np.isfinite(field[i + 1]).all() and np.isfinite(sz_block[i + 1]).all()):
            raise SolverError(f"moment evolution left the finite range at step {i + 1} (t = {dt * (i + 1):.6g})")
    return MomentTrajectory(dt * np.arange(n_steps + 1), field, sz_block, initial.sigma_z)
