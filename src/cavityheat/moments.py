"""Sweep grids and transients of the two-cavity moment equations.

The pair is the N = 2 chain of ``chain``, read from the site vectors
(``model._sites``) that every chain and the Fock oracle are read from; one
pair is solved as any chain (``chain.steady_state_matrix``). A sweep is one
``model.PairGrid``: ``sweep_currents`` solves the whole grid as one stack of
sector equations (``chain.sector_covariances``, which takes the eigenvalues
of each 2 x 2 sector in closed form) and returns its currents
(``chain._currents``) as arrays, with the largest backward error of each
point's sector equations. ``evolve`` integrates G = [[F, S], [S, F]] in time
as its two sector equations (``chain._lyapunov``), and a ``MomentTrajectory``
holds the stacks of F and S; its step warning reads the sector decay
exponents from the same closed form (``chain._pair_exponents``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import MomentMatrix
from .closedform import CurrentReport
from .model import PairGrid, SolverError, TwoCavitySystem

__all__ = [
    "MomentTrajectory",
    "sweep_currents",
    "evolve",
]

@dataclass(frozen=True)
class MomentTrajectory:
    """Fixed-step time evolution of the moment matrix, as the stacks of its two blocks."""

    times: np.ndarray  # shape (n+1,)
    field_block: np.ndarray  # F at each time, shape (n+1, 2, 2), complex
    sz_block: np.ndarray  # S at each time, shape (n+1, 2, 2), complex
    sigma_z: float

    @property
    def final(self) -> MomentMatrix:
        return MomentMatrix(self.field_block[-1], self.sz_block[-1], sigma_z=self.sigma_z)


def sweep_currents(grid: PairGrid) -> tuple[CurrentReport, np.ndarray]:
    """Currents of every point of a pair grid, from one stack solve: one
    CurrentReport of arrays, and the backward error of each point.

    The arrays equal, point by point and bit for bit, the currents of
    ``chain.boundary_currents`` on ``chain.steady_state_matrix`` of that point
    alone. A SolverError carries in ``index`` the failing point.
    """
    sites = chain._sites(grid)
    f, s, residuals, _ = chain._mixture(sites)
    return chain._currents(grid, sites, f, s), residuals


def evolve(
    system: TwoCavitySystem,
    initial: MomentMatrix,
    t_final: float,
    dt: float,
) -> MomentTrajectory:
    """Fixed-step 4th-order integration of the moment equations of motion.

    G = [[F, S], [S, F]] is integrated as its sectors X_s = (F + s S)/2, by
    dX_s/dt = A_s X_s + X_s A_s+ + p_s Q, and F = X_+ + X_-, S = X_+ - X_-;
    a ValueError is raised for an ``initial`` matrix of another size or
    sigma_z. The step count is t_final/dt rounded to the nearest integer, so
    the trajectory ends at that multiple of dt. The conserved sigma_z is
    carried through unchanged. A SolverError is raised when a step leaves the
    finite range.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not dt <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and at least dt (got t_final={t_final}, dt={dt})")
    initial.check_system(system)
    # both sectors s = +-1, with p_s = (1 + s sz)/2 even where it is 0: (F, S) need not be a mixture
    sign = np.array([1.0, -1.0])
    a, q = chain._sector_equations(chain._sites(chain._stack(system)), np.zeros(2, dtype=int), sign)
    q = 0.5 * (1.0 + sign * system.sigma_z)[:, None, None] * q
    b = chain._pair_exponents(a)  # sector s relaxes with the eigenvalues b_i + conj(b_j) of its A_s
    spectral_bound = float(np.max(np.abs(b[:, :, None] + b.conj()[:, None, :])))
    if dt * spectral_bound >= 0.1:
        warnings.warn(
            f"dt * max|eigenvalue| = {dt * spectral_bound:.3g} >= 0.1; "
            "reduce the step for a faithful transient",
            stacklevel=2,
        )
    n_steps = max(1, int(round(t_final / dt)))
    field, sz_block = np.empty((2, n_steps + 1, 2, 2), dtype=complex)
    field[0], sz_block[0] = initial.field_block, initial.sz_block
    x = 0.5 * (field[0] + sign[:, None, None] * sz_block[0])  # X_s = (F + s S)/2
    for i in range(n_steps):
        # an overflow is caught below, the same whether or not numpy warnings are errors
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = chain._lyapunov(a, x, q)
            k2 = chain._lyapunov(a, x + 0.5 * dt * k1, q)
            k3 = chain._lyapunov(a, x + 0.5 * dt * k2, q)
            k4 = chain._lyapunov(a, x + dt * k3, q)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            field[i + 1], sz_block[i + 1] = x[0] + x[1], x[0] - x[1]
        if not (np.isfinite(field[i + 1]).all() and np.isfinite(sz_block[i + 1]).all()):
            raise SolverError(f"moment evolution left the finite range at step {i + 1} (t = {dt * (i + 1):.6g})")
    return MomentTrajectory(dt * np.arange(n_steps + 1), field, sz_block, initial.sigma_z)
