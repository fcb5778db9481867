"""Exact steady state and transients of the two-cavity moment equations.

The pair is the N = 2 case of the chain: its moment matrix G = <A+ A>, with
operator row A = (a_L, a_R, a_L sz, a_R sz), obeys the block equation of
``chain``, with on-site frequencies omega_L and omega_R and the atom on site
2. The atomic population commutes with the full generator, so the equations
close without truncation: the steady state is the mixture of two atom-free
sectors, each a 2 x 2 Lyapunov equation, and this path agrees with the
density-matrix oracle up to Fock truncation error only.

A sweep is one ``model.PairGrid``. ``sweep_currents`` solves the whole grid
as one stack of sector equations (``chain.sector_covariances``) and returns
its currents as arrays, with no per-point object; each point carries the
largest residual of its sector equations, held to RESIDUAL_TOL. The currents
come from ``chain._currents``, the one boundary-current formula of pairs and
chains. One pair is solved by ``steady_state`` on the same cores, and its
currents are ``chain.boundary_currents``. The state is a
``chain.MomentMatrix``: the two 2 x 2 blocks F = <a_j+ a_k> and
S = <a_j+ a_k sz> of G = [[F, S], [S, F]]. ``evolve`` integrates the block
equation in time on these blocks, with ``chain._motion``, and a
``MomentTrajectory`` holds their stacks.
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
    "steady_state",
    "evolve",
]

# relative residual bound of the sector equations of a two-cavity row
RESIDUAL_TOL = 1e-12


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


def _check_residuals(residuals: np.ndarray) -> None:
    chain._guard(residuals <= RESIDUAL_TOL, residuals, f"steady-state residual {{:.3e}} exceeds {RESIDUAL_TOL}")


def sweep_currents(grid: PairGrid) -> tuple[CurrentReport, np.ndarray]:
    """Currents of every point of a pair grid, from one stack solve: one
    CurrentReport of arrays, and the residual of each point.

    The arrays equal, point by point and bit for bit, the currents of
    ``chain.boundary_currents`` on ``steady_state`` of that point alone. A
    SolverError carries in ``index`` the failing point.
    """
    sites = chain._sites(grid)
    f, s, residuals, _ = chain._mixture(sites)
    _check_residuals(residuals)
    return chain._currents(grid, sites, f, s), residuals


def steady_state(system: TwoCavitySystem) -> MomentMatrix:
    """Steady moment matrix of one pair; it carries its sector residual."""
    (f,), (s,), residuals, margins = chain._mixture(chain._sites(PairGrid.from_systems([system])))
    _check_residuals(residuals)
    return MomentMatrix(f, s, sigma_z=system.sigma_z, residual=residuals.item(), positivity_margin=margins.item())


def evolve(
    system: TwoCavitySystem,
    initial: MomentMatrix,
    t_final: float,
    dt: float,
) -> MomentTrajectory:
    """Fixed-step 4th-order integration of the block equation of motion.

    The matrix G = [[F, S], [S, F]] is integrated as its two blocks (F, S);
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
    sites = chain._sites(PairGrid.from_systems([system]))
    # sector s relaxes with the eigenvalues b_i + conj(b_j) of its A_s = i (h + s x) + D
    signs = np.array([1.0, -1.0])[:, None, None]
    b = np.linalg.eigvals(chain._sector_matrices(sites, np.array([0, 0]), signs))
    spectral_bound = float(np.max(np.abs(b[:, :, None] + b.conj()[:, None, :])))
    if dt * spectral_bound >= 0.1:
        warnings.warn(
            f"dt * max|eigenvalue| = {dt * spectral_bound:.3g} >= 0.1; "
            "reduce the step for a faithful transient",
            stacklevel=2,
        )
    n_steps = max(1, int(round(t_final / dt)))
    y = np.array([initial.field_block, initial.sz_block], dtype=complex)[:, None]  # (F, S) of a stack of one
    out = np.empty((n_steps + 1,) + y.shape, dtype=complex)
    out[0] = y
    for i in range(n_steps):
        # an overflow is caught below, the same whether or not numpy warnings are errors
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = chain._motion(sites, *y)
            k2 = chain._motion(sites, *(y + 0.5 * dt * k1))
            k3 = chain._motion(sites, *(y + 0.5 * dt * k2))
            k4 = chain._motion(sites, *(y + dt * k3))
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise SolverError(f"moment evolution left the finite range at step {i + 1} (t = {dt * (i + 1):.6g})")
        out[i + 1] = y
    return MomentTrajectory(dt * np.arange(n_steps + 1), out[:, 0, 0], out[:, 1, 0], initial.sigma_z)
