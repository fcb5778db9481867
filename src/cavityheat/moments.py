"""Sweep grids and transients of the two-cavity moment equations.

The pair is the N = 2 case of the chain: its moment matrix G = <A+ A>, with
operator row A = (a_L, a_R, a_L sz, a_R sz), obeys the block equation of
``chain``, with on-site frequencies omega_L and omega_R and the atom on site
2. The atomic population commutes with the full generator, so the equations
close without truncation: the steady state is the mixture of two atom-free
sectors, each a 2 x 2 Lyapunov equation, and this path agrees with the
density-matrix oracle up to Fock truncation error only.

A sweep is one ``model.PairGrid``. ``sweep_currents`` solves the whole grid
as one stack of sector equations (``chain.sector_covariances``, which takes
the eigenvalues of each 2 x 2 sector in closed form, with no LAPACK
eigensolver) and returns its currents as arrays, with no per-point object;
each point carries the largest backward error of its sector equations,
||A C + C A+ + Q|| / (2 ||A|| ||C|| + ||Q||), which the core holds to
``chain.RESIDUAL_TOL``, the one bound of every moment solve; a high-Q pair
(Gamma << J << omega) passes it as any other. The currents come from
``chain._currents``, the one boundary-current formula of pairs and chains.
One pair is solved as any chain, by ``chain.steady_state_matrix`` on the
same cores, and its currents are ``chain.boundary_currents``. The state is a
``chain.MomentMatrix``: the two 2 x 2 blocks F = <a_j+ a_k> and
S = <a_j+ a_k sz> of G = [[F, S], [S, F]]. ``evolve`` integrates the block
equation in time on these blocks, with ``chain._motion``, and a
``MomentTrajectory`` holds their stacks; its step warning reads the sector
decay exponents from the same closed form (``chain._pair_exponents``).
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
    sites = chain._sites(chain._stack(system))
    # sector s relaxes with the eigenvalues b_i + conj(b_j) of its A_s = i (h + s x) + D
    signs = np.array([1.0, -1.0])[:, None, None]
    b = chain._pair_exponents(chain._sector_matrices(sites, np.array([0, 0]), signs))
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
