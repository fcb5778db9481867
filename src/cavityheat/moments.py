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
currents are ``chain.boundary_currents``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import MomentMatrix
from .closedform import CurrentReport
from .model import PairGrid, TwoCavitySystem

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
    """Fixed-step time evolution of the moment matrix."""

    times: np.ndarray  # shape (n+1,)
    values: np.ndarray  # shape (n+1, 4, 4), complex
    sigma_z: float

    @property
    def final(self) -> MomentMatrix:
        return MomentMatrix(values=self.values[-1], n_sites=2, sigma_z=self.sigma_z)


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
    g, residuals, _ = chain._mixture(sites)
    _check_residuals(residuals)
    return chain._currents(grid, sites, g), residuals


def steady_state(system: TwoCavitySystem) -> MomentMatrix:
    """Steady moment matrix of one pair; it carries its sector residual."""
    (g,), residuals, margins = chain._mixture(chain._sites(PairGrid.from_systems([system])))
    _check_residuals(residuals)
    return MomentMatrix(values=g, n_sites=2, sigma_z=system.sigma_z, residual=residuals.item(),
                        positivity_margin=margins.item())


def evolve(
    system: TwoCavitySystem,
    initial: MomentMatrix,
    t_final: float,
    dt: float,
) -> MomentTrajectory:
    """Fixed-step 4th-order integration of the block equation of motion.

    The step count is t_final/dt rounded to the nearest integer, so the
    trajectory ends at that multiple of dt. The conserved sigma_z is carried
    through unchanged.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not dt <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and at least dt (got t_final={t_final}, dt={dt})")
    gen = chain.build_generators(system)
    initial.check_system(system)
    # sector s relaxes with the eigenvalues b_i + conj(b_j) of its A_s = i (h + s x) + D
    spectral_bound = 0.0
    for sign in (1.0, -1.0):
        b = np.linalg.eigvals(1j * (gen.h_c + sign * gen.x) + gen.m2[:2, :2])
        spectral_bound = max(spectral_bound, float(np.max(np.abs(b[:, None] + b.conj()[None, :]))))
    if dt * spectral_bound >= 0.1:
        warnings.warn(
            f"dt * max|eigenvalue| = {dt * spectral_bound:.3g} >= 0.1; "
            "reduce the step for a faithful transient",
            stacklevel=2,
        )
    n_steps = max(1, int(round(t_final / dt)))
    g = np.array(initial.values, dtype=complex)
    out = np.empty((n_steps + 1,) + g.shape, dtype=complex)
    out[0] = g
    for i in range(n_steps):
        k1 = chain._motion(gen, g)
        k2 = chain._motion(gen, g + 0.5 * dt * k1)
        k3 = chain._motion(gen, g + 0.5 * dt * k2)
        k4 = chain._motion(gen, g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = g
    times = dt * np.arange(n_steps + 1)
    return MomentTrajectory(times=times, values=out, sigma_z=initial.sigma_z)
