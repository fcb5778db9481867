"""Exact steady state and transients of the two-cavity moment equations.

The pair is the N = 2 case of the chain: its moment matrix G = <A+ A>, with
operator row A = (a_L, a_R, a_L sz, a_R sz), obeys the block equation of
``chain``, with on-site frequencies omega_L and omega_R and the atom on site
2. The atomic population commutes with the full generator, so the equations
close without truncation: the steady state is the mixture of two atom-free
sectors, each a 2 x 2 Lyapunov equation, and this path agrees with the
density-matrix oracle up to Fock truncation error only.

``steady_states`` solves a whole parameter grid as one stack of sector
equations (``chain.sector_covariances``); each row carries the largest
residual of its sector equations, held to RESIDUAL_TOL.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import chain
from .chain import MomentMatrix
from .closedform import CurrentReport, _classification
from .model import TwoCavitySystem, validate

__all__ = [
    "MomentTrajectory",
    "steady_states",
    "steady_state",
    "evolve",
    "currents_from_moments",
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


def steady_states(systems: Sequence[TwoCavitySystem]) -> list[MomentMatrix]:
    """Steady moment matrices of a grid of cavity pairs, from one stack solve.

    Each matrix equals ``steady_state`` of its system alone, bit for bit. A
    SolverError carries in ``index`` the position of the failing system.
    """
    states = chain.sector_mixtures(systems)
    residuals = np.array([g.residual for g in states])
    chain._guard(residuals <= RESIDUAL_TOL, residuals, f"steady-state residual {{:.3e}} exceeds {RESIDUAL_TOL}")
    return states


def steady_state(system: TwoCavitySystem) -> MomentMatrix:
    """Steady moment matrix of one pair; it carries its sector residual."""
    return steady_states([system])[0]


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
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final < dt:
        raise ValueError(f"t_final must be at least dt (got t_final={t_final}, dt={dt})")
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


def currents_from_moments(system: TwoCavitySystem, g: MomentMatrix) -> CurrentReport:
    """Currents evaluated on a steady moment matrix of the system.

    The right cavity's frequency is omega_right + s * chi in atomic sector
    s = +-1, so its occupation term mixes the sectors as
    omega_right <n_R> + chi <n_R sz>, exact for any sigma_z. A ValueError is
    raised for a matrix of another sigma_z, and a warning is emitted when the
    two boundary currents fail to balance, which signals a non-steady input.
    """
    validate(system)
    g.check_system(system)
    f, s = g.field_block, g.sz_block
    gl, gr = system.left.rate, system.right.rate
    wl, wr = system.omega_left, system.omega_right
    i_occ = (system.left.mean_occupation - f[0, 0].real) * wl
    i_coh = 0.5 * system.coupling * (f[0, 1] + f[1, 0]).real
    i_left = gl * (i_occ - i_coh)
    nr = system.right.mean_occupation
    i_right_occ = nr * (wr + system.sigma_z * system.chi) - (wr * f[1, 1].real + system.chi * s[1, 1].real)
    i_right = gr * (i_right_occ - i_coh)
    imbalance = abs(i_left + i_right)
    scale = wl**2
    if imbalance > max(1e-10 * abs(i_left), 1e-10 * scale):
        warnings.warn(
            f"boundary currents do not balance (|I_L + I_R| = {imbalance:.3e}); "
            "the moment matrix is not a steady state",
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
