"""Steady state of a boundary-driven cavity chain, computed apart from the
program under test.

The atomic population is conserved, so the state is a mixture, weighted by
p_s = (1 + s sigma_z) / 2, of two atom-free sectors s = +1, -1. In sector s
the host cavity (the last one) is shifted by s chi, and the covariance
C_jk = <a_j+ a_k> solves the Lyapunov equation

    (i H_s - Gamma/2) C + C (i H_s - Gamma/2)^+ = -diag(Gamma nbar)

(Asadian et al., PRE 87, 012109, 2013). The energy current from a reservoir
on site b is Gamma_b (nbar_b H_bb - Re (C H)_bb) in each sector; currents and
covariances are then mixed with the sector weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov


@dataclass(frozen=True)
class Chain:
    """Chain of cavities driven at sites 1 and N; the atom, if any, sits on site N."""

    omegas: tuple[float, ...]
    coupling: float
    gamma_left: float
    gamma_right: float
    nbar_left: float
    nbar_right: float
    chi: float = 0.0
    sigma_z: float | None = None  # None: no atom

    def swapped(self) -> "Chain":
        """The mirror configuration with the two reservoirs exchanged."""
        return Chain(
            self.omegas, self.coupling, self.gamma_right, self.gamma_left,
            self.nbar_right, self.nbar_left, self.chi, self.sigma_z,
        )


@dataclass(frozen=True)
class Steady:
    covariance: np.ndarray  # sector mixture of C
    i_left: float
    i_right: float
    # magnitude of the terms each current is a difference of; a current that
    # cancels to nearly zero is compared on this scale instead of its own
    scale_left: float
    scale_right: float

    @property
    def occupations(self) -> np.ndarray:
        return np.diag(self.covariance).real

    def i_occupation(self, omega_left: float, nbar_left: float) -> float:
        return (nbar_left - self.covariance[0, 0].real) * omega_left

    def i_coherence(self, coupling: float) -> float:
        return coupling * self.covariance[0, 1].real


def sectors(sigma_z: float | None) -> list[tuple[float, float]]:
    """(weight, sign) of each atomic sector with non-zero weight."""
    if sigma_z is None:
        return [(1.0, 0.0)]
    pairs = [(0.5 * (1.0 + sigma_z), 1.0), (0.5 * (1.0 - sigma_z), -1.0)]
    return [(p, s) for p, s in pairs if p > 0.0]


def steady(chain: Chain) -> Steady:
    n = len(chain.omegas)
    gamma = np.zeros(n)
    drive = np.zeros(n)
    gamma[0] += chain.gamma_left
    gamma[-1] += chain.gamma_right
    drive[0] += chain.gamma_left * chain.nbar_left
    drive[-1] += chain.gamma_right * chain.nbar_right
    hopping = np.full(n - 1, chain.coupling)
    cov = np.zeros((n, n), dtype=complex)
    i_left = i_right = scale_left = scale_right = 0.0
    for weight, sign in sectors(chain.sigma_z):
        h = np.diag(np.asarray(chain.omegas, dtype=float)) + np.diag(hopping, 1) + np.diag(hopping, -1)
        h[-1, -1] += sign * chain.chi
        a = 1j * h - 0.5 * np.diag(gamma)
        c = solve_continuous_lyapunov(a, -np.diag(drive).astype(complex))
        ch = c @ h
        i_left += weight * chain.gamma_left * (chain.nbar_left * h[0, 0] - ch[0, 0].real)
        i_right += weight * chain.gamma_right * (chain.nbar_right * h[-1, -1] - ch[-1, -1].real)
        scale_left += weight * chain.gamma_left * (abs(chain.nbar_left * h[0, 0]) + np.abs(c[0] * h[:, 0]).sum())
        scale_right += weight * chain.gamma_right * (abs(chain.nbar_right * h[-1, -1]) + np.abs(c[-1] * h[:, -1]).sum())
        cov += weight * c
    return Steady(cov, float(i_left), float(i_right), float(scale_left), float(scale_right))


def ballistic_current(omega, coupling, gamma_left, gamma_right, nbar_left, nbar_right) -> float:
    """Atom-free resonant current 4 w J^2 G_L G_R dn / ((4 J^2 + G_L G_R)(G_L + G_R))."""
    j2 = coupling**2
    return (
        4.0 * omega * j2 * gamma_left * gamma_right * (nbar_left - nbar_right)
        / ((4.0 * j2 + gamma_left * gamma_right) * (gamma_left + gamma_right))
    )
