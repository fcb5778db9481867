"""Steady state of an N-cavity chain, one Lyapunov equation per atomic sector.

The 2N x 2N matrix of expectation values G = <A+ A>, with operator row
A = (a_1, ..., a_N, a_1 sz, ..., a_N sz), evolves as

    dG/dt = i [M1, G] + {M2, G} + M3

with M1 collecting the chain Hamiltonian and the atom shift, M2 the boundary
damping, and M3 the thermal drive. The atomic population is conserved, so the
state is a mixture (``model.atomic_sectors``) of two atom-free sectors
s = +-1 in which the host cavity is shifted by s chi. Each sector covariance
C_s = <a_j+ a_k> solves one N x N Lyapunov equation

    A_s C_s + C_s A_s+ = -Q,    A_s = i (h_c + s x) + D,

with D the boundary damping and Q the thermal drive, by Bartels-Stewart in
O(N^3) time and O(N^2) memory. G is then [[F, S], [S, F]] with
F = sum_s p_s C_s and S = sum_s s p_s C_s, and is checked against the block
equation above, which is built apart from the sector solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as linalg

from .model import ArraySystem, SolverError, atomic_sectors, validate

__all__ = [
    "BlockGenerators",
    "MomentMatrix",
    "SizeScanPoint",
    "build_generators",
    "steady_state_matrix",
    "steady_residual_matrix",
    "array_current",
    "right_boundary_current",
    "bond_flows",
    "occupation_profile",
    "ballistic_current",
    "size_scan",
]

RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
# a sector mode decaying slower than this, relative to ||A_s||, counts as
# undamped: the Lyapunov equation then has no unique solution
STABILITY_TOL = 1e-12
# smallest eigenvalue of a sector covariance, relative to its largest, that
# still counts as positive semidefinite
POSITIVITY_TOL = 1e-10

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class BlockGenerators:
    """Coefficient matrices of the block equation of motion."""

    m1: np.ndarray  # Hermitian 2N x 2N: chain Hamiltonian + atom shift
    m2: np.ndarray  # diagonal, negative semidefinite: boundary damping
    m3: np.ndarray  # thermal drive
    h_c: np.ndarray  # N x N tridiagonal chain Hamiltonian
    x: np.ndarray  # N x N atom shift, single entry chi at the host site


@dataclass(frozen=True)
class MomentMatrix:
    """Steady expectation-value matrix <A+ A> of the chain.

    The top-left N x N block holds the field moments <a_j+ a_k> (site
    occupations on its diagonal); the off-diagonal blocks hold the
    sz-weighted moments <a_j+ a_k sz>.
    """

    values: np.ndarray  # 2N x 2N complex
    n_sites: int
    sigma_z: float = 0.0
    residual: float | None = None  # relative residual of the block equation, from the solve
    positivity_margin: float | None = None  # smallest sector-covariance eigenvalue over the largest

    @property
    def field_block(self) -> np.ndarray:
        n = self.n_sites
        return self.values[:n, :n]

    @property
    def sz_block(self) -> np.ndarray:
        n = self.n_sites
        return self.values[:n, n:]

    @property
    def occupations(self) -> np.ndarray:
        return np.real(np.diag(self.field_block))


@dataclass(frozen=True)
class SizeScanPoint:
    n_sites: int
    current: float
    ratio: float  # against the atom-free ballistic current
    residual: float


def build_generators(system: ArraySystem) -> BlockGenerators:
    """Assemble M1, M2, M3 for a validated chain."""
    validate(system)
    n = system.n_sites
    h_c = system.omega * np.eye(n)
    off = np.full(n - 1, system.coupling)
    h_c += np.diag(off, 1) + np.diag(off, -1)
    x = np.zeros((n, n))
    if system.atom is not None:
        x[system.atom.host_index - 1, system.atom.host_index - 1] = system.chi

    damping = np.zeros(n)
    damping[0] = -0.5 * system.left.rate
    damping[-1] = -0.5 * system.right.rate
    drive = np.zeros(n)
    drive[0] = system.left.rate * system.left.mean_occupation
    drive[-1] = system.right.rate * system.right.mean_occupation

    eye2 = np.eye(2)
    m1 = np.kron(eye2, h_c) + np.kron(_SIGMA_X, x)
    m2 = np.kron(eye2, np.diag(damping))
    m3 = np.kron(eye2, np.diag(drive)) + np.kron(_SIGMA_X, np.diag(drive * system.sigma_z))
    return BlockGenerators(m1=m1, m2=m2, m3=m3, h_c=h_c, x=x)


def _motion(gen: BlockGenerators, g: np.ndarray) -> np.ndarray:
    return 1j * (gen.m1 @ g - g @ gen.m1) + gen.m2 @ g + g @ gen.m2 + gen.m3


def _residual(gen: BlockGenerators, g: np.ndarray) -> float:
    norm_drive = np.linalg.norm(gen.m3)
    res = np.linalg.norm(_motion(gen, g))
    return float(res / norm_drive) if norm_drive > 0 else float(res)


def _sector_covariance(h: np.ndarray, damping: np.ndarray, drive: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A C + C A+ = -Q for one sector; return C and its positivity margin."""
    a = 1j * h + np.diag(damping)
    slowest = float(np.max(np.linalg.eigvals(a).real))
    if not slowest < -STABILITY_TOL * np.linalg.norm(a):
        raise SolverError(
            f"no unique steady state: a chain mode is undamped (largest decay exponent {slowest:.3e})"
        )
    c = linalg.solve_continuous_lyapunov(a, -np.diag(drive).astype(complex))
    eigenvalues = np.linalg.eigvalsh(c)
    scale = float(np.max(np.abs(eigenvalues)))
    margin = float(eigenvalues[0]) / scale if scale > 0 else 0.0
    if not margin >= -POSITIVITY_TOL:
        raise SolverError(f"sector covariance is not positive semidefinite (relative eigenvalue {margin:.3e})")
    return c, margin


def steady_state_matrix(system: ArraySystem) -> MomentMatrix:
    """Solve i [M1, G] + {M2, G} + M3 = 0 as one Lyapunov equation per atomic sector."""
    gen = build_generators(system)
    n = system.n_sites
    damping = np.diag(gen.m2)[:n]
    drive = np.diag(gen.m3)[:n]
    field = np.zeros((n, n), dtype=complex)
    sz_block = np.zeros((n, n), dtype=complex)
    margin = np.inf
    for weight, sign in atomic_sectors(system):
        c, sector_margin = _sector_covariance(gen.h_c + sign * gen.x, damping, drive)
        field += weight * c
        sz_block += sign * weight * c
        margin = min(margin, sector_margin)
    g = np.block([[field, sz_block], [sz_block, field]])
    residual = _residual(gen, g)
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"chain steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    hermiticity = np.linalg.norm(g - g.conj().T)
    if not hermiticity <= HERMITICITY_TOL * max(1.0, np.linalg.norm(g)):
        raise SolverError(f"steady matrix is not Hermitian (deviation {hermiticity:.3e})")
    return MomentMatrix(
        values=g, n_sites=n, sigma_z=system.sigma_z, residual=residual, positivity_margin=margin
    )


def steady_residual_matrix(system: ArraySystem, g: MomentMatrix) -> float:
    """Relative Frobenius residual of a candidate steady matrix."""
    return _residual(build_generators(system), g.values)


def array_current(system: ArraySystem, g: MomentMatrix) -> float:
    """Left-boundary current; the atom shift applies only when it sits on site 1."""
    validate(system)
    f = g.field_block
    shift = system.chi * system.sigma_z if (system.atom is not None and system.atom.host_index == 1) else 0.0
    occ_term = (system.left.mean_occupation - f[0, 0].real) * (system.omega + shift)
    coh_term = 0.5 * system.coupling * (f[0, 1] + np.conj(f[0, 1])).real
    return system.left.rate * (occ_term - coh_term)


def right_boundary_current(system: ArraySystem, g: MomentMatrix) -> float:
    """Mirror of the left-boundary expression at site N; balances array_current."""
    validate(system)
    n = system.n_sites
    f = g.field_block
    shift = system.chi * system.sigma_z if (system.atom is not None and system.atom.host_index == n) else 0.0
    occ_term = (system.right.mean_occupation - f[n - 1, n - 1].real) * (system.omega + shift)
    coh_term = 0.5 * system.coupling * (f[n - 1, n - 2] + np.conj(f[n - 1, n - 2])).real
    return system.right.rate * (occ_term - coh_term)


def bond_flows(system: ArraySystem, g: MomentMatrix) -> np.ndarray:
    """Photon flow across each bond, left to right; site-independent for a
    uniform atom-free chain in steady state."""
    f = g.field_block
    j = system.coupling
    return np.array([-2.0 * j * f[k, k + 1].imag for k in range(system.n_sites - 1)])


def occupation_profile(system: ArraySystem, g: MomentMatrix) -> np.ndarray:
    """Site occupations <n_j>, the chain's local-temperature profile."""
    validate(system)
    return g.occupations.copy()


def ballistic_current(system: ArraySystem) -> float:
    """Atom-free chain current; independent of the array size."""
    validate(system)
    gl, gr = system.left.rate, system.right.rate
    j, w = system.coupling, system.omega
    dn = system.left.mean_occupation - system.right.mean_occupation
    return 4.0 * w * j**2 * gl * gr * dn / ((4.0 * j**2 + gl * gr) * (gl + gr))


def size_scan(
    template: ArraySystem,
    n_values: Iterable[int] | Sequence[int],
    host: str = "last",
) -> list[SizeScanPoint]:
    """Solve the chain for each size and report the current against the
    atom-free baseline.

    ``host='last'`` re-pins the atom to the final cavity of each chain;
    ``host='fixed'`` keeps the template's host index.
    """
    if host not in ("last", "fixed"):
        raise ValueError(f"host rule must be 'last' or 'fixed', got {host!r}")
    baseline = ballistic_current(replace(template, atom=None))
    points = []
    for n in n_values:
        atom = template.atom
        if atom is not None and host == "last":
            atom = replace(atom, host_index=n)
        system = replace(template, n_sites=int(n), atom=atom)
        try:
            g = steady_state_matrix(system)
        except SolverError as exc:
            raise SolverError(f"chain solve failed at n_sites={n}: {exc}") from exc
        current = array_current(system, g)
        points.append(
            SizeScanPoint(
                n_sites=int(n),
                current=current,
                ratio=current / baseline if baseline != 0 else float("nan"),
                residual=g.residual,
            )
        )
    return points
