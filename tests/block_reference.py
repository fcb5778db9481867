"""Block-equation reference for the moment solves, built with np.block.

The moment matrix G = <A+ A> of a chain, with operator row
A = (a_1, ..., a_N, a_1 sz, ..., a_N sz), evolves as

    dG/dt = i [M1, G] + {M2, G} + M3,

    M1 = [[h, x], [x, h]],   M2 = [[D, 0], [0, D]],   M3 = [[Q, sz Q], [sz Q, Q]],

with h the hopping matrix and on-site frequencies, x the atom shift (chi at
the host site), D the boundary damping -Gamma/2 and Q the thermal drive
Gamma nbar at sites 1 and N. Everything here is read from a system's own
fields, apart from ``cavityheat.chain`` and ``cavityheat.moments``, so the
tests compare the library's sector equations, its sector solve and its
transient against an independent statement of the 2N x 2N equation. The
library holds G only as its blocks F and S; ``block_matrix`` lays them out
as G = [[F, S], [S, F]] for these comparisons. A ``TwoCavitySystem`` is the
N = 2 chain with on-site frequencies omega_L, omega_R and the atom on site 2.
"""

from dataclasses import dataclass

import numpy as np

from cavityheat.model import ArraySystem


@dataclass(frozen=True)
class BlockGenerators:
    """Coefficient matrices of the block equation of motion."""

    m1: np.ndarray  # Hermitian 2N x 2N: chain Hamiltonian + atom shift
    m2: np.ndarray  # diagonal, negative semidefinite: boundary damping
    m3: np.ndarray  # thermal drive
    h: np.ndarray  # N x N hopping matrix with the on-site frequencies
    x: np.ndarray  # N x N atom shift, chi at the host site


def block_generators(system) -> BlockGenerators:
    """M1, M2, M3 of a ``TwoCavitySystem`` or an ``ArraySystem``."""
    if isinstance(system, ArraySystem):
        n = system.n_sites
        onsite = np.full(n, system.omega)
        host = None if system.atom is None else system.atom.host_index - 1
    else:
        n = 2
        onsite = np.array([system.omega_left, system.omega_right])
        host = None if system.atom is None else 1
    h = np.diag(onsite) + system.coupling * (np.eye(n, k=1) + np.eye(n, k=-1))
    x = np.zeros((n, n))
    if host is not None:
        x[host, host] = system.chi
    damping, drive = np.zeros((2, n, n))
    damping[0, 0], damping[-1, -1] = -0.5 * system.left.rate, -0.5 * system.right.rate
    drive[0, 0] = system.left.rate * system.left.mean_occupation
    drive[-1, -1] = system.right.rate * system.right.mean_occupation
    zero = np.zeros((n, n))
    return BlockGenerators(
        m1=np.block([[h, x], [x, h]]),
        m2=np.block([[damping, zero], [zero, damping]]),
        m3=np.block([[drive, system.sigma_z * drive], [system.sigma_z * drive, drive]]),
        h=h,
        x=x,
    )


def block_matrix(state) -> np.ndarray:
    """G = [[F, S], [S, F]] of a MomentMatrix, or the (T, 2N, 2N) stack of a MomentTrajectory."""
    f, s = state.field_block, state.sz_block
    return np.block([[f, s], [s, f]])


def norm(m: np.ndarray) -> float:
    """Frobenius norm, scaled by the largest entry so that its squares neither
    under- nor overflow (a drive of 1e-197 squares to zero). The magnitudes are
    scaled, not the complex entries: a complex division by a subnormal scale
    overflows on its reciprocal."""
    magnitude = np.abs(m)
    scale = np.max(magnitude)
    return float(scale * np.linalg.norm(magnitude / scale)) if scale > 0 else 0.0


def block_motion(system, g: np.ndarray) -> np.ndarray:
    """dG/dt = i [M1, G] + {M2, G} + M3 at a 2N x 2N matrix G."""
    gen = block_generators(system)
    return 1j * (gen.m1 @ g - g @ gen.m1) + gen.m2 @ g + g @ gen.m2 + gen.m3


def block_residual(system, g: np.ndarray) -> float:
    """Relative residual ||i [M1, G] + {M2, G} + M3|| / ||M3|| at a 2N x 2N matrix G."""
    return norm(block_motion(system, g)) / norm(block_generators(system).m3)


def block_backward_error(system, g: np.ndarray) -> float:
    """Normwise backward error ||R|| / (2 ||M|| ||G|| + ||M3||) at a 2N x 2N
    matrix G, with M = i M1 + M2, so that the block equation reads
    M G + G M+ + M3 = R = 0 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 16); every norm is the Frobenius norm of the full
    2N x 2N matrix."""
    gen = block_generators(system)
    m = 1j * gen.m1 + gen.m2
    motion = m @ g + g @ m.conj().T + gen.m3
    return norm(motion) / (2.0 * norm(m) * norm(g) + norm(gen.m3))


def kronecker_steady_matrix(system) -> np.ndarray:
    """The block equation i [M1, G] + {M2, G} + M3 = 0 solved as one dense
    (2N)^2 linear system: an independent check of the sector solve."""
    gen = block_generators(system)
    eye = np.eye(gen.m1.shape[0])
    # row-major vec(P G Q) = (P kron Q^T) vec(G); M1 is real symmetric, M2 diagonal
    op = 1j * (np.kron(gen.m1, eye) - np.kron(eye, gen.m1)) + np.kron(gen.m2, eye) + np.kron(eye, gen.m2)
    return np.linalg.solve(op, -gen.m3.reshape(-1).astype(complex)).reshape(eye.shape)
