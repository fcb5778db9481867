"""Full-space reference for the Fock oracle, built with scipy.sparse.

Every operator here is assembled from the single-mode destruction operator
with ``sp.kron``, apart from the solver in ``cavityheat.fockspace``, so the
tests compare the oracle against an independent statement of the model: the
full space is left mode (x) right mode (x) atom, with the atom basis ordered
(excited, ground); the ket |i, j> of the two modes sits at index
i * levels + j, as in the oracle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve


@dataclass(frozen=True)
class FockOperators:
    """Sparse operators on the truncated Hilbert space."""

    a_left: sp.csr_matrix
    a_right: sp.csr_matrix
    hamiltonian: sp.csr_matrix
    sigma_z: sp.csr_matrix | None  # None when the system has no atom
    dim: int


def mode_operators(levels: int, atom_dim: int = 1) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """a_L and a_R on left (x) right (x) an identity of dimension ``atom_dim``."""
    a = sp.diags(np.sqrt(np.arange(1, levels)), 1, format="csr")
    eye = sp.identity(levels, format="csr")
    eye_atom = sp.identity(atom_dim, format="csr")
    return sp.kron(sp.kron(a, eye), eye_atom, format="csr"), sp.kron(sp.kron(eye, a), eye_atom, format="csr")


def field_hamiltonian(system, a_left, a_right, omega_right):
    """omega_L n_L + omega_right n_R + J (a_L^dagger a_R + a_L a_R^dagger)."""
    return (
        system.omega_left * (a_left.T @ a_left)
        + omega_right * (a_right.T @ a_right)
        + system.coupling * (a_left.T @ a_right + a_left @ a_right.T)
    ).tocsr()


def fock_operators(system, n_max: int) -> FockOperators:
    """Mode and atom operators plus the full Hamiltonian on the truncated space."""
    levels = n_max + 1
    if system.atom is None:
        a_left, a_right = mode_operators(levels)
        h = field_hamiltonian(system, a_left, a_right, system.omega_right)
        return FockOperators(a_left, a_right, h, None, levels**2)
    a_left, a_right = mode_operators(levels, 2)
    eye_field = sp.identity(levels**2, format="csr")
    sigma_z = sp.kron(eye_field, sp.diags([1.0, -1.0]), format="csr")
    excited = sp.kron(eye_field, sp.diags([1.0, 0.0]), format="csr")
    atom = system.atom
    h = (
        field_hamiltonian(system, a_left, a_right, system.omega_right)
        + 0.5 * atom.transition_frequency * sigma_z
        + atom.dispersive_strength * (excited + (a_right.T @ a_right) @ sigma_z)
    )
    return FockOperators(a_left, a_right, h.tocsr(), sigma_z, 2 * levels**2)


def collapse_channels(system, a_left, a_right):
    """(operator, rate) pairs of the two thermal reservoirs, left then right."""
    channels = []
    for a_op, res in ((a_left, system.left), (a_right, system.right)):
        channels.append((a_op, res.rate * (res.mean_occupation + 1.0)))
        channels.append((a_op.T.tocsr(), res.rate * res.mean_occupation))
    return channels


def liouvillian(h, channels) -> sp.csr_matrix:
    """Lindblad generator acting on row-major vectorised density matrices."""
    eye = sp.identity(h.shape[0], format="csr")
    gen = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for c_op, rate in channels:
        c = np.sqrt(rate) * c_op
        cdc = (c.conj().T @ c).tocsr()
        gen = gen + sp.kron(c, c.conj()) - 0.5 * (sp.kron(cdc, eye) + sp.kron(eye, cdc.T))
    return gen.tocsr()


def build_liouvillian(system, n_max: int) -> sp.csr_matrix:
    """Full Lindblad generator on the vectorised truncated atom (x) field space."""
    ops = fock_operators(system, n_max)
    return liouvillian(ops.hamiltonian, collapse_channels(system, ops.a_left, ops.a_right))


def sector_generator(system, sign: float, n_max: int) -> sp.csr_matrix:
    """Generator of one atomic sector on the two-mode space: the right cavity
    shifted by sign * chi, the sector-constant terms dropped."""
    a_left, a_right = mode_operators(n_max + 1)
    h = field_hamiltonian(system, a_left, a_right, system.omega_right + sign * system.chi)
    return liouvillian(h, collapse_channels(system, a_left, a_right))


def sector_state(system, sign: float, n_max: int) -> np.ndarray:
    """Trace-one null vector of the full vectorised sector generator: a sparse
    LU solve with the trace functional in place of the first equation."""
    gen = sector_generator(system, sign, n_max)
    dim = (n_max + 1) ** 2
    trace_row = sp.csr_matrix(np.eye(dim).reshape(1, -1))
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return spsolve(sp.vstack([trace_row, gen[1:]]).tocsc(), rhs).reshape(dim, dim)


def full_matrix(rho) -> np.ndarray:
    """The full state of a DensityMatrix: sum_s p_s rho_s (x) |s><s| with an
    atom, the field state alone without one."""
    if rho.sectors[0][1] == 0.0:
        return rho.sectors[0][2]
    return sum(
        weight * np.kron(state, np.diag([1.0, 0.0] if sign > 0 else [0.0, 1.0]))
        for weight, sign, state in rho.sectors
    )


def full_space_currents(system, rho):
    """(I_L, I_R, i_occupation, i_coherence) as Tr(H D[rho]) on the full
    atom (x) field space, with dense dissipators and the full Hamiltonian."""
    ops = fock_operators(system, rho.n_max)
    h = ops.hamiltonian.toarray()
    mat = full_matrix(rho)

    def dissipator(c):
        cd = c.conj().T
        return c @ mat @ cd - 0.5 * (cd @ c @ mat + mat @ cd @ c)

    currents = []
    for a_op, res in ((ops.a_left, system.left), (ops.a_right, system.right)):
        a = a_op.toarray()
        flow = res.rate * (res.mean_occupation + 1.0) * dissipator(a)
        flow += res.rate * res.mean_occupation * dissipator(a.conj().T)
        currents.append(np.trace(h @ flow).real)
    a_left, a_right = ops.a_left.toarray(), ops.a_right.toarray()
    occ_left = np.trace(mat @ a_left.conj().T @ a_left).real
    coherence = np.trace(mat @ a_left.conj().T @ a_right).real
    return (
        currents[0],
        currents[1],
        (system.left.mean_occupation - occ_left) * system.omega_left,
        system.coupling * coherence,
    )
