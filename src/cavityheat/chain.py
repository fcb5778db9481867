"""Steady state of an N-cavity chain, one Lyapunov equation per atomic sector.

The 2N x 2N matrix of expectation values G = <A+ A>, with operator row
A = (a_1, ..., a_N, a_1 sz, ..., a_N sz), evolves as

    dG/dt = i [M1, G] + {M2, G} + M3,
    M1 = [[h, x], [x, h]],   M2 = [[D, 0], [0, D]],   M3 = [[Q, sz Q], [sz Q, Q]],

with h the hopping matrix and on-site frequencies, x the atom shift, D the
boundary damping and Q the thermal drive. The atomic population is
conserved, so the state is a mixture (``model.atomic_sectors``) of two
atom-free sectors s = +-1 in which the host cavity is shifted by s chi. Each
sector covariance C_s = <a_j+ a_k> solves one N x N Lyapunov equation

    A_s C_s + C_s A_s+ = -Q,    A_s = i (h + s x) + D.

``sector_covariances`` solves a stack of these equations at once: pairs as
one batched Kronecker system, with the eigenvalues of A_s and C_s of each
2 x 2 sector in closed form, and every chain of three or more sites in the
eigenbasis of each A_s (O(N^3) time, O(N^2) memory). A_s is complex
symmetric, so that basis W has W^-1 = W^T; the equation is elementwise there,
and the same eigenvalues give the stability guard. Each solution passes the
rules of every steady solve, the oracle's too (``model._check_steady``): its
positivity margin and its normwise backward error (``model._backward_error``)

    ||A C + C A+ + Q|| / (2 ||A|| ||C|| + ||Q||),

held to ``model.RESIDUAL_TOL``: a backward-stable solve leaves a few eps,
however large ||A|| / ||Q|| is (a high-Q pair has ||A|| / Gamma of 1e6 and
more), with norms (``_norm``) that hold at any magnitude. Every C returned is
exactly Hermitian, as the exact solution is. G is then [[F, S], [S, F]] with
F = sum_s p_s C_s and S = sum_s s p_s C_s, so F and S state it completely:
a ``MomentMatrix`` holds these two N x N blocks and nothing else, with the
largest backward error of its sector equations as its ``residual``.

That bound also holds the block equation i [M1, G] + {M2, G} + M3 = 0, with
no second check. The unitary (1, 1; 1, -1)/sqrt(2) on the sz index turns
M = i M1 + M2 into diag(A_+, A_-), G into diag(2 p_+ C_+, 2 p_- C_-) and M3
into diag(2 p_+ Q, 2 p_- Q), so the block residual is diag(2 p_s R_s), with
R_F +- R_S = 2 p_+- R_+-, and ||M||^2 = ||A_+||^2 + ||A_-||^2: the block
backward error is at most the largest sector one, up to the rounding of the
mixture. The same unitary splits the equation of motion into
dX_s/dt = A_s X_s + X_s A_s+ + p_s Q on X_s = (F + s S)/2, which
``moments.evolve`` integrates in time; the 2N x 2N block equation itself is
stated only in the tests.

A ``TwoCavitySystem`` is the N = 2 chain with on-site frequencies omega_L,
omega_R and the atom on site 2. A stack of pairs is one ``model.PairGrid``;
a chain is solved on its own. ``model._sites`` alone states each site's
frequency, atom shift, rate and nbar, as vectors over the whole stack, for
this path and the Fock oracle alike; ``_sector_equations`` alone builds A_s
and Q from them, and ``_lyapunov`` alone writes A C + C A+ + Q. ``_mixture``
and ``_currents`` are the array cores: the sector mixture (each system's
consecutive sectors summed by ``reduceat``), and the reservoir currents of a
stack with one formula for both ends, returned through the report of every
current path (``model._report``). ``steady_state_matrix`` and
``boundary_currents`` run them on one pair or one chain, and
``sweep_currents`` on a whole pair grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Union

import numpy as np

from .model import (ArraySystem, CurrentReport, PairGrid, SolverError, TwoCavitySystem, _Sites, _backward_error,
                    _check_steady, _guard, _report, _sites, _stack, sector_weights)

__all__ = [
    "MomentMatrix",
    "SizeScanPoint",
    "sector_covariances",
    "steady_state_matrix",
    "boundary_currents",
    "sweep_currents",
    "bond_flows",
    "occupation_profile",
    "ballistic_current",
    "size_scan",
]

# a sector mode decaying slower than this, relative to ||A_s||, counts as
# undamped: the Lyapunov equation then has no unique solution
STABILITY_TOL = 1e-12
# steps of iterative refinement of the eigenbasis solve
REFINEMENT_STEPS = 3


@dataclass(frozen=True)
class MomentMatrix:
    """Steady expectation-value matrix G = <A+ A> of the chain, as its two blocks.

    The atomic population is conserved, so G = [[F, S], [S, F]], and F and S
    state it completely. ``field_block`` F holds the field moments
    <a_j+ a_k> (site occupations on its diagonal); ``sz_block`` S holds the
    sz-weighted moments <a_j+ a_k sz>. A ValueError is raised unless both are
    finite square arrays of one shape; each is held as a read-only view.
    """

    field_block: np.ndarray  # F, N x N complex
    sz_block: np.ndarray  # S, N x N complex
    sigma_z: float = 0.0
    residual: float | None = None  # largest backward error (``model._backward_error``) of the sector equations
    positivity_margin: float | None = None  # smallest sector-covariance eigenvalue over the largest

    def __post_init__(self) -> None:
        shape = np.shape(self.field_block)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(self.sz_block) != shape:
            raise ValueError(f"moment blocks must be square arrays of one shape "
                             f"(got {shape} and {np.shape(self.sz_block)})")
        for name in ("field_block", "sz_block"):
            block = np.asarray(getattr(self, name)).view()
            if not np.isfinite(block).all():
                raise ValueError(f"moment block {name} has a non-finite entry")
            block.flags.writeable = False
            object.__setattr__(self, name, block)

    @property
    def n_sites(self) -> int:
        return self.field_block.shape[0]

    @property
    def occupations(self) -> np.ndarray:
        return np.real(np.diag(self.field_block))

    def check_system(self, system: Union[TwoCavitySystem, ArraySystem]) -> None:
        """Raise ValueError unless the matrix has the system's size and sigma_z."""
        n_sites = system.n_sites if isinstance(system, ArraySystem) else 2
        if (self.n_sites, self.sigma_z) != (n_sites, system.sigma_z):
            raise ValueError(
                f"moment matrix of n_sites={self.n_sites}, sigma_z={self.sigma_z} does not belong to "
                f"a system of n_sites={n_sites}, sigma_z={system.sigma_z}"
            )


@dataclass(frozen=True)
class SizeScanPoint:
    n_sites: int
    current: float
    ratio: float  # against the atom-free ballistic current
    residual: float  # the chain's MomentMatrix.residual


def _sector_equations(sites: _Sites, owner: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_s = i (h + s x) + D and Q (K, N, N) of the systems ``owner`` (K,) of a
    stack, each in its sector ``sign`` (K,): the one dense build of both."""
    k, n = len(owner), sites.onsite.shape[1]
    damping = np.zeros((k, n))
    damping[:, [0, n - 1]] = -0.5 * sites.rates[owner]
    # row-major, entry (j, l) is j n + l: the diagonal is every (n + 1)-th from 0, the
    # hopping every (n + 1)-th from 1 and from n, and the two ends are 0 and n^2 - 1
    a, q = np.zeros((2, k, n * n), dtype=complex)
    a[:, :: n + 1] = 1j * (sites.onsite[owner] + sign[:, None] * sites.shift[owner]) + damping
    a[:, 1 :: n + 1] = a[:, n :: n + 1] = 1j * sites.coupling[owner, None]
    q[:, :: n * n - 1] = sites.rates[owner] * sites.nbar[owner]
    return a.reshape(k, n, n), q.reshape(k, n, n)


def _lyapunov(a: np.ndarray, c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A C + C A+ + Q of stacks (K, N, N): a steady solve's residual, and dC/dt."""
    return a @ c + c @ _adjoint(a) + q


def _norm(m: np.ndarray) -> np.ndarray:
    """Frobenius norms (K,) of a stack (K, N, N). ``np.linalg.norm`` squares the
    entries, so a norm outside [2^-450, 2^450] is taken again ``_rescaled``."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(m, axis=(1, 2))
    off = ~((norm >= 2.0**-450) & (norm <= 2.0**450))
    if off.any():
        norm[off] = _rescaled(lambda m: np.linalg.norm(m, axis=(1, 2)), m[off]).real
    return norm


def _rescaled(f, m: np.ndarray) -> np.ndarray:
    """f(m) of a stack (K, N, N), for f homogeneous of degree one (a norm, the
    eigenvalues), taken on each matrix scaled by a power of two to entries
    below one, where the largest squares neither under- nor overflow, and
    scaled back: both scalings are exact."""
    exponent = np.frexp(np.max(np.abs(m), axis=(1, 2)))[1]
    down = -exponent[:, None, None]
    value = f(np.ldexp(m.real, down) + 1j * np.ldexp(m.imag, down))
    up = exponent.reshape((-1,) + (1,) * (value.ndim - 1))
    return np.ldexp(value.real, up) + 1j * np.ldexp(value.imag, up)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().transpose(0, 2, 1)


def _eigenbasis_solve(a: np.ndarray, q: np.ndarray, exponents: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """C (K, N, N) solving A C + C A+ = -Q in the eigenbasis A = W diag(lambda) W^-1.

    A is complex symmetric, so v^T A = lambda v^T, and eigenvectors of distinct
    eigenvalues have v_i^T v_j = 0: scaled to w^T w = 1 they give W^-1 = W^T.
    With P = W^T, A X + X A+ = R reads (P X P+)_ij (lambda_i + conj(lambda_j))
    = (P R P+)_ij. The exact C is Hermitian, so each solve keeps its Hermitian
    part. Near an exceptional point W is ill-conditioned, so REFINEMENT_STEPS
    steps each solve again against the exact residual A C + C A+ + Q. An
    eigenvector with v^T v = 0 (no basis of eigenvectors) raises SolverError.
    """
    products = np.einsum("kij,kij->kj", basis, basis)  # v^T v of each eigenvector
    _guard(np.all(products != 0, axis=1), "no unique steady state: a sector matrix has no basis of eigenvectors")
    basis = basis / np.sqrt(products)[:, None, :]
    transpose, conjugate, basis_h = basis.transpose(0, 2, 1), basis.conj(), _adjoint(basis)
    denominator = exponents[:, :, None] + exponents.conj()[:, None, :]

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = basis @ ((transpose @ rhs @ conjugate) / denominator) @ basis_h
        return 0.5 * (x + _adjoint(x))

    c = solve(-q)
    for _ in range(REFINEMENT_STEPS):
        c = c - solve(_lyapunov(a, c, q))
    return c


def _pair_exponents(a: np.ndarray) -> np.ndarray:
    """Eigenvalues (K, 2) of a stack of finite 2 x 2 matrices (K, 2, 2), slowest
    decaying first: t/2 +- sqrt(t^2/4 - det A), with t^2/4 - det A taken as
    ((a_00 - a_11)/2)^2 + a_01 a_10, which does not cancel when the diagonal
    entries are close. That squares the entries, so the exponents of a matrix
    that come out non-finite are taken again ``_rescaled``."""

    def roots(a: np.ndarray) -> np.ndarray:
        half_trace = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
        root = np.sqrt((0.5 * (a[:, 0, 0] - a[:, 1, 1])) ** 2 + a[:, 0, 1] * a[:, 1, 0])
        return np.stack([half_trace + root, half_trace - root], axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        exponents = roots(a)
    if not np.isfinite(exponents).all():
        off = ~np.isfinite(exponents).all(axis=1)
        exponents[off] = _rescaled(roots, a[off])
    return exponents


def _pair_spectrum(c: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (K, 2) of a stack of Hermitian 2 x 2 matrices,
    read from the real diagonal and the lower triangle as ``eigvalsh`` reads
    them: (c_00 + c_11)/2 -+ hypot((c_00 - c_11)/2, |c_10|)."""
    diagonal = np.diagonal(c, axis1=1, axis2=2).real
    mean = 0.5 * (diagonal[:, 0] + diagonal[:, 1])
    radius = np.hypot(0.5 * (diagonal[:, 0] - diagonal[:, 1]), np.abs(c[:, 1, 0]))
    return np.stack([mean - radius, mean + radius], axis=1)


def sector_covariances(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve A_k C_k + C_k A_k+ = -Q_k for a stack of K sector matrices (K, N, N).

    Each A_k must be complex symmetric, as every A_s of ``_sector_equations``
    is. A stack that is not either still refines to its solution or fails the
    positivity or residual guard; it never returns a wrong C. Pairs (N = 2)
    are one batched 4 x 4 Kronecker system, with their decay exponents
    (``_pair_exponents``) and the eigenvalues of C in closed form; chains take
    one batched ``eig``, whose exponents and eigenbasis ``_eigenbasis_solve``
    works in, and ``eigvalsh`` for the positivity guard. Returns the
    covariances C (K, N, N), each the Hermitian part of its solve, the
    backward error of each equation, ||A C + C A+ + Q|| / (2 ||A|| ||C|| +
    ||Q||) with the ||A|| of the stability guard, and each positivity margin,
    both checked by ``model._check_steady``.
    Raises SolverError, with ``index`` the first failing k, when A_k or Q_k
    has a non-finite entry, a mode is undamped (or A_k has no basis of
    eigenvectors), a covariance is not positive semidefinite or a backward
    error exceeds RESIDUAL_TOL.
    """
    k, n, _ = a.shape
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2))
    _guard(finite, "a sector equation has a non-finite entry")
    exponents, basis = (_pair_exponents(a), None) if n == 2 else np.linalg.eig(a)
    slowest = np.max(exponents.real, axis=1)
    norm_a = _norm(a)
    _guard(slowest < -STABILITY_TOL * norm_a,
           "no unique steady state: a chain mode is undamped (largest decay exponent {slowest:.3e})", slowest=slowest)
    if basis is None:
        # row-major vec(A C + C A+) = (A kron I + I kron conj(A)) vec(C)
        eye = np.eye(n)
        op = a[:, :, None, :, None] * eye[None, None, :, None, :] + eye[None, :, None, :, None] * a.conj()[:, None, :, None, :]
        c = np.linalg.solve(op.reshape(k, n * n, n * n), -q.reshape(k, n * n, 1)).reshape(k, n, n)
    else:
        c = _eigenbasis_solve(a, q, exponents, basis)
    c = 0.5 * (c + _adjoint(c))  # the exact C is Hermitian; the eigenbasis solve already is, bit for bit
    eigenvalues = _pair_spectrum(c) if n == 2 else np.linalg.eigvalsh(c)
    residual = _backward_error(_norm(_lyapunov(a, c, q)), norm_a, _norm(c), _norm(q))
    return c, residual, _check_steady(eigenvalues, residual, "sector covariance")


def _mixture(sites: _Sites) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Steady blocks F = sum_s p_s C_s and S = sum_s s p_s C_s (M, N, N) of a
    stack, from one stack of sector equations, with the largest backward error and
    the smallest positivity margin of each system's sectors. A SolverError
    carries in ``index`` the position of the failing system."""
    weight, sign = sector_weights(sites.sigma_z, sites.atom)
    keep = weight > 0.0
    owner = np.nonzero(keep)[0]  # the system of each sector, s = +1 before s = -1
    weight, sign = weight[keep], sign[keep]
    try:
        c, residual, margin = sector_covariances(*_sector_equations(sites, owner, sign))
    except SolverError as exc:
        exc.index = int(owner[exc.index])  # the failing system, not its sector matrix
        raise
    # every system has one or two sectors, and they are consecutive
    start = np.searchsorted(owner, np.arange(len(sites.onsite)))
    weight, sign = weight[:, None, None], sign[:, None, None]
    # + 0.0 turns a sum of -0.0 into +0.0, as a sum from zero does
    field = np.add.reduceat(weight * c, start) + 0.0
    sz_block = np.add.reduceat(sign * weight * c, start) + 0.0
    return field, sz_block, np.maximum.reduceat(residual, start), np.minimum.reduceat(margin, start)


def steady_state_matrix(system: Union[TwoCavitySystem, ArraySystem]) -> MomentMatrix:
    """Solve i [M1, G] + {M2, G} + M3 = 0 of a cavity pair or a chain as one
    Lyapunov equation per atomic sector (``_mixture`` on a stack of one); the
    result carries the largest backward error of its sector equations, which
    bounds that of the block equation."""
    (f,), (s,), residual, margin = _mixture(_sites(_stack(system)))
    return MomentMatrix(f, s, sigma_z=system.sigma_z, residual=residual.item(), positivity_margin=margin.item())


def _currents(system: Union[TwoCavitySystem, PairGrid, ArraySystem], stack: Union[PairGrid, ArraySystem],
              sites: _Sites, f: np.ndarray, s: np.ndarray) -> CurrentReport:
    """Reservoir currents of ``system``, a pair, a pair grid or a chain, with its ``stack`` and ``sites``, on
    the blocks F and S (M, N, N) of their moment matrices, as ``model._report`` returns them.

    End site j, bonded to site k, sits at omega_j + s x_j in atomic sector s,
    so its reservoir current mixes the sectors exactly through S = <a+ a sz>:

        I_j = Gamma_j [(nbar_j - F_jj) omega_j + x_j (sz nbar_j - S_jj) - J Re(F_jk + F_kj)/2].

    ``i_occupation`` and ``i_coherence`` are the two terms at site 1. The
    balance is held against the summed magnitudes of the five terms at both ends.
    """
    n = sites.onsite.shape[-1]
    ends, bonded = [0, n - 1], [1, n - 2]
    omega, shift, nbar, sigma_z = sites.onsite[:, ends], sites.shift[:, ends], sites.nbar, sites.sigma_z[:, None]
    f_end, s_end = f[:, ends, ends].real, s[:, ends, ends].real
    occupation = (nbar - f_end) * omega + shift * (sigma_z * nbar - s_end)
    coherence = 0.5 * sites.coupling[:, None] * (f[:, ends, bonded] + f[:, bonded, ends]).real
    current = sites.rates * (occupation - coherence)
    magnitude = (nbar + np.abs(f_end)) * omega + shift * (np.abs(sigma_z) * nbar + np.abs(s_end)) + np.abs(coherence)
    return _report(system, stack, current[:, 0], current[:, 1], occupation[:, 0], coherence[:, 0],
                   np.sum(sites.rates * magnitude, axis=1), "moment matrix", stacklevel=3)


def boundary_currents(system: Union[TwoCavitySystem, ArraySystem], state: MomentMatrix) -> CurrentReport:
    """Reservoir currents of a cavity pair or a chain on its moment matrix
    (``_currents``); a ValueError for a matrix of another size or sigma_z, a
    warning when the currents do not balance, which signals a non-steady input."""
    state.check_system(system)
    stack = _stack(system)
    return _currents(system, stack, _sites(stack), state.field_block[None], state.sz_block[None])


def sweep_currents(grid: PairGrid) -> tuple[CurrentReport, np.ndarray]:
    """Currents (a CurrentReport of arrays) and backward error of every point
    of a pair grid, from one stack solve, bit for bit those of each point
    alone; a SolverError carries in ``index`` the failing point."""
    sites = _sites(grid)
    f, s, residuals, _ = _mixture(sites)
    return _currents(grid, grid, sites, f, s), residuals


def bond_flows(system: ArraySystem, g: MomentMatrix) -> np.ndarray:
    """Photon flow across each bond, left to right; site-independent for a
    uniform atom-free chain in steady state."""
    g.check_system(system)
    return -2.0 * system.coupling * np.diagonal(g.field_block, 1).imag


def occupation_profile(system: ArraySystem, g: MomentMatrix) -> np.ndarray:
    """Site occupations <n_j>, the chain's local-temperature profile."""
    g.check_system(system)
    return g.occupations.copy()


def ballistic_current(system: ArraySystem) -> float:
    """Atom-free chain current; independent of the array size."""
    gl, gr = system.left.rate, system.right.rate
    j, w = system.coupling, system.omega
    dn = system.left.mean_occupation - system.right.mean_occupation
    return 4.0 * w * j**2 * gl * gr * dn / ((4.0 * j**2 + gl * gr) * (gl + gr))


def size_scan(template: ArraySystem, n_values: Iterable[int] | Sequence[int]) -> list[SizeScanPoint]:
    """Solve the chain for each size and report the current against the
    atom-free baseline; the atom is re-pinned to the final cavity of each chain.
    Each chain is checked when it is built, so a size that is not an integer
    of at least 2 raises ValidationError.
    """
    baseline = ballistic_current(replace(template, atom=None))
    points = []
    for n in n_values:
        atom = None if template.atom is None else replace(template.atom, host_index=n)
        system = replace(template, n_sites=n, atom=atom)
        try:
            g = steady_state_matrix(system)
        except SolverError as exc:
            raise SolverError(f"chain solve failed at n_sites={n}: {exc}") from exc
        current = boundary_currents(system, g).i_left
        points.append(
            SizeScanPoint(
                n_sites=n,
                current=current,
                ratio=current / baseline if baseline != 0 else float("nan"),
                residual=g.residual,
            )
        )
    return points
