"""Brute-force verification path on a truncated Fock space.

Finds the steady density matrix of the two-cavity system on the truncated
Fock space and evaluates currents and state diagnostics on it, independently
of the moment and covariance solvers, so the paths must agree up to Fock
truncation error only.

The atomic population is conserved, so the oracle works per atomic sector
(``model.atomic_sectors``): in sector s the right cavity is shifted by
s chi, the field state rho_s solves the atom-free generator on the two-mode
space, and every quantity is the p_s-weighted sum over sectors.

The generator conserves the difference between ket and bra excitation
numbers, so rho_s is block-diagonal in the total excitation number
n = 0 .. 2 n_max, and its equations couple block n only to n +- 1 through
the reservoir jumps. Each sector is solved by dense block elimination over
all of these blocks, no Gaussian assumption made. The result is then checked
against the full Lindblad equation -i[H_s, rho] + sum_c rate D[c] rho,
evaluated by sparse products on the whole of rho, not on the solved blocks.
``fock_operators`` and ``build_liouvillian`` state the model on the full
space, left mode (x) right mode (x) atom with the atom basis ordered
(excited, ground), for checks on the generator itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .closedform import CurrentReport, _classification
from .model import SolverError, TwoCavitySystem, ValidationError, atomic_sectors

__all__ = [
    "FockConfig",
    "FockOperators",
    "DensityMatrix",
    "gibbs_tail_mass",
    "thermal_state",
    "fock_operators",
    "build_liouvillian",
    "steady_rho",
    "converged_steady_rho",
    "oracle_currents",
    "thermal_fidelity",
    "g2_zero",
]

STEADY_RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


@dataclass(frozen=True)
class FockConfig:
    """Truncation controls for the oracle.

    ``tail_bound`` caps the Gibbs weight beyond the truncation at the hotter
    reservoir occupation, so the cut cannot silently bias the steady state.
    ``max_vectorized_dim`` caps the vectorised field-space dimension,
    levels**4, that a steady solve or a generator may reach; raise it
    deliberately for large truncations.
    """

    n_max: int = 12
    tail_bound: float = 1e-8
    max_vectorized_dim: int = 200_000

    @property
    def levels(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class FockOperators:
    """Sparse operators on the truncated Hilbert space."""

    a_left: sp.csr_matrix
    a_right: sp.csr_matrix
    hamiltonian: sp.csr_matrix
    sigma_z: sp.csr_matrix | None  # None when the system has no atom
    dim: int


@dataclass(frozen=True)
class DensityMatrix:
    """Steady state on the truncated space, one field state per atomic sector.

    ``sectors`` holds (p_s, s, rho_s): the weight and sign of each atomic
    sector and its two-mode field state, as ``model.atomic_sectors`` orders
    them; without an atom it is the single entry (1.0, 0.0, rho).
    ``residual`` is the norm of the full Lindblad right-hand side on the
    state, combined over atomic sectors.
    """

    sectors: tuple[tuple[float, float, np.ndarray], ...]
    n_max: int
    residual: float = 0.0

    @property
    def includes_atom(self) -> bool:
        return self.sectors[0][1] != 0.0

    @property
    def matrix(self) -> np.ndarray:
        """The full state: sum_s p_s rho_s (x) |s><s| with an atom, rho without."""
        if not self.includes_atom:
            return self.sectors[0][2]
        return sum(
            weight * np.kron(rho, np.diag([1.0, 0.0] if sign > 0 else [0.0, 1.0]))
            for weight, sign, rho in self.sectors
        )

    @property
    def trace(self) -> float:
        return float(sum(weight * np.trace(rho).real for weight, _, rho in self.sectors))

    def _reduced(self, subscripts: str) -> np.ndarray:
        d1 = self.n_max + 1
        return sum(
            weight * np.einsum(subscripts, rho.reshape(d1, d1, d1, d1)) for weight, _, rho in self.sectors
        )

    def reduced_left(self) -> np.ndarray:
        """Single-mode state of the left cavity."""
        return self._reduced("ijlj->il")

    def reduced_right(self) -> np.ndarray:
        """Single-mode state of the right cavity."""
        return self._reduced("ijim->jm")

    def sigma_z_expectation(self) -> float:
        return float(sum(weight * sign * np.trace(rho).real for weight, sign, rho in self.sectors))


def gibbs_tail_mass(n_max: int, nbar: float) -> float:
    """Thermal weight beyond the truncation, q**(n_max + 1) with q = nbar/(1 + nbar)."""
    if nbar <= 0:
        return 0.0
    q = nbar / (1.0 + nbar)
    return q ** (n_max + 1)


def thermal_state(n_levels: int, nbar: float) -> np.ndarray:
    """Truncated single-mode Gibbs state, renormalised on the kept levels."""
    if nbar < 0:
        raise ValueError(f"mean occupation must be non-negative, got {nbar}")
    if nbar == 0:
        rho = np.zeros((n_levels, n_levels))
        rho[0, 0] = 1.0
        return rho
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(n_levels)
    weights /= weights.sum()
    return np.diag(weights)


def _check_config(system: TwoCavitySystem, cfg: FockConfig) -> None:
    if cfg.n_max < 1:
        raise ValidationError([f"fock: n_max must be at least 1, got {cfg.n_max}"])
    hot = max(system.left.mean_occupation, system.right.mean_occupation)
    tail = gibbs_tail_mass(cfg.n_max, hot)
    if not tail <= cfg.tail_bound:
        raise ValidationError([
            f"fock: Gibbs tail mass {tail:.3e} beyond n_max={cfg.n_max} at nbar={hot} "
            f"exceeds the bound {cfg.tail_bound:.1e}; raise n_max or the bound"
        ])


def _guard_dim(dim: int, cfg: FockConfig) -> None:
    if dim * dim > cfg.max_vectorized_dim:
        raise ValidationError([
            f"fock: vectorised space dimension {dim * dim} exceeds the guard "
            f"{cfg.max_vectorized_dim}; raise max_vectorized_dim to override"
        ])


def _destroy(n_levels: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n_levels)), 1, format="csr")


def fock_operators(system: TwoCavitySystem, cfg: FockConfig) -> FockOperators:
    """Mode and atom operators plus the full Hamiltonian on the truncated space."""
    d1 = cfg.levels
    a = _destroy(d1)
    eye1 = sp.identity(d1, format="csr")
    if system.atom is not None:
        eye_atom = sp.identity(2, format="csr")
        a_left = sp.kron(sp.kron(a, eye1), eye_atom, format="csr")
        a_right = sp.kron(sp.kron(eye1, a), eye_atom, format="csr")
        sz_atom = sp.diags([1.0, -1.0], format="csr")
        excited = sp.diags([1.0, 0.0], format="csr")
        eye_field = sp.identity(d1 * d1, format="csr")
        sigma_z = sp.kron(eye_field, sz_atom, format="csr")
        proj_excited = sp.kron(eye_field, excited, format="csr")
        dim = 2 * d1 * d1
    else:
        a_left = sp.kron(a, eye1, format="csr")
        a_right = sp.kron(eye1, a, format="csr")
        sigma_z = None
        proj_excited = None
        dim = d1 * d1

    n_left = (a_left.conj().T @ a_left).tocsr()
    n_right = (a_right.conj().T @ a_right).tocsr()
    h = (
        system.omega_left * n_left
        + system.omega_right * n_right
        + system.coupling * (a_left.conj().T @ a_right + a_left @ a_right.conj().T)
    )
    if system.atom is not None:
        atom = system.atom
        h = h + 0.5 * atom.transition_frequency * sigma_z
        h = h + atom.dispersive_strength * (proj_excited + n_right @ sigma_z)
    return FockOperators(
        a_left=a_left,
        a_right=a_right,
        hamiltonian=h.tocsr(),
        sigma_z=sigma_z,
        dim=dim,
    )


def _collapse_channels(system: TwoCavitySystem, a_left: sp.csr_matrix, a_right: sp.csr_matrix):
    """(operator, rate) pairs of the two thermal reservoirs, left then right."""
    channels = []
    for a_op, res in ((a_left, system.left), (a_right, system.right)):
        channels.append((a_op, res.rate * (res.mean_occupation + 1.0)))
        channels.append((a_op.conj().T.tocsr(), res.rate * res.mean_occupation))
    return channels


def _liouvillian_from(h: sp.spmatrix, channels) -> sp.csr_matrix:
    """Generator acting on row-major vectorised density matrices."""
    dim = h.shape[0]
    eye = sp.identity(dim, format="csr")
    gen = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for c_op, rate in channels:
        if rate == 0.0:
            continue
        c = np.sqrt(rate) * c_op
        cdc = (c.conj().T @ c).tocsr()
        gen = gen + sp.kron(c, c.conj()) - 0.5 * (sp.kron(cdc, eye) + sp.kron(eye, cdc.T))
    return gen.tocsr()


def build_liouvillian(system: TwoCavitySystem, cfg: FockConfig) -> sp.csr_matrix:
    """Full Lindblad generator on the vectorised truncated space."""
    _check_config(system, cfg)
    ops = fock_operators(system, cfg)
    _guard_dim(ops.dim, cfg)
    return _liouvillian_from(ops.hamiltonian, _collapse_channels(system, ops.a_left, ops.a_right))


def _field_ops(levels: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    a = _destroy(levels)
    eye1 = sp.identity(levels, format="csr")
    return sp.kron(a, eye1, format="csr"), sp.kron(eye1, a, format="csr")


def _sector_hamiltonian(
    system: TwoCavitySystem, a_left: sp.csr_matrix, a_right: sp.csr_matrix, sector: float
) -> sp.csr_matrix:
    """Field Hamiltonian of one atomic sector.

    The dispersive pull shifts the right-cavity frequency by sector * chi;
    the shifted frequency may legitimately be negative when chi exceeds
    omega_right. Sector-constant terms drop out of the generator and of the
    dissipator traces, so they are omitted.
    """
    h = (
        system.omega_left * (a_left.conj().T @ a_left)
        + (system.omega_right + system.chi * sector) * (a_right.conj().T @ a_right)
        + system.coupling * (a_left.conj().T @ a_right + a_left @ a_right.conj().T)
    )
    return h.tocsr()


def _excitation_blocks(levels: int) -> list[np.ndarray]:
    """Ket indices of each total excitation number n = 0 .. 2 (levels - 1).

    The ket |i, j> sits at index i * levels + j; inside a block the kets
    ascend in the left occupation i.
    """
    total = np.add.outer(np.arange(levels), np.arange(levels)).reshape(-1)
    return [np.flatnonzero(total == n) for n in range(2 * levels - 1)]


def _block_generator(k: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """No-jump part of the generator on one excitation block, in real coordinates.

    A Hermitian block rho is held as the real matrix Y = Re rho + Im rho, so
    rho = (Y + Y^T)/2 + i (Y - Y^T)/2. For real symmetric K (the Hamiltonian)
    and Gamma (sum_c rate c^dagger c), rho -> -i[K, rho] - {Gamma, rho}/2
    becomes Y -> Y^T K - K Y^T - (Gamma Y + Y Gamma)/2. Returns its matrix on
    row-major vec Y.
    """
    m = k.shape[0]
    i = np.arange(m)
    gen = np.zeros((m, m, m, m))  # gen[a, b, c, d]: coefficient of Y[c, d] in Y'[a, b]
    gen[i, :, :, i] += k.T
    gen[:, i, i, :] -= k[:, None, :]
    gen[:, i, :, i] -= 0.5 * gamma
    gen[i, :, i, :] -= 0.5 * gamma.T
    return gen.reshape(m * m, m * m)


def _jumps(channels, blocks: list[np.ndarray]) -> dict[int, list[list]]:
    """sum_c rate c rho c^dagger between neighbouring excitation blocks.

    Each jump operator is real and has at most one entry per row, at the
    row's source ket s_k, so (c rho c^dagger)[k, l] =
    c[k, s_k] c[l, s_l] rho[s_k, s_l]: a gather with real weights, which
    acts on Y = Re rho + Im rho alike. ``jumps[step][n]`` lists one
    (source, weight) pair per channel that feeds block n from block
    n + step; ``source`` indexes vec Y of block n + step.
    """
    dim = sum(kets.size for kets in blocks)
    block_of = np.empty(dim, dtype=int)
    position = np.empty(dim, dtype=int)
    for n, kets in enumerate(blocks):
        block_of[kets] = n
        position[kets] = np.arange(kets.size)
    jumps = {-1: [[] for _ in blocks], 1: [[] for _ in blocks]}
    for c_op, rate in channels:
        if rate == 0.0:
            continue
        c = c_op.tocoo()
        step = int(block_of[c.col[0]] - block_of[c.row[0]])
        source = np.zeros(dim, dtype=int)
        amplitude = np.zeros(dim)
        source[c.row] = position[c.col]
        amplitude[c.row] = np.sqrt(rate) * c.data
        for n, kets in enumerate(blocks):
            if 0 <= n + step < len(blocks):
                s, w = source[kets], amplitude[kets]
                width = blocks[n + step].size
                jumps[step][n].append(((s[:, None] * width + s).reshape(-1), np.outer(w, w).reshape(-1)))
    return jumps


def _block_steady_state(h: sp.csr_matrix, channels, blocks: list[np.ndarray]) -> np.ndarray:
    """Trace-one steady state of the generator, solved on its excitation blocks.

    The generator conserves the ket-minus-bra excitation difference, so the
    steady state is block-diagonal in the total excitation number n, and its
    equations couple block n only to n +- 1 through the jumps:
    C_n y_{n-1} + A_n y_n + B_n y_{n+1} = 0, with y_n = vec Y_n. The vacuum block is pinned to
    y_0 = 1 and its equation dropped; the trace functional weighs that
    equation, so the rest stay independent. Eliminating upward from n = 1
    gives y_n = offset_n - gain_n y_{n+1}; back-substitution then fills every
    block, and the state is normalised by its trace.
    """
    gamma = sum(rate * (c.conj().T @ c) for c, rate in channels).toarray()
    h = h.toarray()
    jumps = _jumps(channels, blocks)
    sizes = [kets.size**2 for kets in blocks] + [0]
    steps = [np.column_stack([np.zeros((1, sizes[1])), np.ones(1)])]  # [gain | offset] of y_0 = 1
    for n in range(1, len(blocks)):
        kets = np.ix_(blocks[n], blocks[n])
        fed = np.zeros((sizes[n], steps[-1].shape[1]))
        for source, weight in jumps[-1][n]:
            fed += weight[:, None] * steps[-1][source]
        rhs = np.zeros((sizes[n], sizes[n + 1] + 1))
        for source, weight in jumps[1][n]:
            rhs[np.arange(sizes[n]), source] += weight
        rhs[:, -1] = -fed[:, -1]
        try:
            steps.append(np.linalg.solve(_block_generator(h[kets], gamma[kets]) - fed[:, :-1], rhs))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"no unique steady state: {exc}") from exc
    rho = np.zeros(h.shape, dtype=complex)
    y = np.zeros(0)
    for kets, step in zip(reversed(blocks), reversed(steps)):
        y = step[:, -1] - step[:, :-1] @ y
        block = y.reshape(kets.size, kets.size)
        rho[np.ix_(kets, kets)] = 0.5 * (block + block.T) + 0.5j * (block - block.T)
    trace = np.trace(rho).real
    if not (np.all(np.isfinite(rho)) and trace > 0.0):
        raise SolverError("no unique steady state: the block elimination gave a non-finite or traceless state")
    return rho / trace


def _lindblad_rhs(h: sp.csr_matrix, channels, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_c rate D[c] rho, from sparse products.

    rho enters as a sparse matrix holding every nonzero entry, so nothing of
    the excitation-block structure is assumed.
    """
    rho = sp.csr_matrix(rho)
    return (-1j * (h @ rho - rho @ h) + sum(rate * _dissipator(rho, c) for c, rate in channels)).toarray()


def _sector_steady(system: TwoCavitySystem, cfg: FockConfig, sector: float):
    """Steady field state of one atomic sector and the norm of the full
    Lindblad right-hand side on it."""
    _guard_dim(cfg.levels**2, cfg)
    a_left, a_right = _field_ops(cfg.levels)
    h = _sector_hamiltonian(system, a_left, a_right, sector)
    channels = _collapse_channels(system, a_left, a_right)
    blocks = _excitation_blocks(cfg.levels)
    rho = _block_steady_state(h, channels, blocks)
    _check_state(rho, blocks)
    residual = float(np.linalg.norm(_lindblad_rhs(h, channels, rho)))
    if not residual <= STEADY_RESIDUAL_TOL:
        raise SolverError(f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL}")
    return rho, residual


def _check_state(rho: np.ndarray, blocks: list[np.ndarray]) -> None:
    """Hermitian, trace one, and no eigenvalue below the floor; the state is
    block-diagonal in the excitation number, so each block's spectrum is exact."""
    hermiticity = np.linalg.norm(rho - rho.conj().T)
    if not hermiticity <= HERMITICITY_TOL:
        raise SolverError(f"steady state is not Hermitian (deviation {hermiticity:.3e})")
    trace = np.trace(rho).real
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise SolverError(f"steady state trace deviates from one by {abs(trace - 1.0):.3e}")
    smallest = min(float(np.linalg.eigvalsh(rho[np.ix_(kets, kets)])[0]) for kets in blocks)
    if not smallest >= EIGENVALUE_FLOOR:
        raise SolverError(f"steady state has negative eigenvalue {smallest:.3e}")


def steady_rho(system: TwoCavitySystem, cfg: FockConfig | None = None) -> DensityMatrix:
    """Steady density matrix at the configured truncation.

    Each atomic sector with non-zero weight is solved on the two-mode field
    space and checked on its own: Hermitian, trace one, no eigenvalue below
    the floor. A mixture of such states with weights summing to one is
    itself such a state.
    """
    cfg = cfg or FockConfig()
    _check_config(system, cfg)
    sectors = []
    residual_sq = 0.0
    for weight, sign in atomic_sectors(system):
        rho, residual = _sector_steady(system, cfg, sign)
        sectors.append((weight, sign, rho))
        residual_sq += (weight * residual) ** 2
    return DensityMatrix(sectors=tuple(sectors), n_max=cfg.n_max, residual=float(np.sqrt(residual_sq)))


def converged_steady_rho(
    system: TwoCavitySystem,
    cfg: FockConfig | None = None,
    occupation_tol: float = 1e-8,
    step: int = 2,
) -> tuple[DensityMatrix, FockConfig]:
    """Escalate the truncation until the steady occupations stop moving.

    Returns the converged state and the configuration that produced it.
    Raises SolverError when the dimension guard is hit before convergence.
    """
    cfg = cfg or FockConfig()
    previous = None
    current_cfg = cfg
    while True:
        state = steady_rho(system, current_cfg)
        occ = np.array(
            [
                np.trace(state.reduced_left() @ np.diag(np.arange(current_cfg.levels))).real,
                np.trace(state.reduced_right() @ np.diag(np.arange(current_cfg.levels))).real,
            ]
        )
        if previous is not None and np.max(np.abs(occ - previous)) < occupation_tol:
            return state, current_cfg
        previous = occ
        current_cfg = replace(current_cfg, n_max=current_cfg.n_max + step)
        try:
            _guard_dim(current_cfg.levels**2, current_cfg)
        except ValidationError as exc:
            raise SolverError(f"truncation escalation at n_max={current_cfg.n_max} before occupations "
                              f"converged: {exc}") from exc


def _dissipator(rho: sp.csr_matrix, c: sp.csr_matrix) -> sp.csr_matrix:
    cd = c.conj().T
    cdc = cd @ c
    return c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)


def _adjoint_dissipator(h: sp.csr_matrix, c: sp.csr_matrix) -> sp.csr_matrix:
    """D^dagger[H] = c^dagger H c - {c^dagger c, H}/2, so Tr(H D[rho]) = Tr(D^dagger[H] rho)."""
    cd = c.conj().T
    cdc = cd @ c
    return (cd @ h @ c - 0.5 * (cdc @ h + h @ cdc)).tocsr()


def _expectation(op: sp.spmatrix, rho: np.ndarray) -> float:
    """Re Tr(op rho), summed over the nonzeros of the sparse op."""
    op = op.tocoo()
    return float(np.dot(op.data, rho[op.col, op.row]).real)


def oracle_currents(system: TwoCavitySystem, rho: DensityMatrix) -> CurrentReport:
    """Boundary currents evaluated as traces of the Hamiltonian against each
    reservoir's dissipator, sum_s p_s Tr(H_s D[rho_s]) over atomic sectors,
    each taken as Tr(D^dagger[H_s] rho_s)."""
    if [(weight, sign) for weight, sign, _ in rho.sectors] != atomic_sectors(system):
        raise ValueError("density matrix and system disagree about the atom factor or its sector weights")
    a_left, a_right = _field_ops(rho.n_max + 1)
    channels = _collapse_channels(system, a_left, a_right)
    n_left_op = a_left.conj().T @ a_left
    coherence_op = a_left.conj().T @ a_right
    i_left = i_right = occ_left = coherence = 0.0
    for weight, sign, state in rho.sectors:
        h = _sector_hamiltonian(system, a_left, a_right, sign)
        flows = [rate * _expectation(_adjoint_dissipator(h, c), state) for c, rate in channels]
        i_left += weight * (flows[0] + flows[1])
        i_right += weight * (flows[2] + flows[3])
        occ_left += weight * _expectation(n_left_op, state)
        coherence += weight * _expectation(coherence_op, state)
    i_occ = (system.left.mean_occupation - occ_left) * system.omega_left
    i_coh = system.coupling * coherence

    imbalance = abs(i_left + i_right)
    if imbalance > max(1e-8 * abs(i_left), 1e-8 * system.omega_left**2):
        warnings.warn(
            f"boundary currents do not balance (|I_L + I_R| = {imbalance:.3e}); "
            "the density matrix is not steady",
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


def thermal_fidelity(rho_mode: np.ndarray, nbar: float) -> float:
    """Uhlmann fidelity of a single-mode state against the truncated Gibbs
    state at the given occupation."""
    rho_mode = np.asarray(rho_mode)
    n_levels = rho_mode.shape[0]
    reference = thermal_state(n_levels, nbar)
    sqrt_ref = np.sqrt(np.diag(reference).real)
    inner = sqrt_ref[:, None] * rho_mode * sqrt_ref[None, :]
    eigenvalues = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(eigenvalues, 0.0, None))))


def g2_zero(rho_mode: np.ndarray) -> float:
    """Equal-time second-order correlation of a single-mode state."""
    rho_mode = np.asarray(rho_mode)
    populations = np.diag(rho_mode).real
    levels = np.arange(populations.size)
    mean = float(np.sum(levels * populations))
    if mean <= 0.0:
        raise ValueError("second-order correlation is undefined at zero mean occupation")
    pairs = float(np.sum(levels * (levels - 1) * populations))
    return pairs / mean**2
