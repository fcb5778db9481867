"""Brute-force verification path on a truncated Fock space.

Finds the steady density matrix of the two-cavity system on the truncated
Fock space and evaluates currents and state diagnostics on it, independently
of the moment and covariance solvers, so the paths must agree up to Fock
truncation error only.

The atomic population is conserved, so the oracle works per atomic sector
(``model.atomic_sectors``): in sector s the right cavity is shifted by
s chi, the field state rho_s solves the atom-free generator on the two-mode
space, and every quantity is the p_s-weighted sum over sectors.

Every field operator on the truncated two-mode space has at most one nonzero
per row, so each is held as a gather (``_ladder``): the operator takes the
entry at ``source[k]`` to row k with the factor ``weight[k]``. The sector
Hamiltonian, the reservoir jumps, the damping sum_c rate c^dagger c (which
is diagonal), the Lindblad residual and the currents are all stated in that
one form, on numpy arrays.

The generator conserves the difference between ket and bra excitation
numbers, so rho_s is block-diagonal in the total excitation number
n = 0 .. 2 n_max, and its equations couple block n only to n +- 1 through
the reservoir jumps. Each sector is solved by dense block elimination over
all of these blocks, no Gaussian assumption made. Each Schur block of the
elimination is inverted by 2x2 block recursion down to pivoted LAPACK
inverses of at most ``INVERSE_LEAF`` rows, so that nearly all of the work is
matrix products: the triangular solves behind ``np.linalg.solve`` run at
about a quarter of their rate. The splits above the leaves do not pivot, and
one step of iterative refinement on the block equations restores the digits
they lose. The result is then checked against the full Lindblad equation
-i[H_s, rho] + sum_c rate D[c] rho, evaluated on the whole of rho, not on
the solved blocks, and for positivity, by the moment path's rules: its
backward error within ``model.RESIDUAL_TOL``, its relative positivity margin
within ``model.POSITIVITY_TOL``, its currents ``closedform._check_balance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closedform import CurrentReport, _check_balance, _classification
from .model import (POSITIVITY_TOL, RESIDUAL_TOL, SolverError, TwoCavitySystem, ValidationError, _backward_error,
                    _is_integer, atomic_sectors)

__all__ = [
    "FockConfig",
    "DensityMatrix",
    "gibbs_tail_mass",
    "thermal_state",
    "steady_rho",
    "converged_steady_rho",
    "oracle_currents",
    "thermal_fidelity",
    "g2_zero",
]


@dataclass(frozen=True)
class FockConfig:
    """Truncation controls for the oracle.

    ``tail_bound`` caps the Gibbs weight beyond the truncation at the hotter
    reservoir occupation, so the cut cannot silently bias the steady state.
    ``max_vectorized_dim`` caps levels**4, both the number of entries of the
    whole field state, on which the Lindblad residual is evaluated, and that
    of the generator on the largest excitation block (levels kets), which the
    block elimination solves; raise it deliberately for large truncations.
    """

    n_max: int = 12
    tail_bound: float = 1e-8
    max_vectorized_dim: int = 200_000

    @property
    def levels(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class DensityMatrix:
    """Steady state on the truncated space, one field state per atomic sector.

    ``sectors`` holds (p_s, s, rho_s): the weight and sign of each atomic
    sector and its two-mode field state, as ``model.atomic_sectors`` orders
    them; without an atom it is the single entry (1.0, 0.0, rho).
    ``residual`` is the largest backward error of the full Lindblad equation
    over its atomic sectors (``_lindblad_backward_error``). Each field state
    is checked finite and held as a read-only view.
    """

    sectors: tuple[tuple[float, float, np.ndarray], ...]
    n_max: int
    residual: float = 0.0

    def __post_init__(self):
        sectors = []
        for weight, sign, rho in self.sectors:
            rho = np.asarray(rho).view()
            if not (math.isfinite(weight) and math.isfinite(sign) and np.all(np.isfinite(rho))):
                raise ValueError(f"density matrix: the atomic sector {sign} has a non-finite weight or entry")
            rho.flags.writeable = False
            sectors.append((weight, sign, rho))
        object.__setattr__(self, "sectors", tuple(sectors))

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
    if not math.isfinite(n_max):
        raise ValueError(f"n_max must be finite, got {n_max}")
    if not 0 <= nbar < math.inf:
        raise ValueError(f"nbar (mean occupation) must be non-negative and finite, got {nbar}")
    if nbar == 0:
        return 0.0
    q = nbar / (1.0 + nbar)
    return q ** (n_max + 1)


def thermal_state(n_levels: int, nbar: float) -> np.ndarray:
    """Truncated single-mode Gibbs state, renormalised on the kept levels."""
    if not _is_integer(n_levels) or n_levels < 1:
        raise ValueError(f"n_levels must be an integer of at least 1, got {n_levels!r}")
    if not 0 <= nbar < math.inf:
        raise ValueError(f"nbar (mean occupation) must be non-negative and finite, got {nbar}")
    if nbar == 0:
        rho = np.zeros((n_levels, n_levels))
        rho[0, 0] = 1.0
        return rho
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(n_levels)
    weights /= weights.sum()
    return np.diag(weights)


def _check_config(system: TwoCavitySystem, cfg: FockConfig) -> None:
    """Raise ValidationError unless n_max is an integer of at least 1 and the
    Gibbs tail mass and levels**4 are within their bounds."""
    n_max = cfg.n_max
    if not _is_integer(n_max) or n_max < 1:
        raise ValidationError([f"fock: n_max must be an integer of at least 1, got {n_max!r}"])
    hot = max(system.left.mean_occupation, system.right.mean_occupation)
    tail = gibbs_tail_mass(n_max, hot)
    if not tail <= cfg.tail_bound:
        raise ValidationError([
            f"fock: Gibbs tail mass {tail:.3e} beyond n_max={n_max} at nbar={hot} "
            f"exceeds the bound {cfg.tail_bound:.1e}; raise n_max or the bound"
        ])
    if not cfg.levels**4 <= cfg.max_vectorized_dim:
        raise ValidationError([f"fock: vectorised space dimension {cfg.levels**4} exceeds the guard "
                               f"{cfg.max_vectorized_dim}; raise max_vectorized_dim to override"])


def _ladder(levels: int, di: int, dj: int) -> tuple[np.ndarray, np.ndarray]:
    """The ladder operator taking |i + di, j + dj> to |i, j>, as a gather.

    The ket |i, j> sits at index i * levels + j. Row k of the operator holds
    its one nonzero, ``weight[k]``, at column ``source[k]``, so
    (X psi)[k] = weight[k] psi[source[k]]. Each shift of -1, 0 or +1 is one
    mode's a^dagger, identity or a, with the factor sqrt of the larger
    occupation: a_L is (1, 0), a_R^dagger is (0, -1), a_L^dagger a_R is
    (-1, 1). A row whose source lies beyond the truncation has weight 0 and
    source 0.
    """
    i, j = np.divmod(np.arange(levels * levels), levels)
    si, sj = i + di, j + dj
    inside = (si >= 0) & (si < levels) & (sj >= 0) & (sj < levels)
    weight = inside.astype(float)
    for n, shift in ((i, di), (j, dj)):
        if shift:
            weight = weight * np.sqrt(np.maximum(n, n + shift))
    return np.where(inside, si * levels + sj, 0), weight


def _squared(op: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Diagonal of c^dagger c for a ladder gather c: each column of c holds
    at most one nonzero, so c^dagger c is diagonal."""
    source, weight = op
    return np.bincount(source, weight * weight, minlength=source.size)


def _sector_hamiltonian(system: TwoCavitySystem, levels: int, sector: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Field Hamiltonian of one atomic sector, as the gathers it sums: the
    hopping J a_L^dagger a_R, the diagonal omega_L n_L + (omega_R + sector chi) n_R,
    and the hopping J a_L a_R^dagger, in the order of their columns.

    The dispersive pull shifts the right-cavity frequency by sector * chi;
    the shifted frequency may legitimately be negative when chi exceeds
    omega_right. Sector-constant terms drop out of the generator and of the
    dissipator traces, so they are omitted.
    """
    diagonal = (system.omega_left * _squared(_ladder(levels, 1, 0))
                + (system.omega_right + system.chi * sector) * _squared(_ladder(levels, 0, 1)))
    hop_in, hop_out = _ladder(levels, -1, 1), _ladder(levels, 1, -1)
    return [(hop_in[0], system.coupling * hop_in[1]), (np.arange(levels * levels), diagonal),
            (hop_out[0], system.coupling * hop_out[1])]


def _channels(system: TwoCavitySystem, levels: int):
    """(c, c^dagger, rate) of the reservoir jumps a_L, a_L^dagger, a_R, a_R^dagger."""
    channels = []
    for (di, dj), res in (((1, 0), system.left), ((0, 1), system.right)):
        down, up = _ladder(levels, di, dj), _ladder(levels, -di, -dj)
        channels.append((down, up, res.rate * (res.mean_occupation + 1.0)))
        channels.append((up, down, res.rate * res.mean_occupation))
    return channels


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


def _jumps(channels, blocks: list[np.ndarray], block_of: np.ndarray, position: np.ndarray) -> dict[int, list[list]]:
    """sum_c rate c rho c^dagger between neighbouring excitation blocks.

    Each jump operator is a real gather, so (c rho c^dagger)[k, l] =
    w_k w_l rho[s_k, s_l], which acts on Y = Re rho + Im rho alike.
    ``jumps[step][n]`` lists one (source, weight) pair per channel that
    feeds block n from block n + step; ``source`` indexes vec Y of block
    n + step.
    """
    jumps = {-1: [[] for _ in blocks], 1: [[] for _ in blocks]}
    for (source, weight), _, rate in channels:
        if rate == 0.0:
            continue
        row = np.flatnonzero(weight)[0]
        step = int(block_of[source[row]] - block_of[row])
        amplitude = np.sqrt(rate) * weight
        for n, kets in enumerate(blocks):
            if 0 <= n + step < len(blocks):
                s, w = position[source[kets]], amplitude[kets]
                width = blocks[n + step].size
                jumps[step][n].append(((s[:, None] * width + s).reshape(-1), np.outer(w, w).reshape(-1)))
    return jumps


@dataclass(frozen=True)
class _BlockStructure:
    """The sector-independent part of the block elimination: the ket indices
    of each excitation block, each ket's position inside its block, the
    damping Gamma = sum_c rate c^dagger c (diagonal) and the jumps between
    neighbouring blocks."""

    blocks: list[np.ndarray]
    position: np.ndarray
    gamma: np.ndarray
    jumps: dict[int, list[list]]


def _block_structure(channels, levels: int) -> _BlockStructure:
    blocks = _excitation_blocks(levels)
    block_of, position = np.empty(levels**2, dtype=int), np.empty(levels**2, dtype=int)
    for n, kets in enumerate(blocks):
        block_of[kets], position[kets] = n, np.arange(kets.size)
    gamma = sum(rate * _squared(c) for c, _, rate in channels)
    return _BlockStructure(blocks, position, gamma, _jumps(channels, blocks, block_of, position))


INVERSE_LEAF = 48  # below this size an inverse is one pivoted LAPACK call


def _inverse(s: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix by 2x2 block recursion (Strassen 1969).

    With X = inv(S11) and the Schur complement T = S22 - S21 X S12,
    inv(S) = [[X + X S12 Y S21 X, -X S12 Y], [-Y S21 X, Y]], Y = inv(T),
    both inverses taken the same way. Apart from the inverses of the
    leaves, which ``np.linalg.inv`` takes with partial pivoting, all the
    work is matrix products; the triangular solves behind ``np.linalg.solve``
    run at about a quarter of their rate. The splits themselves do not
    pivot: where S21 X S12 is much larger than the complement T it leaves,
    the inverse loses digits, so the caller refines the solution it builds
    from it.
    """
    m = s.shape[0]
    if m <= INVERSE_LEAF:
        return np.linalg.inv(s)
    h = m // 2
    x = _inverse(s[:h, :h])
    x_s12, s21_x = x @ s[:h, h:], s[h:, :h] @ x
    w = np.empty_like(s)
    w[h:, h:] = y = _inverse(s[h:, h:] - s21_x @ s[:h, h:])
    w[:h, h:] = -(x_s12 @ y)
    w[h:, :h] = -(y @ s21_x)
    w[:h, :h] = x - w[:h, h:] @ s21_x
    return w


def _block_steady_state(h, structure: _BlockStructure) -> np.ndarray:
    """Trace-one steady state of the generator, solved on its excitation blocks.

    The generator conserves the ket-minus-bra excitation difference, so the
    steady state is block-diagonal in the total excitation number n, and its
    equations couple block n only to n +- 1 through the jumps:
    C_n y_{n-1} + A_n y_n + B_n y_{n+1} = 0, with y_n = vec Y_n. The vacuum block is pinned to
    y_0 = 1 and its equation dropped; the trace functional weighs that
    equation, so the rest stay independent. Eliminating upward from n = 1
    gives y_n = offset_n - gain_n y_{n+1}, with gain_n = W_n B_n and W_n
    (``_inverse``) the inverse of the Schur block A_n - C_n gain_{n-1}.
    ``_sweep`` then finds the offsets and fills every block. The inverses
    are not pivoted across their splits, so one step of iterative
    refinement follows: the block equations' residual, evaluated on the
    blocks themselves, is swept through the same inverses and its
    correction added. The state is normalised by its trace.
    """
    blocks, position, jumps = structure.blocks, structure.position, structure.jumps
    dim = position.size
    sizes = [kets.size**2 for kets in blocks] + [0]
    hamiltonians, inverses = [None], [None]  # block 0 is pinned, not solved
    gain = np.zeros((1, sizes[1]))
    for n in range(1, len(blocks)):
        kets = blocks[n]
        k = np.zeros((kets.size, kets.size))
        for source, weight in h:  # the Hamiltonian conserves n
            k[np.arange(kets.size), position[source[kets]]] += weight[kets]
        schur = _block_generator(k, np.diag(structure.gamma[kets]))
        for source, weight in jumps[-1][n]:
            schur -= weight[:, None] * gain[source]  # C_n gain_{n-1}
        couple = np.zeros((sizes[n], sizes[n + 1]))  # B_n
        for source, weight in jumps[1][n]:
            couple[np.arange(sizes[n]), source] += weight
        try:
            inverse = _inverse(schur)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"no unique steady state: {exc}") from exc
        gain = inverse @ couple
        hamiltonians.append(k)
        inverses.append(inverse)
    ys = _sweep(inverses, jumps, 1.0, [np.zeros(size) for size in sizes[:-1]])
    residual = _block_residual(hamiltonians, structure, ys)
    correction = _sweep(inverses, jumps, 0.0, [-r for r in residual])
    del inverses  # as large as the state's blocks together; the state is assembled without them
    rho = np.zeros((dim, dim), dtype=complex)
    for kets, y, dy in zip(blocks, ys, correction):
        block = (y + dy).reshape(kets.size, kets.size)
        rho[np.ix_(kets, kets)] = 0.5 * (block + block.T) + 0.5j * (block - block.T)
    trace = np.trace(rho).real
    if not (np.all(np.isfinite(rho)) and trace > 0.0):
        raise SolverError("no unique steady state: the block elimination gave a non-finite or traceless state")
    rho /= trace
    return rho


def _feed(jumps, n: int, step: int, y: np.ndarray) -> np.ndarray:
    """C_n y (step -1) or B_n y (step +1): the jumps into block n from y on block n + step."""
    return sum(weight * y[source] for source, weight in jumps[step][n])


def _sweep(inverses, jumps, y0: float, rhs) -> list[np.ndarray]:
    """The blocks y_n of C_n y_{n-1} + A_n y_n + B_n y_{n+1} = rhs_n for n >= 1,
    with y_0 given: offset_n = W_n (rhs_n - C_n offset_{n-1}) upward from
    offset_0 = y_0, then y_n = offset_n - W_n B_n y_{n+1} downward."""
    offsets = [np.full(1, y0)]
    for n in range(1, len(inverses)):
        offsets.append(inverses[n] @ (rhs[n] - _feed(jumps, n, -1, offsets[-1])))
    ys = [offsets[-1]]
    for n in range(len(inverses) - 2, 0, -1):
        ys.append(offsets[n] - inverses[n] @ _feed(jumps, n, 1, ys[-1]))
    ys.append(offsets[0])
    return ys[::-1]


def _block_residual(hamiltonians, structure: _BlockStructure, ys) -> list[np.ndarray]:
    """C_n y_{n-1} + A_n y_n + B_n y_{n+1} for n >= 1, with A_n applied as
    Y -> Y^T K - K Y^T - (Gamma Y + Y Gamma)/2 on the block's matrix Y, the
    map of ``_block_generator``; entry 0 stands for the dropped equation."""
    residual = [np.zeros(1)]
    for n in range(1, len(ys)):
        kets, k = structure.blocks[n], hamiltonians[n]
        y = ys[n].reshape(kets.size, kets.size)
        g = structure.gamma[kets]
        a_y = y.T @ k - k @ y.T - 0.5 * (g[:, None] * y + y * g)
        r = a_y.reshape(-1) + _feed(structure.jumps, n, -1, ys[n - 1])
        if n + 1 < len(ys):
            r = r + _feed(structure.jumps, n, 1, ys[n + 1])
        residual.append(r)
    return residual


def _lindblad_rhs(h, channels, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_c rate D[c] rho on the whole of rho, from the gathers;
    nothing of the excitation-block structure is assumed.

    For a gather X, (X rho)[k, l] = w_k rho[s_k, l] and
    (c rho c^dagger)[k, l] = w_k rho[s_k, s_l] w_l; H is real symmetric, so
    (rho H)[k, l] = sum_X rho[k, s_l] w_l over its gathers. The gathers of H
    whose every source is its own row make its diagonal d, and with the
    damping Gamma = sum_c rate c^dagger c they act on rho as one coefficient
    per entry, (-i d_k - Gamma_k/2) + (i d_l - Gamma_l/2); the hops of H and
    the jumps stay gathers. The rows are evaluated a few at a time, so that
    each pass over them stays in cache.
    """
    rows = np.arange(rho.shape[0])
    hops = [(s, w) for s, w in h if not np.array_equal(s, rows)]
    diagonal = sum((w for s, w in h if np.array_equal(s, rows)), np.zeros(rows.size))
    jumps = [(s, np.sqrt(rate) * w) for (s, w), _, rate in channels if rate != 0.0]
    damping = sum((rate * _squared(c) for c, _, rate in channels), np.zeros(rows.size))
    decay = -1j * diagonal - 0.5 * damping
    rhs = np.empty_like(rho)
    for start in range(0, rows.size, 32):
        k = slice(start, start + 32)
        out = (decay[k, None] + decay.conj()) * rho[k]
        for s, w in hops:
            out += -1j * (w[k, None] * rho[s[k]] - np.take(rho[k], s, axis=1) * w)
        for s, w in jumps:
            out += np.take(w[k, None] * rho[s[k]], s, axis=1) * w
        rhs[k] = out
    return rhs


def _lindblad_backward_error(h, channels, rho: np.ndarray) -> float:
    """``model._backward_error`` of rho in L(rho) = -i[H, rho] + sum_c rate D[c] rho:
    its terms have norms of at most 2 ||H|| ||rho||, rate ||c||^2 ||rho|| and
    rate ||c^dagger c|| ||rho||, so ||H|| + sum_c rate (||c||^2 + ||c^dagger c||)/2
    takes the place of ||A||, with no drive. The Frobenius norms are read from
    the gathers: those of H have distinct columns, and c^dagger c is diagonal."""
    size = math.sqrt(sum(np.dot(w, w) for _, w in h)) + 0.5 * sum(
        rate * (np.dot(c[1], c[1]) + np.linalg.norm(_squared(c))) for c, _, rate in channels)
    return float(_backward_error(np.linalg.norm(_lindblad_rhs(h, channels, rho)), size, np.linalg.norm(rho), 0.0))


def _sector_steady(h, channels, structure: _BlockStructure):
    """Steady field state of one atomic sector, with Hamiltonian gathers h, and
    its backward error, both checked as every steady solve is."""
    rho = _block_steady_state(h, structure)
    # Hermitian and of trace one by construction: each real block Y is laid out as
    # (Y + Y^T)/2 + i (Y - Y^T)/2 and rho divided by its trace; each block's spectrum is exact
    spectrum = np.concatenate([np.linalg.eigvalsh(rho[np.ix_(kets, kets)]) for kets in structure.blocks])
    margin = float(spectrum.min() / np.abs(spectrum).max())
    if not margin >= -POSITIVITY_TOL:
        raise SolverError(f"sector state is not positive semidefinite (relative eigenvalue {margin:.3e})")
    residual = _lindblad_backward_error(h, channels, rho)
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"sector steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return rho, residual


def steady_rho(system: TwoCavitySystem, cfg: FockConfig | None = None) -> DensityMatrix:
    """Steady density matrix at the configured truncation.

    Each atomic sector with non-zero weight is solved on the two-mode field
    space, Hermitian and of trace one by construction, and checked on its
    own (``_sector_steady``). A mixture of such states with weights summing
    to one is itself such a state.
    """
    cfg = cfg or FockConfig()
    _check_config(system, cfg)
    channels = _channels(system, cfg.levels)
    structure = _block_structure(channels, cfg.levels)
    sectors, residuals = [], []
    for weight, sign in atomic_sectors(system):
        rho, residual = _sector_steady(_sector_hamiltonian(system, cfg.levels, sign), channels, structure)
        sectors.append((weight, sign, rho))
        residuals.append(residual)
    return DensityMatrix(sectors=tuple(sectors), n_max=cfg.n_max, residual=max(residuals))


def converged_steady_rho(
    system: TwoCavitySystem,
    cfg: FockConfig | None = None,
    occupation_tol: float = 1e-8,
    step: int = 2,
) -> tuple[DensityMatrix, FockConfig]:
    """Escalate the truncation until the steady occupations stop moving.

    Returns the converged state and the configuration that produced it.
    Raises ValueError, before the first solve, unless ``occupation_tol`` is
    positive and finite and ``step`` an integer of at least 1, and
    SolverError when the dimension guard is hit before convergence.
    """
    if not 0.0 < occupation_tol < math.inf:
        raise ValueError(f"occupation_tol must be positive and finite, got {occupation_tol}")
    if not _is_integer(step):
        raise ValueError(f"step must be an integer, got {step!r}")
    if not step >= 1:
        raise ValueError(f"step must be at least 1, got {step}")
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
        try:  # the tail mass only falls as n_max grows: only the dimension guard can fire
            _check_config(system, current_cfg)
        except ValidationError as exc:
            raise SolverError(f"truncation escalation at n_max={current_cfg.n_max} before occupations "
                              f"converged: {exc}") from exc


def _adjoint_dissipator(h, c, c_dagger):
    """D^dagger[H] = c^dagger H c - {c^dagger c, H}/2 as gathers, term by term
    of H, so that Tr(H D[rho]) = Tr(D^dagger[H] rho). Ladder shifts commute,
    so each term keeps the columns of its term of H."""
    gamma, middle = _squared(c), c_dagger[0]
    terms = []
    for source, weight in h:
        sandwich = (c_dagger[1] * weight[middle]) * c[1][source[middle]]
        terms.append((source, sandwich - 0.5 * (gamma * weight + weight * gamma[source])))
    return terms


def _expectation(op, rho: np.ndarray) -> float:
    """Re Tr(X rho) = sum_k w_k rho[s_k, k] for X the sum of the gathers
    ``op``, listed in the order of their columns; the sum runs over the
    nonzero entries of X, row by row."""
    source = np.stack([s for s, _ in op], axis=-1).reshape(-1)
    weight = np.stack([w for _, w in op], axis=-1).reshape(-1)
    entries = np.flatnonzero(weight)
    return float(np.dot(weight[entries], rho[source[entries], entries // len(op)]).real)


def oracle_currents(system: TwoCavitySystem, rho: DensityMatrix) -> CurrentReport:
    """Boundary currents evaluated as traces of the Hamiltonian against each
    reservoir's dissipator, sum_s p_s Tr(H_s D[rho_s]) over atomic sectors,
    each taken as Tr(D^dagger[H_s] rho_s)."""
    if [(weight, sign) for weight, sign, _ in rho.sectors] != atomic_sectors(system):
        raise ValueError("density matrix and system disagree about the atom factor or its sector weights")
    levels = rho.n_max + 1
    channels = _channels(system, levels)
    n_left = [(np.arange(levels * levels), _squared(_ladder(levels, 1, 0)))]
    coherence_op = [_ladder(levels, -1, 1)]  # a_L^dagger a_R
    i_left = i_right = occ_left = coherence = 0.0
    for weight, sign, state in rho.sectors:
        h = _sector_hamiltonian(system, levels, sign)
        flows = [rate * _expectation(_adjoint_dissipator(h, c, c_dagger), state) for c, c_dagger, rate in channels]
        i_left += weight * (flows[0] + flows[1])
        i_right += weight * (flows[2] + flows[3])
        occ_left += weight * _expectation(n_left, state)
        coherence += weight * _expectation(coherence_op, state)
    i_occ = (system.left.mean_occupation - occ_left) * system.omega_left
    i_coh = system.coupling * coherence
    _check_balance([i_left], [i_right], [system.omega_left], "density matrix", stacklevel=2)
    return CurrentReport(i_left, i_right, i_occ, i_coh, *_classification(system, i_left))


def _finite_mode(rho_mode) -> np.ndarray:
    rho_mode = np.asarray(rho_mode)
    if not np.all(np.isfinite(rho_mode)):
        raise ValueError("rho_mode (single-mode state) has a non-finite entry")
    return rho_mode


def thermal_fidelity(rho_mode: np.ndarray, nbar: float) -> float:
    """Uhlmann fidelity of a single-mode state against the truncated Gibbs
    state at the given occupation."""
    rho_mode = _finite_mode(rho_mode)
    n_levels = rho_mode.shape[0]
    reference = thermal_state(n_levels, nbar)
    sqrt_ref = np.sqrt(np.diag(reference).real)
    inner = sqrt_ref[:, None] * rho_mode * sqrt_ref[None, :]
    eigenvalues = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(eigenvalues, 0.0, None))))


def g2_zero(rho_mode: np.ndarray) -> float:
    """Equal-time second-order correlation of a single-mode state."""
    rho_mode = _finite_mode(rho_mode)
    populations = np.diag(rho_mode).real
    levels = np.arange(populations.size)
    mean = float(np.sum(levels * populations))
    if mean <= 0.0:
        raise ValueError("second-order correlation is undefined at zero mean occupation")
    pairs = float(np.sum(levels * (levels - 1) * populations))
    return pairs / mean**2
