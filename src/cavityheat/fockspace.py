"""Brute-force verification path on a truncated Fock space.

Finds the steady density matrix of a cavity pair or an N-site chain on the
truncated N-mode Fock space, from the site vectors (``model._sites``) that
every moment solve reads, and evaluates currents and state diagnostics on it
independently of the moment and covariance solvers, so the paths must agree
up to Fock truncation error only.

The atomic population is conserved, so the oracle works per atomic sector
(``model.atomic_sectors``): in sector s the host cavity is shifted by
s chi, the field state rho_s solves the atom-free generator on the N-mode
space, and every quantity is the p_s-weighted sum over sectors.

Every field operator on the truncated N-mode space has at most one nonzero
per row, so each is held as a gather (``_ladder``): the operator takes the
entry at ``source[k]`` to row k with the factor ``weight[k]``. The sector
Hamiltonian, the reservoir jumps, the damping sum_c rate c^dagger c (which
is diagonal), the Lindblad residual and the currents are all stated in that
one form, on numpy arrays.

The hopping conserves the total excitation number and the end reservoirs
move it by +-1, so rho_s is block-diagonal in the total excitation number
n = 0 .. N n_max, and its equations couple block n only to n +- 1 through
the reservoir jumps. Each sector is solved by dense block elimination over
all of these blocks, no Gaussian assumption made. Each Schur block of the
elimination is inverted by 2x2 block recursion down to pivoted LAPACK
inverses of at most ``INVERSE_LEAF`` rows, so that nearly all of the work is
matrix products: the triangular solves behind ``np.linalg.solve`` run at
about a quarter of their rate. The splits above the leaves do not pivot, and
one step of iterative refinement on the block equations restores the digits
they lose. The result is then checked against the full Lindblad equation
-i[H_s, rho] + sum_c rate D[c] rho, evaluated on the whole of rho, not on
the solved blocks, and for positivity, by the moment path's rules
(``model._check_steady``), and its currents end in the moment path's report
and balance rule (``model._report``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .model import (ArraySystem, CurrentReport, SolverError, TwoCavitySystem, ValidationError, _Sites,
                    _backward_error, _check_steady, _is_integer, _report, _sites, _stack, atomic_sectors)

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


MAX_HELD_BYTES = 2**27  # the block inverses one solve may hold (``_check_config``): 128 MiB


@dataclass(frozen=True)
class FockConfig:
    """Truncation controls for the oracle.

    ``tail_bound`` caps the Gibbs weight beyond the truncation at the hotter
    reservoir occupation, so the cut cannot silently bias the steady state.
    The size of a solve is not configured: ``MAX_HELD_BYTES`` bounds it.
    """

    n_max: int = 12
    tail_bound: float = 1e-8

    @property
    def levels(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class DensityMatrix:
    """Steady state on the truncated space, one field state per atomic sector.

    ``sectors`` holds (p_s, s, rho_s): the weight and sign of each atomic
    sector and its N-mode field state, as ``model.atomic_sectors`` orders
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

    @property
    def n_modes(self) -> int:
        return round(math.log(self.sectors[0][2].shape[0], self.n_max + 1))

    def reduced(self, site: int) -> np.ndarray:
        """Single-mode state of one cavity, 0-based (-1 is the last), the others traced out."""
        modes, levels = self.n_modes, self.n_max + 1
        ket = list(range(modes))
        bra = [modes if j == ket[site] else j for j in ket]  # the one index not traced
        return sum(weight * np.einsum(rho.reshape((levels,) * 2 * modes), ket + bra, [ket[site], modes])
                   for weight, _, rho in self.sectors)

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


def _check_config(sites: _Sites, cfg: FockConfig) -> None:
    """Raise ValidationError unless n_max is an integer of at least 1, the tail
    bound non-negative (not NaN) and the Gibbs tail mass within it, and the
    inverses the block solve keeps, 8 m_n**4 bytes for each excitation block of
    m_n kets, within ``MAX_HELD_BYTES`` (peak RSS measured 1.5-3x them). Since
    m**4 >= m, levels**N kets alone past it are refused before the m_n are counted."""
    n_max = cfg.n_max
    if not _is_integer(n_max) or n_max < 1:
        raise ValidationError([f"fock: n_max must be an integer of at least 1, got {n_max!r}"])
    if not cfg.tail_bound >= 0:
        raise ValidationError([f"fock: tail_bound must be non-negative, got {cfg.tail_bound!r}"])
    hot = max(sites.nbar[0].tolist())
    tail = gibbs_tail_mass(n_max, hot)
    if not tail <= cfg.tail_bound:
        raise ValidationError([
            f"fock: Gibbs tail mass {tail:.3e} beyond n_max={n_max} at nbar={hot} "
            f"exceeds the bound {cfg.tail_bound:.1e}; raise n_max or the bound"
        ])
    modes, levels = sites.onsite.shape[1], int(cfg.levels)  # a Python int cannot wrap
    held = 8 * levels**modes
    if held <= MAX_HELD_BYTES:  # count the m_n, the coefficients of (1 + x + .. + x**n_max)**N
        held = 8 * int(np.sum(functools.reduce(np.convolve, [np.ones(levels, dtype=np.int64)] * modes) ** 4.0))
    if held > MAX_HELD_BYTES:
        raise ValidationError([f"fock: the block solve of {modes} modes at n_max={n_max} would hold at least {held} "
                               f"bytes of inverses ({held / 2**20:.4g} MiB), over the bound of {MAX_HELD_BYTES}"])


def _ladder(levels: int, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ladder operator taking |n + shifts> to |n> on N modes, as a gather.

    The ket |n_1, .., n_N> sits at index sum_j n_j levels**(N - 1 - j), so a
    pair's |i, j> at i * levels + j. Row k of the operator holds its one
    nonzero, ``weight[k]``, at column ``source[k]``, so
    (X psi)[k] = weight[k] psi[source[k]]. Each shift of -1, 0 or +1 is one
    mode's a^dagger, identity or a, with the factor sqrt of the larger
    occupation: with e_j the unit vector of mode j, a_j is e_j, a_j^dagger
    is -e_j and a_j^dagger a_k is e_k - e_j. A row whose source lies beyond
    the truncation has weight 0 and source 0.
    """
    n = np.indices((levels,) * len(shifts)).reshape(len(shifts), -1)  # n[j, k]: occupation of mode j in ket k
    source = n + np.asarray(shifts)[:, None]
    inside = ((source >= 0) & (source < levels)).all(axis=0)
    weight = inside.astype(float)
    for occupation, shift in zip(n, shifts):
        if shift:
            weight = weight * np.sqrt(np.maximum(occupation, occupation + shift))
    return np.where(inside, levels ** np.arange(len(shifts) - 1, -1, -1) @ source, 0), weight


def _squared(op: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Diagonal of c^dagger c for a ladder gather c: each column of c holds
    at most one nonzero, so c^dagger c is diagonal."""
    source, weight = op
    return np.bincount(source, weight * weight, minlength=source.size)


def _sector_hamiltonian(sites: _Sites, levels: int, sector: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Field Hamiltonian of one atomic sector of a system's site vectors (a
    stack of one), as the gathers it sums: the hops J a_j^dagger a_{j+1} of
    each bond, the diagonal sum_j (omega_j + sector x_j) n_j, and the hops
    J a_j a_{j+1}^dagger, in the order of their columns.

    The shift x_j is chi at the host site and 0 elsewhere; the shifted
    frequency may legitimately be negative when chi exceeds the host's.
    Sector-constant terms drop out of the generator and of the dissipator
    traces, so they are omitted.
    """
    onsite, shift, coupling = sites.onsite[0].tolist(), sites.shift[0].tolist(), sites.coupling[0].item()
    unit = np.eye(len(onsite), dtype=int)
    diagonal = sum((omega + sector * x) * _squared(_ladder(levels, e)) for omega, x, e in zip(onsite, shift, unit))
    hops_in = [_ladder(levels, unit[j + 1] - unit[j]) for j in range(len(onsite) - 1)]
    hops_out = [_ladder(levels, unit[j] - unit[j + 1]) for j in reversed(range(len(onsite) - 1))]
    return ([(source, coupling * weight) for source, weight in hops_in] + [(np.arange(diagonal.size), diagonal)]
            + [(source, coupling * weight) for source, weight in hops_out])


def _channels(sites: _Sites, levels: int):
    """(c, c^dagger, rate) of the reservoir jumps a_1, a_1^dagger, a_N, a_N^dagger,
    from the rates and nbar of sites 1 and N of a stack of one."""
    ends = np.eye(sites.onsite.shape[1], dtype=int)[[0, -1]]
    channels = []
    for end, rate, nbar in zip(ends, sites.rates[0].tolist(), sites.nbar[0].tolist()):
        down, up = _ladder(levels, end), _ladder(levels, -end)
        channels.append((down, up, rate * (nbar + 1.0)))
        channels.append((up, down, rate * nbar))
    return channels


def _excitation_blocks(levels: int, modes: int) -> list[np.ndarray]:
    """Ket indices, ascending (``_ladder`` orders the kets), of each total
    excitation number n = 0 .. modes (levels - 1)."""
    total = np.indices((levels,) * modes).sum(axis=0).reshape(-1)
    return [np.flatnonzero(total == n) for n in range(modes * (levels - 1) + 1)]


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


def _block_structure(channels, levels: int, modes: int) -> _BlockStructure:
    blocks = _excitation_blocks(levels, modes)
    block_of, position = np.empty(levels**modes, dtype=int), np.empty(levels**modes, dtype=int)
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


def _lindblad_norm(h, channels) -> float:
    """||L|| of L(rho) = -i[H, rho] + sum_c rate D[c] rho: its terms have norms of
    at most 2 ||H|| ||rho||, rate ||c||^2 ||rho|| and rate ||c^dagger c|| ||rho||,
    so ||H|| + sum_c rate (||c||^2 + ||c^dagger c||)/2 takes the place of ||A||,
    with no drive. The Frobenius norms are read from the gathers: those of H
    have distinct columns, and c^dagger c is diagonal."""
    return math.sqrt(sum(np.dot(w, w) for _, w in h)) + 0.5 * sum(
        rate * (np.dot(c[1], c[1]) + np.linalg.norm(_squared(c))) for c, _, rate in channels)


def _lindblad_backward_error(h, channels, rho: np.ndarray) -> float:
    """``model._backward_error`` of rho in L(rho) = 0, with ||L|| of ``_lindblad_norm``."""
    norm = _lindblad_norm(h, channels)
    return float(_backward_error(np.linalg.norm(_lindblad_rhs(h, channels, rho)), norm, np.linalg.norm(rho), 0.0))


def _sector_steady(h, channels, structure: _BlockStructure):
    """Steady field state of one atomic sector, with Hamiltonian gathers h, and
    its backward error, both checked as every steady solve is."""
    rho = _block_steady_state(h, structure)
    # Hermitian and of trace one by construction: each real block Y is laid out as
    # (Y + Y^T)/2 + i (Y - Y^T)/2 and rho divided by its trace; each block's spectrum is exact
    spectrum = np.concatenate([np.linalg.eigvalsh(rho[np.ix_(kets, kets)]) for kets in structure.blocks])
    residual = _lindblad_backward_error(h, channels, rho)
    _check_steady(spectrum[None], np.array([residual]), "sector state")
    return rho, residual


def steady_rho(system: Union[TwoCavitySystem, ArraySystem], cfg: FockConfig | None = None) -> DensityMatrix:
    """Steady density matrix of a cavity pair or a chain at the configured truncation.

    Each atomic sector with non-zero weight is solved on the N-mode field
    space, Hermitian and of trace one by construction, and checked on its
    own (``_sector_steady``). A mixture of such states with weights summing
    to one is itself such a state.
    """
    cfg = cfg or FockConfig()
    sites = _sites(_stack(system))
    _check_config(sites, cfg)
    channels = _channels(sites, cfg.levels)
    structure = _block_structure(channels, cfg.levels, sites.onsite.shape[1])
    sectors, residuals = [], []
    for weight, sign in atomic_sectors(system):
        rho, residual = _sector_steady(_sector_hamiltonian(sites, cfg.levels, sign), channels, structure)
        sectors.append((weight, sign, rho))
        residuals.append(residual)
    return DensityMatrix(sectors=tuple(sectors), n_max=cfg.n_max, residual=max(residuals))


def converged_steady_rho(
    system: Union[TwoCavitySystem, ArraySystem],
    cfg: FockConfig | None = None,
    occupation_tol: float = 1e-8,
    step: int = 2,
) -> tuple[DensityMatrix, FockConfig]:
    """Escalate the truncation until the steady occupations stop moving.

    Returns the converged state and the configuration that produced it.
    Raises ValueError, before the first solve, unless ``occupation_tol`` is
    positive and finite and ``step`` an integer of at least 1, and
    SolverError when the next truncation would hold more than
    ``MAX_HELD_BYTES`` before convergence.
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
        occ = np.array([np.arange(current_cfg.levels) @ state.reduced(j).diagonal().real for j in range(state.n_modes)])
        if previous is not None and np.max(np.abs(occ - previous)) < occupation_tol:
            return state, current_cfg
        previous = occ
        current_cfg = replace(current_cfg, n_max=current_cfg.n_max + step)
        try:  # the tail mass only falls as n_max grows: only the size guard can fire
            _check_config(_sites(_stack(system)), current_cfg)
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


def oracle_currents(system: Union[TwoCavitySystem, ArraySystem], rho: DensityMatrix) -> CurrentReport:
    """Boundary currents of a cavity pair or a chain, evaluated as traces of
    the Hamiltonian against each end reservoir's dissipator,
    sum_s p_s Tr(H_s D[rho_s]) over atomic sectors, each taken as
    Tr(D^dagger[H_s] rho_s). ``i_occupation`` and ``i_coherence`` are the
    terms at site 1 in the form of ``chain._currents``: the occupation term
    carries the atom shift x_1 (sz nbar_1 - <n_1 sz>), which is 0 unless the
    atom sits on site 1. Returned through ``model._report``, whose balance floor bounds
    the flows' sum in sector s, Tr(H_s L(rho_s)) as -i[H_s, rho_s] conserves H_s, by
    ||H_s|| ||L(rho_s)|| <= 2 ||L||^2 ||rho_s|| eta, eta the backward error ``rho.residual``."""
    levels, stack = rho.n_max + 1, _stack(system)
    sites = _sites(stack)
    if ([(weight, sign) for weight, sign, _ in rho.sectors] != atomic_sectors(system)
            or rho.n_modes != sites.onsite.shape[1]):
        raise ValueError("density matrix and system disagree about the mode count, the atom or its sector weights")
    unit = np.eye(sites.onsite.shape[1], dtype=int)
    channels = _channels(sites, levels)
    n_first = [(np.arange(levels ** unit.shape[0]), _squared(_ladder(levels, unit[0])))]
    coherence_op = [_ladder(levels, unit[1] - unit[0])]  # a_1^dagger a_2
    i_left = i_right = scale = floor = occ_first = sz_occ_first = coherence = 0.0
    for weight, sign, state in rho.sectors:
        h = _sector_hamiltonian(sites, levels, sign)
        flows = [rate * _expectation(_adjoint_dissipator(h, c, c_dagger), state) for c, c_dagger, rate in channels]
        i_left += weight * (flows[0] + flows[1])
        i_right += weight * (flows[2] + flows[3])
        scale += weight * sum(map(abs, flows))
        floor += weight * 2.0 * _lindblad_norm(h, channels) ** 2 * np.linalg.norm(state) * rho.residual
        occupation = _expectation(n_first, state)
        occ_first += weight * occupation
        sz_occ_first += sign * weight * occupation
        coherence += weight * _expectation(coherence_op, state)
    omega, x, nbar = sites.onsite[:, 0], sites.shift[:, 0], sites.nbar[:, 0]
    i_occ = (nbar - occ_first) * omega + x * (sites.sigma_z * nbar - sz_occ_first)
    return _report(system, stack, np.array([i_left]), np.array([i_right]), i_occ, sites.coupling * coherence,
                   np.array([scale]), "density matrix", stacklevel=2, floor=floor)


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
