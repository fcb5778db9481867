"""Closed-form steady state of the two-cavity system: moments, currents,
switch-regime classification, and rectification (the forward and reverse
currents and their ratio, from one call).

The atomic population is conserved, so sigma_z enters every expression as a
fixed parameter. The closed forms below are exact for sigma_z = +-1; at an
intermediate sigma_z, ``steady_moments`` and ``current_general`` mix the two
pinned-sector results with the weights of ``model.atomic_sectors``, which is
exact for detuned cavities too.

Every expression is evaluated on arrays: a function that takes a
``TwoCavitySystem`` or a ``model.PairGrid`` runs the same code on the grid's
arrays, and returns arrays for a grid and Python scalars for one pair. A
sweep is therefore one evaluation over its whole grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .model import PairGrid, TwoCavitySystem, sector_weights

__all__ = [
    "REGIME_CONDUCTING",
    "REGIME_INSULATING",
    "REGIME_REVERSED",
    "SteadyMoments",
    "CurrentReport",
    "RectificationResult",
    "steady_moments",
    "current_general",
    "current_resonant_with_atom",
    "peak_rate",
    "classify_regime",
    "current_pm",
    "rectification",
]

REGIME_CONDUCTING = "conducting"
REGIME_INSULATING = "insulating"
REGIME_REVERSED = "reversed"

# |alpha - 1| below this counts as the exactly-blocking setting; sweeps report
# alpha itself so callers near the boundary can apply their own bands.
INSULATING_ALPHA_TOL = 1e-12

# |I_L| below this (in units of omega_left**2) tags a report as insulating.
ZERO_CURRENT_TOL = 1e-12


@dataclass(frozen=True)
class SteadyMoments:
    """Steady second-order moments of the two cavity fields.

    ``coherence`` is <a_L^+ a_R>; the swapped product <a_L a_R^+> is its
    complex conjugate because the two modes commute.
    """

    n_left: float
    n_right: float
    delta_n: float  # n_left - n_right
    coherence: complex


@dataclass(frozen=True)
class CurrentReport:
    """Steady-state currents and their decomposition; for a grid, each field
    is an array over its points (``alpha`` and ``regime`` of dtype object).

    ``i_left`` (``i_right``) is the energy flow from the left (right)
    reservoir into the system; in steady state they sum to zero.
    ``i_occupation`` is the contribution of the reservoir/cavity occupation
    imbalance and ``i_coherence`` the contribution of the inter-cavity
    coherence, normalised so that i_left = Gamma_L * (i_occupation -
    i_coherence). ``alpha`` and ``regime`` are populated when the switch
    classification applies (hot left reservoir; alpha additionally needs an
    atom with chi > omega_right and sigma_z = +-1).
    """

    i_left: float | np.ndarray
    i_right: float | np.ndarray
    i_occupation: float | np.ndarray
    i_coherence: float | np.ndarray
    alpha: float | np.ndarray | None = None
    regime: str | np.ndarray | None = None


@dataclass(frozen=True)
class RectificationResult:
    """Forward and reverse currents and their asymmetry ``ratio`` = -I_f/I_r;
    arrays for a grid.

    Where the reverse current vanishes exactly, one direction is blocked and
    ``ratio`` is +-inf, with the sign of the limit taken from the side where
    the denominator is positive; approaching from the other side flips the
    sign (the sweep rows on either side show the jump).
    """

    forward: float | np.ndarray
    reverse: float | np.ndarray
    ratio: float | np.ndarray


Pairs = Union[TwoCavitySystem, PairGrid]


def _points(system: Pairs) -> PairGrid:
    return system if isinstance(system, PairGrid) else PairGrid.from_systems([system])


def _scalars(system: Pairs, *arrays) -> tuple:
    """The arrays as they are for a grid; for one pair, their one entry each, as a Python scalar."""
    if isinstance(system, PairGrid):
        return arrays
    return tuple(np.asarray(values).tolist()[0] for values in arrays)


def _require(p: PairGrid, ok: np.ndarray, message: str) -> None:
    """Raise ValueError at the first point that fails ``ok``, with ``message``
    formatted by that point's fields."""
    failed = np.flatnonzero(~np.asarray(ok))
    if failed.size:
        k = failed[0]
        raise ValueError(message.format(**{name: getattr(p, name)[k].item() for name in p.__dataclass_fields__}))


def _lorentzian_denominator(p: PairGrid) -> np.ndarray:
    chi, dc, g = p.chi, p.detuning, p.gamma
    return (chi**2 - dc**2 + g**2) ** 2 + 4.0 * g**2 * dc**2


def _hopping_constant(p: PairGrid, sz) -> np.ndarray:
    """Effective rate of reservoir-to-reservoir transfer through the bond."""
    j, chi, dc, g = p.coupling, p.chi, p.detuning, p.gamma
    num = dc**2 + chi**2 + 2.0 * dc * chi * sz + g**2
    return 2.0 * j**2 * g * num / _lorentzian_denominator(p)


def _mixed(p: PairGrid, definite) -> tuple:
    """sum_s p_s definite(p, s), entry by entry, at every point. Where one
    sector holds all the weight, its values are taken as they are, so their
    bits (and signed zeros) stay."""
    weight, sign = sector_weights(p.sigma_z, p.atom)
    p_first, p_second = weight.T
    # both sectors in one evaluation: row 0 of each entry is s = +1 (or the
    # atom-free sector), row 1 is s = -1
    return tuple(
        np.where(p_second == 0.0, both[0], np.where(p_first == 0.0, both[1], p_first * both[0] + p_second * both[1]))
        for both in definite(p, sign.T)
    )


def steady_moments(system: Pairs) -> SteadyMoments:
    """Steady occupations and inter-cavity coherence of both fields."""
    return SteadyMoments(*_scalars(system, *_mixed(_points(system), _definite_moments)))


def _definite_moments(p: PairGrid, sz) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n_left, n_right, delta_n, coherence) with the atom pinned to sigma_z = sz
    (+-1), or without an atom (sz = 0)."""
    gl, gr = p.left_rate, p.right_rate
    nl, nr = p.left_occupation, p.right_occupation
    chi, dc, g = p.chi, p.detuning, p.gamma
    c = _hopping_constant(p, sz)
    den = c * (gl + gr) + gl * gr
    pooled = c * (gl * nl + gr * nr)
    occ_left = (pooled + gl * gr * nl) / den
    occ_right = (pooled + gl * gr * nr) / den
    delta = gl * gr * (nl - nr) / den
    coherence = -p.coupling * (chi * sz + dc + 1j * g) / (chi**2 - dc**2 + g**2 - 2j * g * dc) * delta
    return occ_left, occ_right, delta, coherence


def _alpha(p: PairGrid) -> np.ndarray:
    """The switch parameter alpha = (Gamma_R / Gamma_L) / ((chi - omega_R) / omega_L)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p.right_rate / p.left_rate) / ((p.chi - p.omega_right) / p.omega_left)


def _classification(system: Pairs, i_left) -> tuple:
    """Regime tag from the sign of the current, alpha where it is defined.

    The tag is only meaningful for a hot left reservoir; elsewhere both
    entries are None. For a grid both are object arrays.
    """
    p = _points(system)
    i_left = np.asarray(i_left)
    sign_tag = np.where(i_left > 0, REGIME_CONDUCTING, REGIME_REVERSED)
    tag = np.where(np.abs(i_left) < ZERO_CURRENT_TOL * p.omega_left**2, REGIME_INSULATING, sign_tag)
    hot = p.left_occupation > p.right_occupation
    definite = (p.sigma_z == 1.0) | (p.sigma_z == -1.0)
    alpha = np.where(hot & p.atom & definite & (p.chi > p.omega_right), _alpha(p), None)
    return _scalars(system, alpha, np.where(hot, tag, None))


def _check_balance(i_left, i_right, omega_left, state: str, stacklevel: int) -> None:
    """Warn, naming the first failing system of a stack (M,), unless
    |I_L + I_R| <= 1e-10 max(|I_L|, omega_L^2), as a steady ``state`` conserves
    energy (a NaN fails): the one balance rule of the moment and oracle paths."""
    imbalance = np.abs(np.add(i_left, i_right))
    bad = np.flatnonzero(~(imbalance <= 1e-10 * np.maximum(np.abs(i_left), np.square(omega_left))))
    if bad.size:
        warnings.warn(f"boundary currents do not balance (|I_L + I_R| = {imbalance[bad[0]]:.3e} for system "
                      f"{bad[0]}); the {state} is not a steady state", stacklevel=stacklevel + 1)


def current_general(system: Pairs) -> CurrentReport:
    """Left-reservoir current from the general non-resonant expression."""
    p = _points(system)
    i_left, i_occ, i_coh = _mixed(p, _definite_current)
    alpha, regime = _classification(p, i_left)
    return CurrentReport(*_scalars(system, i_left, -i_left, i_occ, i_coh, alpha, regime))


def _definite_current(p: PairGrid, sz) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i_left, i_occupation, i_coherence) with the atom pinned to sigma_z = sz
    (+-1), or without an atom (sz = 0)."""
    n_left, _, delta_n, coherence = _definite_moments(p, sz)
    gl, gr = p.left_rate, p.right_rate
    wl, wr = p.omega_left, p.omega_right
    j, chi, dc, g = p.coupling, p.chi, p.detuning, p.gamma
    num = (wl * gr + gl * (wr + sz * chi)) * ((dc + sz * chi) ** 2 + g**2)
    i_left = j**2 * delta_n * num / _lorentzian_denominator(p)
    return i_left, (p.left_occupation - n_left) * wl, j * coherence.real


def current_resonant_with_atom(system: TwoCavitySystem) -> float:
    """Current through resonant cavities with the dispersive atom present."""
    if system.atom is None:
        raise ValueError("resonant with-atom expression requires an atom")
    if system.detuning != 0.0:
        raise ValueError(f"resonant expression requires equal cavity frequencies (detuning {system.detuning})")
    gl, gr = system.left.rate, system.right.rate
    j, w, chi, g, sz = system.coupling, system.omega_left, system.chi, system.gamma, system.sigma_z
    dn = system.left.mean_occupation - system.right.mean_occupation
    cbar = 2.0 * j**2 * g / (chi**2 + g**2)
    theta = gl * gr / (cbar * (gl + gr) + gl * gr)
    return theta * (cbar / g) * (g * w + 0.5 * gl * chi * sz) * dn


def peak_rate(system: TwoCavitySystem) -> float:
    """Equal reservoir rate maximising the resonant current: sqrt(4 J^2 + chi^2).

    This is the inter-cavity exchange rate set by the hopping and the
    atom-induced shift; the current peaks when the reservoir exchange rate
    matches it.
    """
    if system.detuning != 0.0:
        raise ValueError(f"peak-rate condition assumes equal cavity frequencies (detuning {system.detuning})")
    return math.hypot(2.0 * system.coupling, system.chi)


def classify_regime(system: Pairs) -> tuple:
    """Switch classification (alpha, regime) for the hot-left configuration;
    a grid gets an array of each, and a ValueError names its first point
    outside the classification's domain.

    alpha compares the reservoir-rate ratio against the atom-shifted
    frequency ratio; with the atom in the ground state alpha > 1 conducts,
    alpha = 1 blocks, alpha < 1 reverses the current. The excited atom always
    conducts.
    """
    p = _points(system)
    _require(p, p.atom, "switch classification requires an atom")
    _require(p, (p.sigma_z == 1.0) | (p.sigma_z == -1.0),
             "switch classification is defined at sigma_z = +-1 (got {sigma_z})")
    _require(p, p.left_occupation > p.right_occupation,
             "switch classification assumes the left reservoir is hotter (nbar_L > nbar_R)")
    _require(p, p.chi > p.omega_right,
             "switching analysis assumes the dispersive shift exceeds the right-cavity "
             "frequency (chi > omega_right, got chi={chi}, omega_right={omega_right})")
    alpha = _alpha(p)
    ground = np.where(np.abs(alpha - 1.0) < INSULATING_ALPHA_TOL, REGIME_INSULATING,
                      np.where(alpha > 1.0, REGIME_CONDUCTING, REGIME_REVERSED))
    return _scalars(system, alpha, np.where(p.sigma_z == 1.0, REGIME_CONDUCTING, ground).astype(object))


def current_pm(system: TwoCavitySystem, sign: int) -> float:
    """Current with the atomic state pinned to sign = +1 (excited) or -1 (ground)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if system.atom is None:
        raise ValueError("pinned-state current requires an atom")
    return _scalars(system, _definite_current(_points(system), float(sign))[0])[0]


def rectification(system: Pairs) -> RectificationResult:
    """Forward current I_f, reverse current I_r and the rectification
    coefficient -I_f/I_r (unity means no rectification), in one evaluation.

    Both are the ground-state sector current (``_definite_current``); I_r is
    taken after exchanging (nbar_L, Gamma_L) with (nbar_R, Gamma_R), negative
    when I_f is conventional. The swap negates delta_n exactly and turns
    f = omega_L Gamma_R + Gamma_L (omega_R - chi) into
    r = omega_L Gamma_L + Gamma_R (omega_R - chi), so the ratio is f/r.
    """
    p = _points(system)
    _require(p, p.atom, "rectification requires an atom")
    _require(p, p.sigma_z == -1.0, "rectification takes the atom in its ground state (sigma_z = -1, got {sigma_z})")
    swapped = replace(p, left_rate=p.right_rate, left_occupation=p.right_occupation,
                      right_rate=p.left_rate, right_occupation=p.left_occupation)
    forward, reverse = _definite_current(p, -1.0)[0], _definite_current(swapped, -1.0)[0]
    f = p.omega_left * p.right_rate + p.left_rate * (p.omega_right - p.chi)
    r = p.omega_left * p.left_rate + p.right_rate * (p.omega_right - p.chi)
    # r == 0 blocks one direction: report the limit from the side where r > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r == 0.0, np.copysign(np.inf, f), f / r)
    return RectificationResult(*_scalars(system, forward, reverse, ratio))
