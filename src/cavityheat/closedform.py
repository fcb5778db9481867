"""Closed-form steady state of the two-cavity system: moments, currents,
switch-regime classification, and rectification.

The atomic population is conserved, so sigma_z enters every expression as a
fixed parameter. The closed forms below are exact for sigma_z = +-1; at an
intermediate sigma_z, ``steady_moments`` and ``current_general`` mix the two
pinned-sector results with the weights of ``model.atomic_sectors``, which is
exact for detuned cavities too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import TwoCavitySystem, atomic_sectors

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
    "forward_reverse_currents",
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
    """Steady-state currents and their decomposition.

    ``i_left`` (``i_right``) is the energy flow from the left (right)
    reservoir into the system; in steady state they sum to zero.
    ``i_occupation`` is the contribution of the reservoir/cavity occupation
    imbalance and ``i_coherence`` the contribution of the inter-cavity
    coherence, normalised so that i_left = Gamma_L * (i_occupation -
    i_coherence). ``alpha`` and ``regime`` are populated when the switch
    classification applies (hot left reservoir; alpha additionally needs an
    atom with chi > omega_right and sigma_z = +-1).
    """

    i_left: float
    i_right: float
    i_occupation: float
    i_coherence: float
    alpha: float | None = None
    regime: str | None = None


@dataclass(frozen=True)
class RectificationResult:
    """Forward/reverse current asymmetry -I_f/I_r.

    When the reverse current vanishes exactly, ``divergent`` is set and
    ``ratio`` is +-inf with the sign of the limit taken from the side where
    the denominator is positive; approaching from the other side flips the
    sign (the sweep rows on either side show the jump).
    """

    ratio: float
    divergent: bool = False

    def __float__(self) -> float:
        return self.ratio


def _lorentzian_denominator(system: TwoCavitySystem) -> float:
    chi, dc, g = system.chi, system.detuning, system.gamma
    return (chi**2 - dc**2 + g**2) ** 2 + 4.0 * g**2 * dc**2


def _hopping_constant(system: TwoCavitySystem, sz: float) -> float:
    """Effective rate of reservoir-to-reservoir transfer through the bond."""
    j, chi, dc, g = system.coupling, system.chi, system.detuning, system.gamma
    num = dc**2 + chi**2 + 2.0 * dc * chi * sz + g**2
    return 2.0 * j**2 * g * num / _lorentzian_denominator(system)


def _mixed(system: TwoCavitySystem, definite) -> tuple:
    """sum_s p_s definite(system, s), entry by entry; one sector's tuple is
    returned as it is, so its bits (and signed zeros) stay."""
    parts = [(weight, definite(system, sign)) for weight, sign in atomic_sectors(system)]
    if len(parts) == 1:
        return parts[0][1]
    return tuple(sum(weight * values[k] for weight, values in parts) for k in range(len(parts[0][1])))


def steady_moments(system: TwoCavitySystem) -> SteadyMoments:
    """Steady occupations and inter-cavity coherence of both fields."""
    return SteadyMoments(*_mixed(system, _definite_moments))


def _definite_moments(system: TwoCavitySystem, sz: float) -> tuple[float, float, float, complex]:
    """(n_left, n_right, delta_n, coherence) with the atom pinned to sigma_z = sz
    (+-1), or without an atom (sz = 0)."""
    gl, gr = system.left.rate, system.right.rate
    nl, nr = system.left.mean_occupation, system.right.mean_occupation
    chi, dc, g = system.chi, system.detuning, system.gamma
    c = _hopping_constant(system, sz)
    den = c * (gl + gr) + gl * gr
    pooled = c * (gl * nl + gr * nr)
    occ_left = (pooled + gl * gr * nl) / den
    occ_right = (pooled + gl * gr * nr) / den
    delta = gl * gr * (nl - nr) / den
    coherence = -system.coupling * (chi * sz + dc + 1j * g) / (chi**2 - dc**2 + g**2 - 2j * g * dc) * delta
    return occ_left, occ_right, delta, coherence


def _classification(system: TwoCavitySystem, i_left: float) -> tuple[float | None, str | None]:
    """Regime tag from the sign of the current, alpha when it is defined.

    The tag is only meaningful for a hot left reservoir; otherwise both
    entries are None.
    """
    if not system.left.mean_occupation > system.right.mean_occupation:
        return None, None
    scale = system.omega_left**2
    if abs(i_left) < ZERO_CURRENT_TOL * scale:
        regime = REGIME_INSULATING
    elif i_left > 0:
        regime = REGIME_CONDUCTING
    else:
        regime = REGIME_REVERSED
    alpha = None
    if (
        system.atom is not None
        and system.sigma_z in (-1.0, 1.0)
        and system.chi > system.omega_right
    ):
        alpha = (system.right.rate / system.left.rate) / ((system.chi - system.omega_right) / system.omega_left)
    return alpha, regime


def current_general(system: TwoCavitySystem) -> CurrentReport:
    """Left-reservoir current from the general non-resonant expression."""
    i_left, i_occ, i_coh = _mixed(system, _definite_current)
    alpha, regime = _classification(system, i_left)
    return CurrentReport(
        i_left=i_left,
        i_right=-i_left,
        i_occupation=i_occ,
        i_coherence=i_coh,
        alpha=alpha,
        regime=regime,
    )


def _definite_current(system: TwoCavitySystem, sz: float) -> tuple[float, float, float]:
    """(i_left, i_occupation, i_coherence) with the atom pinned to sigma_z = sz
    (+-1), or without an atom (sz = 0)."""
    n_left, _, delta_n, coherence = _definite_moments(system, sz)
    gl, gr = system.left.rate, system.right.rate
    wl, wr = system.omega_left, system.omega_right
    j, chi, dc, g = system.coupling, system.chi, system.detuning, system.gamma
    num = (
        gl * chi * sz * (chi**2 - dc**2 + g**2)
        + (wl * gr + wr * gl) * (dc**2 + g**2)
        + chi**2 * (2.0 * wl * g + dc * gl)
        + 4.0 * dc * chi * sz * wl * g
    )
    i_left = j**2 * delta_n * num / _lorentzian_denominator(system)
    return i_left, (system.left.mean_occupation - n_left) * wl, j * coherence.real


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


def classify_regime(system: TwoCavitySystem) -> tuple[float, str]:
    """Switch classification (alpha, regime) for the hot-left configuration.

    alpha compares the reservoir-rate ratio against the atom-shifted
    frequency ratio; with the atom in the ground state alpha > 1 conducts,
    alpha = 1 blocks, alpha < 1 reverses the current. The excited atom always
    conducts.
    """
    if system.atom is None:
        raise ValueError("switch classification requires an atom")
    if system.sigma_z not in (-1.0, 1.0):
        raise ValueError(f"switch classification is defined at sigma_z = +-1 (got {system.sigma_z})")
    if not system.left.mean_occupation > system.right.mean_occupation:
        raise ValueError("switch classification assumes the left reservoir is hotter (nbar_L > nbar_R)")
    if not system.chi > system.omega_right:
        raise ValueError(
            "switching analysis assumes the dispersive shift exceeds the right-cavity "
            f"frequency (chi > omega_right, got chi={system.chi}, omega_right={system.omega_right})"
        )
    alpha = (system.right.rate / system.left.rate) / ((system.chi - system.omega_right) / system.omega_left)
    if system.sigma_z == 1.0:
        return alpha, REGIME_CONDUCTING
    if abs(alpha - 1.0) < INSULATING_ALPHA_TOL:
        return alpha, REGIME_INSULATING
    return alpha, (REGIME_CONDUCTING if alpha > 1.0 else REGIME_REVERSED)


def current_pm(system: TwoCavitySystem, sign: int) -> float:
    """Current with the atomic state pinned to sign = +1 (excited) or -1 (ground)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if system.atom is None:
        raise ValueError("pinned-state current requires an atom")
    delta_n = _definite_moments(system, float(sign))[2]
    gl, gr = system.left.rate, system.right.rate
    wl, wr = system.omega_left, system.omega_right
    j, chi, dc, g = system.coupling, system.chi, system.detuning, system.gamma
    omega_factor = wl * gr + gl * (wr + sign * chi)
    return j**2 * delta_n * omega_factor * ((dc + sign * chi) ** 2 + g**2) / _lorentzian_denominator(system)


def _require_ground_state(system: TwoCavitySystem, what: str) -> None:
    if system.atom is None:
        raise ValueError(f"{what} requires an atom")
    if system.sigma_z != -1.0:
        raise ValueError(f"{what} takes the atom in its ground state (sigma_z = -1, got {system.sigma_z})")


def forward_reverse_currents(system: TwoCavitySystem) -> tuple[float, float]:
    """Currents of the configuration and of its reservoir-swapped mirror.

    The reverse current is the left-boundary current after exchanging
    (nbar_L, Gamma_L) with (nbar_R, Gamma_R); it is negative when the forward
    current is conventional, since the flow direction is opposite.
    """
    _require_ground_state(system, "forward/reverse analysis")
    delta_n = _definite_moments(system, -1.0)[2]
    gl, gr = system.left.rate, system.right.rate
    wl, wr = system.omega_left, system.omega_right
    j, chi, dc, g = system.coupling, system.chi, system.detuning, system.gamma
    lorentz = ((dc - chi) ** 2 + g**2) / _lorentzian_denominator(system)
    i_forward = j**2 * delta_n * (wl * gr + gl * (wr - chi)) * lorentz
    i_reverse = -(j**2) * delta_n * (wl * gl + gr * (wr - chi)) * lorentz
    return i_forward, i_reverse


def rectification(system: TwoCavitySystem) -> RectificationResult:
    """Rectification coefficient -I_f/I_r; unity means no rectification."""
    _require_ground_state(system, "rectification")
    gl, gr = system.left.rate, system.right.rate
    wl, wr, chi = system.omega_left, system.omega_right, system.chi
    num = wl * gr + gl * (wr - chi)
    den = wl * gl + gr * (wr - chi)
    if den == 0.0:
        # one direction is fully blocked; report the limit from the
        # positive-denominator side
        return RectificationResult(ratio=math.copysign(math.inf, num), divergent=True)
    return RectificationResult(ratio=num / den, divergent=False)
