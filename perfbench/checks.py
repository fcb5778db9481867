"""Checks of every output row against the reference in ``reference.py``.

Tolerances: 1e-9 relative on closed-form, moment and chain rows, and the
crosscheck's own 1e-6 on Fock rows. A quantity that is the difference of
larger terms (a current, ``i_occupation``) keeps its relative precision only
down to about 1e-3 of those terms; below that it is compared against 1e-3 of
the terms, i.e. at 1e-12 of their size at the 1e-9 tolerance.
"""

from __future__ import annotations

import math
from pathlib import Path

from reference import Chain, Steady, ballistic_current, steady
from workloads import Op, read_rows

TOL = 1e-9
TOL_FOCK = 1e-6
CANCEL = 1e-3
ZERO_CURRENT = 1e-12  # the program's own insulating threshold, in units of omega_left**2


class Checker:
    """Collects the problems found on one operation's rows."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def close(self, where: str, what: str, got, ref: float, tol: float = TOL, scale: float = 0.0) -> None:
        if got is None or not math.isfinite(got):
            self.problems.append(f"{where}: {what} is {got}, expected {ref:.6e}")
            return
        if abs(got - ref) > tol * max(abs(ref), CANCEL * scale, 1e-300):
            self.problems.append(f"{where}: {what} = {got:.12e}, reference {ref:.12e}")

    def equal(self, where: str, what: str, got, expected) -> None:
        if got != expected:
            self.problems.append(f"{where}: {what} = {got!r}, expected {expected!r}")

    def currents(self, where: str, row: dict, ref: Steady, tol: float = TOL) -> None:
        """Both boundary currents and their balance."""
        self.close(where, "i_left", row["i_left"], ref.i_left, tol, ref.scale_left)
        self.close(where, "i_right", row["i_right"], ref.i_right, tol, ref.scale_right)
        if row["i_left"] is not None and row["i_right"] is not None:
            imbalance = abs(row["i_left"] + row["i_right"])
            if not imbalance <= tol * max(abs(ref.i_left), CANCEL * ref.scale_left):
                self.problems.append(f"{where}: i_left + i_right = {imbalance:.3e}")

    def decomposition(self, where: str, row: dict, ref: Steady, pair: Chain, tol: float = TOL) -> None:
        """The occupation and coherence parts of a two-cavity current."""
        c = ref.covariance
        wl = pair.omegas[0]
        self.close(where, "i_occupation", row["i_occupation"], ref.i_occupation(wl, pair.nbar_left), tol,
                   wl * (pair.nbar_left + c[0, 0].real))
        self.close(where, "i_coherence", row["i_coherence"], ref.i_coherence(pair.coupling), tol,
                   pair.coupling * abs(c[0, 1]))

    def regime(self, where: str, row: dict, ref: Steady, pair: Chain) -> None:
        """The tag follows the sign of the reference current, for a hot left reservoir only."""
        expected = None
        if pair.nbar_left > pair.nbar_right:
            if abs(ref.i_left) < ZERO_CURRENT * pair.omegas[0] ** 2:
                expected = "insulating"
            else:
                expected = "conducting" if ref.i_left > 0 else "reversed"
        self.equal(where, "regime", row["regime"], expected)

    def alpha(self, where: str, row: dict, pair: Chain) -> None:
        wl, wr = pair.omegas
        if pair.sigma_z in (-1.0, 1.0) and pair.chi > wr and pair.nbar_left > pair.nbar_right:
            ref = (pair.gamma_right / pair.gamma_left) / ((pair.chi - wr) / wl)
            self.close(where, "alpha", row["alpha"], ref, 1e-12)
        else:
            self.equal(where, "alpha", row["alpha"], None)


def pair_of(params: dict, **override) -> Chain:
    p = {**params, **override}
    atom = "sigma_z" in p
    return Chain(
        (p["omega_left"], p["omega_right"]), p["coupling"], p["gamma_left"], p["gamma_right"],
        p["nbar_left"], p["nbar_right"], p.get("chi", 0.0), p["sigma_z"] if atom else None,
    )


def chain_of(params: dict, n_sites: int) -> Chain:
    atom = "sigma_z" in params
    return Chain(
        (params["omega"],) * n_sites, params["coupling"], params["gamma_left"], params["gamma_right"],
        params["nbar_left"], params["nbar_right"], params.get("chi", 0.0), params["sigma_z"] if atom else None,
    )


def sweep_values(params: dict) -> list[float]:
    start, stop, step = params["sweep_start"], params["sweep_stop"], params["sweep_step"]
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * k for k in range(count)]


def _values(chk: Checker, rows: list[dict], expected: list[float]) -> None:
    chk.equal("output", "row count", len(rows), len(expected))
    for k, (row, value) in enumerate(zip(rows, expected)):
        chk.close(f"row {k}", "value", row["value"], value, 1e-12)


def _two_cavity_rows(chk: Checker, op: Op, rows: list[dict]) -> None:
    p = op.params
    grid = sweep_values(p)
    _values(chk, rows, grid)
    if op.experiment == "gamma_sweep":
        pairs = [pair_of(p, gamma_left=g, gamma_right=g) for g in grid]
    else:
        pairs = [pair_of(p, chi=x) for x in grid]
    baseline = steady(pair_of(p, chi=0.0)).i_left if op.experiment == "chi_sweep" else None
    for k, (row, pair) in enumerate(zip(rows, pairs)):
        where = f"row {k}"
        ref = steady(pair)
        chk.currents(where, row, ref)
        chk.decomposition(where, row, ref, pair)
        chk.regime(where, row, ref, pair)
        chk.equal(where, "sigma_z", row["sigma_z"], pair.sigma_z)
        if baseline is not None:
            chk.close(where, "i_ratio", row["i_ratio"], ref.i_left / baseline, TOL, ref.scale_left / abs(baseline))


def _rectification_rows(chk: Checker, op: Op, rows: list[dict]) -> None:
    grid = sweep_values(op.params)
    _values(chk, rows, grid)
    for k, (row, g) in enumerate(zip(rows, grid)):
        where = f"row {k}"
        pair = pair_of(op.params, gamma_left=g)
        forward, reverse = steady(pair), steady(pair.swapped())
        chk.close(where, "forward current", row["i_left"], forward.i_left, TOL, forward.scale_left)
        chk.close(where, "reverse current", row["i_right"], reverse.i_left, TOL, reverse.scale_left)
        ratio = -forward.i_left / reverse.i_left
        chk.close(where, "rectification", row["rectification"], ratio, TOL, forward.scale_left / abs(reverse.i_left))


def _regime_rows(chk: Checker, op: Op, rows: list[dict]) -> None:
    p = op.params
    alphas = p["alpha_values"]
    chk.equal("output", "row count", len(rows), 2 * len(alphas))
    for k, row in enumerate(rows):
        where = f"row {k}"
        alpha, sigma_z = alphas[k // 2], (1.0, -1.0)[k % 2]
        rate_right = alpha * p["gamma_left"] * (p["chi"] - p["omega_right"]) / p["omega_left"]
        pair = pair_of(p, gamma_right=rate_right, sigma_z=sigma_z)
        ref = steady(pair)
        chk.close(where, "value", row["value"], alpha, 1e-12)
        chk.equal(where, "sigma_z", row["sigma_z"], sigma_z)
        chk.currents(where, row, ref)
        chk.decomposition(where, row, ref, pair)
        chk.regime(where, row, ref, pair)
        chk.alpha(where, row, pair)


def _size_scan_rows(chk: Checker, op: Op, rows: list[dict]) -> None:
    p = op.params
    sizes = list(range(p["n_start"], p["n_stop"] + 1))
    _values(chk, rows, sizes)
    baseline = ballistic_current(p["omega"], p["coupling"], p["gamma_left"], p["gamma_right"],
                                 p["nbar_left"], p["nbar_right"])
    for k, (row, n) in enumerate(zip(rows, sizes)):
        where = f"row {k} (N={n})"
        ref = steady(chain_of(p, n))
        chk.close(where, "i_left", row["i_left"], ref.i_left, TOL, ref.scale_left)
        chk.close(where, "i_ratio", row["i_ratio"], ref.i_left / baseline, TOL, ref.scale_left / abs(baseline))
        if "sigma_z" not in p:
            # without an atom the current does not depend on the size of the chain
            chk.close(where, "atom-free current against N=2", row["i_left"], rows[0]["i_left"], TOL)


def _profile_rows(chk: Checker, op: Op, rows: list[dict]) -> None:
    p = op.params
    n = p["n_sites"]
    _values(chk, rows, list(range(1, n + 1)))
    chain = chain_of(p, n)
    ref = steady(chain)
    for k, row in enumerate(rows):
        where = f"site {k + 1}"
        chk.equal(where, "site", row["site"], float(k + 1))
        chk.close(where, "occupation", row["occupation"], ref.occupations[k])
        chk.currents(where, row, ref)


def _crosscheck_rows(chk: Checker, op: Op, rows: list[dict]) -> None:
    pair = pair_of(op.params)
    ref = steady(pair)
    chk.equal("output", "paths", [row["path"] for row in rows], ["closedform", "moments", "fock"])
    for row in rows:
        tol = TOL_FOCK if row["path"] == "fock" else TOL
        where = f"{row['path']} row"
        chk.currents(where, row, ref, tol)
        chk.decomposition(where, row, ref, pair, tol)
        chk.regime(where, row, ref, pair)


_CHECKS = {
    "gamma_sweep": _two_cavity_rows,
    "chi_sweep": _two_cavity_rows,
    "current_decomposition": _two_cavity_rows,
    "rectification_sweep": _rectification_rows,
    "regime_table": _regime_rows,
    "size_scan": _size_scan_rows,
    "profile": _profile_rows,
    "oracle_crosscheck": _crosscheck_rows,
}


def check(op: Op, path: Path) -> list[str]:
    """Every problem found on the operation's output; empty when it is correct."""
    chk = Checker()
    try:
        rows = read_rows(path, op.fmt)
    except (OSError, ValueError, KeyError) as exc:
        return [f"output unreadable: {exc}"]
    _CHECKS[op.experiment](chk, op, rows)
    for k, row in enumerate(rows):
        if row["residual"] is None or not row["residual"] >= 0.0:
            chk.problems.append(f"row {k}: residual is {row['residual']}")
    return chk.problems
