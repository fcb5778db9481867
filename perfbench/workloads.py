"""The operations of each workload, generated from a seed.

An operation is one ``cavityheat run`` invocation: one experiment, one config
file and one output file. The seed moves only the physical parameters, never
the number of rows, the chain sizes or the Fock truncations, so the work in a
round is the same for every seed. Operations kept to count a known fault
(``fault`` set) use fixed inputs that do not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweeps", "chain_scan", "oracle_xcheck")

SWEEP_ROWS = 1201  # rows of every seeded two-cavity sweep
REGIME_ALPHAS = 300  # alpha values of a regime table; two rows each
FAULT_ROWS = 101  # rows of each fault A sweep
SCAN_STOP = 18  # size_scan runs N = 2..SCAN_STOP
PROFILE_SIZES = (8, 24)  # the largest solve here takes about a second
ATOM_STATES = ("excited", "ground", "mixed", "absent")
TEXT_COLUMNS = ("experiment", "path", "regime")  # output columns that are not numbers

# The point at which faults A and B show: a detuned pair with a mixed atom.
FAULT_POINT = {
    "omega_left": 1.0, "omega_right": 1.1, "coupling": 0.05,
    "gamma_left": 0.1, "gamma_right": 0.1, "nbar_left": 0.5, "nbar_right": 0.0,
    "chi": 0.3, "sigma_z": 0.2,
}

# Tiny operations. Each workload runs those of the layers it does not stress,
# so that every per-layer time is measured on every workload, not an exact 0.
TINY_PROFILE = {
    "omega": 1.0, "coupling": 0.02, "gamma_left": 0.1, "gamma_right": 0.1,
    "nbar_left": 0.5, "nbar_right": 0.0, "n_sites": 2,
}
# the Gibbs tail beyond n_max = 6 is 1e-14, and the moment-Fock deviation 6e-12
TINY_CROSSCHECK = {
    "omega_left": 1.0, "omega_right": 1.0, "coupling": 0.02, "gamma_left": 0.1, "gamma_right": 0.1,
    "nbar_left": 0.01, "nbar_right": 0.0, "chi": 0.05, "sigma_z": 1.0, "fock_n_max": 6,
}
# The first call of each workload's kind, timed together with the import in set-up.
FIRST_CALL = {
    "sweeps": ("gamma_sweep", {"coupling": 0.02, "nbar_left": 0.5, "sweep_start": 0.03, "sweep_stop": 0.045, "sweep_step": 0.01}),
    "chain_scan": ("profile", TINY_PROFILE),
    "oracle_xcheck": ("oracle_crosscheck", TINY_CROSSCHECK),
}


@dataclass(frozen=True)
class Op:
    index: int
    experiment: str
    params: dict = field(hash=False)
    fmt: str
    fault: str | None = None  # "A" or "B": kept to count that known fault

    @property
    def stem(self) -> str:
        return f"{self.index:02d}-{self.experiment}"

    def argv(self, work: Path) -> list[str]:
        return [
            "run", "--experiment", self.experiment,
            "--config", str(work / f"{self.stem}.cfg"),
            "--out", str(self.output(work)), "--format", self.fmt,
        ]

    def output(self, work: Path) -> Path:
        return work / f"{self.stem}.{self.fmt}"

    def write_config(self, work: Path) -> None:
        lines = []
        for key, value in self.params.items():
            text = ",".join(repr(v) for v in value) if isinstance(value, list) else repr(value)
            lines.append(f"{key} = {text}")
        (work / f"{self.stem}.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_rows(path: Path, fmt: str) -> list[dict]:
    """Rows of one output file, numbers as floats and empty fields as None."""
    if fmt == "csv":
        with path.open(newline="", encoding="utf-8") as handle:
            raw = list(csv.DictReader(handle))
        raw = [{k: (v if v != "" else None) for k, v in row.items()} for row in raw]
    else:
        raw = json.loads(path.read_text(encoding="utf-8"))["rows"]
    return [
        {k: (v if v is None or k in TEXT_COLUMNS else float(v)) for k, v in row.items()}
        for row in raw
    ]


def sweep_grid(start: float, step: float, rows: int) -> dict:
    # stop sits half a step past the last point, so rounding cannot change the count
    return {"sweep_start": start, "sweep_stop": start + (rows - 0.5) * step, "sweep_step": step}


def _pair(rng: random.Random, detuned: bool, sigma_z: float | None, hot_left: bool, chi=(0.02, 0.3)) -> dict:
    hot, cold = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.1)
    params = {
        "omega_left": 1.0,
        "omega_right": 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.2) if detuned else 1.0,
        "coupling": rng.uniform(0.01, 0.08),
        "gamma_left": rng.uniform(0.02, 0.15),
        "gamma_right": rng.uniform(0.02, 0.15),
        "nbar_left": hot if hot_left else cold,
        "nbar_right": cold if hot_left else hot,
    }
    if sigma_z is not None:
        params["chi"] = rng.uniform(*chi)
        params["sigma_z"] = sigma_z
    return params


def _sweeps(rng: random.Random) -> list[tuple]:
    specs = []
    fmts = iter(("csv", "json") * 32)
    # gamma_sweep: both rates swept; every atom state, both cavity tunings and hot sides
    for detuned in (False, True):
        for sigma_z in (1.0, -1.0, None):
            params = _pair(rng, detuned, sigma_z, hot_left=sigma_z != -1.0)
            params.update(sweep_grid(rng.uniform(0.005, 0.02), rng.uniform(1e-4, 2e-4), SWEEP_ROWS))
            specs.append(("gamma_sweep", params, next(fmts), None))
    # chi sweeps run past chi = omega_right, where the ground-state current reverses
    for experiment in ("chi_sweep", "current_decomposition"):
        for detuned in (False, True):
            for sigma_z in (1.0, -1.0):
                params = _pair(rng, detuned, sigma_z, hot_left=detuned)
                params.update(sweep_grid(rng.uniform(0.0, 0.05), rng.uniform(1.5, 2.0) / SWEEP_ROWS, SWEEP_ROWS))
                specs.append((experiment, params, next(fmts), None))
    # rectification needs the ground state; chi < omega_right keeps the reverse current away from zero
    for detuned in (False, True):
        for hot_left in (True, False):
            params = _pair(rng, detuned, -1.0, hot_left, chi=(0.1, 0.6))
            params.update(sweep_grid(rng.uniform(0.005, 0.02), rng.uniform(1e-4, 2e-4), SWEEP_ROWS))
            specs.append(("rectification_sweep", params, next(fmts), None))
    # the regime table needs a hot left reservoir and chi > omega_right; alpha = 1 blocks
    for detuned in (False, True):
        params = _pair(rng, detuned, 1.0, hot_left=True, chi=(1.4, 2.0))
        params["alpha_values"] = [1.0] + [rng.uniform(0.2, 3.0) for _ in range(REGIME_ALPHAS - 1)]
        specs.append(("regime_table", params, next(fmts), None))
    for fmt in ("csv", "json"):
        params = dict(FAULT_POINT)
        params.update(sweep_grid(0.05, 0.005, FAULT_ROWS))
        specs.append(("chi_sweep", params, fmt, "A"))
    specs += [("profile", TINY_PROFILE, "csv", None), ("oracle_crosscheck", TINY_CROSSCHECK, "json", None)]
    return specs


def _chain_scan(rng: random.Random) -> list[tuple]:
    specs = []
    for k, state in enumerate(ATOM_STATES):
        hot, cold = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.1)
        params = {
            "omega": 1.0,
            "coupling": rng.uniform(0.02, 0.08),
            "gamma_left": rng.uniform(0.05, 0.2),
            "gamma_right": rng.uniform(0.05, 0.2),
            "nbar_left": hot if k % 2 == 0 else cold,
            "nbar_right": cold if k % 2 == 0 else hot,
        }
        if state != "absent":
            params["chi"] = rng.uniform(0.05, 0.5)
            params["sigma_z"] = {"excited": 1.0, "ground": -1.0}.get(state) or rng.uniform(-0.8, 0.8)
        specs.append(("size_scan", {**params, "n_start": 2, "n_stop": SCAN_STOP}, "csv" if k % 2 else "json", None))
        for n in PROFILE_SIZES:
            specs.append(("profile", {**params, "n_sites": n}, "json" if k % 2 else "csv", None))
    specs.append(("oracle_crosscheck", TINY_CROSSCHECK, "csv", None))
    return specs


# (n_max, detuned, sigma_z) of each seeded crosscheck point; "mixed" draws sigma_z
ORACLE_POINTS = (
    (12, False, None), (12, False, 1.0), (12, True, 1.0), (12, False, -1.0), (12, True, -1.0),
    (12, False, "mixed"), (12, False, "mixed"),
    (16, False, None), (16, True, None), (16, True, 1.0), (16, False, "mixed"),
)
# the Gibbs tail beyond n_max stays below 1e-11 at these occupations
ORACLE_HOT = {12: (0.05, 0.15), 16: (0.1, 0.25)}


def _oracle_xcheck(rng: random.Random) -> list[tuple]:
    specs = []
    for k, (n_max, detuned, sigma_z) in enumerate(ORACLE_POINTS):
        if sigma_z == "mixed":
            sigma_z = rng.uniform(-0.8, 0.8)
        params = _pair(rng, detuned, sigma_z, hot_left=k % 3 != 2)
        hot_key, cold_key = ("nbar_left", "nbar_right") if k % 3 != 2 else ("nbar_right", "nbar_left")
        params[hot_key] = rng.uniform(*ORACLE_HOT[n_max])
        params[cold_key] = rng.uniform(0.0, 0.02)
        params["fock_n_max"] = n_max
        specs.append(("oracle_crosscheck", params, "csv" if k % 2 else "json", None))
    # nbar_left = 0.5 of the fault point would break the Gibbs tail guard at n_max = 12
    for nbar_left in (0.1, 0.2):
        specs.append(("oracle_crosscheck", {**FAULT_POINT, "nbar_left": nbar_left, "fock_n_max": 12}, "csv", "B"))
    specs.append(("profile", TINY_PROFILE, "json", None))
    return specs


_BUILDERS = {"sweeps": _sweeps, "chain_scan": _chain_scan, "oracle_xcheck": _oracle_xcheck}


def build(workload: str, seed: int) -> list[Op]:
    specs = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    return [Op(i, experiment, params, fmt, fault) for i, (experiment, params, fmt, fault) in enumerate(specs)]


