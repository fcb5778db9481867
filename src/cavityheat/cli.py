"""Command-line front end: config ingestion, named sweep experiments, and
CSV/JSON emission.

Every physical quantity is entered as a ratio to the reference frequency
(the left-cavity frequency, or the common frequency of an array). A config
gives each key once per source, its file or ``--set`` (which overrides the
file), and each key given is read by the experiment or refused. Output
rows carry a fixed column set; quantities a given experiment does not
produce are emitted as empty fields so downstream parsing stays stable.

A two-cavity sweep is one ``model.PairGrid``, solved or evaluated in one
pass over the whole grid; its results reach the writer as columns
(``Rows``), never as one object per row.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import chain, closedform, fockspace
from .model import (
    ArraySystem,
    AtomSpec,
    CurrentReport,
    PairGrid,
    ReservoirSpec,
    SolverError,
    TwoCavitySystem,
    ValidationError,
    bose_occupation,
)

__all__ = ["SweepSpec", "CrosscheckReport", "Rows", "run_experiment", "crosscheck", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_CROSSCHECK = 5

COLUMNS = (
    "experiment",
    "value",
    "sigma_z",
    "path",
    "i_left",
    "i_right",
    "i_occupation",
    "i_coherence",
    "i_ratio",
    "alpha",
    "rectification",
    "regime",
    "site",
    "occupation",
    "residual",
)


def _parse_numbers(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")

# every config key, with its parser and the valid value its error names
_KEYS = {
    "omega_left": _NUMBER,
    "omega_right": _NUMBER,
    "omega": _NUMBER,
    "coupling": _NUMBER,
    "chi": _NUMBER,
    "sigma_z": _NUMBER,
    "gamma_left": _NUMBER,
    "gamma_right": _NUMBER,
    "nbar_left": _NUMBER,
    "temp_left": _NUMBER,
    "nbar_right": _NUMBER,
    "temp_right": _NUMBER,
    "sweep_start": _NUMBER,
    "sweep_stop": _NUMBER,
    "sweep_step": _NUMBER,
    "n_sites": _INTEGER,
    "n_start": _INTEGER,
    "n_stop": _INTEGER,
    "alpha_values": (_parse_numbers, "a comma-separated number list"),
    "fock_n_max": _INTEGER,
    "fock_tail_bound": _NUMBER,
    "tol_closedform_moments": _NUMBER,
    "tol_moments_fock": _NUMBER,
}


class CrosscheckError(RuntimeError):
    """Cross-path deviation exceeded its threshold."""


@dataclass(frozen=True)
class SweepSpec:
    """A named experiment with its parameters and output destination."""

    experiment: str
    params: dict
    output: Path
    fmt: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                [f"config: unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"]
            )
        if self.fmt not in ("csv", "json"):
            raise ValidationError([f"config: unknown output format {self.fmt!r}"])


# the compared pairs of paths: (path, path, the config key of the pair's tolerance, its default)
_PAIRS = (
    ("closedform", "moments", "tol_closedform_moments", 1e-10),
    ("moments", "fock", "tol_moments_fock", 1e-6),
    ("closedform", "fock", "tol_moments_fock", 1e-6),
)


@dataclass(frozen=True)
class CrosscheckReport:
    """The left current of each path, and the (deviation, tolerance) of each
    pair of ``_PAIRS``, keyed by its two paths, in the table's order.

    The closed-form and moment paths must agree to solver precision; pairs
    involving the Fock oracle carry the (looser) truncation tolerance.
    """

    currents: dict[str, float]
    deviations: dict[tuple[str, str], tuple[float, float]]

    @property
    def passed(self) -> bool:
        return all(deviation <= tolerance for deviation, tolerance in self.deviations.values())


class _Params:
    """The flat key/value config, every key given parsed once, against ``_KEYS``.

    Unknown keys, then malformed values, are collected in ``errors`` when it
    is built; a malformed key reads as absent but does not count as missing.
    ``finish`` refuses, last, each well-formed key not read by ``get`` or ``has``.
    """

    def __init__(self, raw: dict[str, str]):
        self.errors = [f"config: unknown key {key!r}" for key in sorted(set(raw) - set(_KEYS))]
        self.read: set[str] = set()
        self.values: dict[str, object] = {}  # a malformed value is held as None
        for key, (parse, kind) in _KEYS.items():
            if key in raw:
                try:
                    self.values[key] = parse(raw[key])
                except ValueError:
                    self.values[key] = None
                    self.errors.append(f"config: key {key!r} expects {kind}, got {raw[key]!r}")

    def get(self, key, default=None, required=False):
        """The parsed value of a key, or ``default`` when it is absent or malformed."""
        self.read.add(key)
        if required and key not in self.values:
            self.errors.append(f"config: missing required key {key!r}")
        value = self.values.get(key)
        return default if value is None else value

    def has(self, key) -> bool:
        self.read.add(key)
        return key in self.values

    def finish(self):
        self.errors += [f"config: key {key!r} is not read by this experiment"
                        for key, value in self.values.items() if value is not None and key not in self.read]
        if self.errors:
            raise ValidationError(self.errors)


def parse_config_file(path: Path) -> dict[str, str]:
    """Flat key = value lines, each key given once; '#' starts a comment."""
    raw: dict[str, str] = {}
    errors: list[str] = []
    first_line: dict[str, int] = {}
    try:
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")  # a byte-order mark is no part of a key
    except UnicodeDecodeError as exc:
        raise ValidationError([f"config: {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"]) from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"config: line {lineno} is not 'key = value': {line.strip()!r}")
            continue
        key, _, value = (part.strip() for part in stripped.partition("="))
        if first_line.setdefault(key, lineno) != lineno:
            errors.append(f"config: key {key!r} is given twice, on lines {first_line[key]} and {lineno}")
        raw[key] = value
    if errors:
        raise ValidationError(errors)
    return raw


def _reservoir(p: _Params, side: str, frequency: float) -> ReservoirSpec:
    rate = p.get(f"gamma_{side}", required=True)
    has_nbar = p.has(f"nbar_{side}")
    has_temp = p.has(f"temp_{side}")
    if has_nbar and has_temp:
        p.errors.append(f"config: give either nbar_{side} or temp_{side}, not both")
    occupation = 0.0
    if has_temp:
        temp = p.get(f"temp_{side}")
        if temp is not None and 0 < frequency < math.inf:
            try:
                occupation = bose_occupation(frequency, temp)
            except ValueError as exc:
                p.errors.append(f"config: temp_{side}: {exc}")
    else:
        occupation = p.get(f"nbar_{side}", default=0.0)
    return ReservoirSpec(rate=rate, mean_occupation=occupation)


def _atom(p: _Params, host_index: int = AtomSpec.host_index) -> AtomSpec | None:
    """The atom on site ``host_index``, present exactly when ``chi`` or ``sigma_z`` is given."""
    if not (p.has("chi") or p.has("sigma_z")):
        return None
    return AtomSpec(p.get("chi", required=True), p.get("sigma_z", required=True), host_index)


def _two_cavity(p: _Params) -> TwoCavitySystem:
    """The pair of the config. A system checks itself when it is built, so the
    config errors collected so far, and each key given but not yet read, are
    raised first. A missing key or a domain error is found only when its key is
    read, so every other key must be read before this call."""
    omega_left = p.get("omega_left", default=1.0)
    omega_right = p.get("omega_right", default=omega_left)
    coupling = p.get("coupling", required=True)
    left, right = _reservoir(p, "left", omega_left), _reservoir(p, "right", omega_right)
    atom = _atom(p)
    p.finish()
    return TwoCavitySystem(omega_left, omega_right, coupling, left, right, atom)


def _array(p: _Params, n_sites: int | None = None) -> ArraySystem:
    """The chain of the config, built after the config errors are raised; as in
    ``_two_cavity``, every other key must be read before this call."""
    omega = p.get("omega", default=1.0)
    if n_sites is None:
        n_sites = p.get("n_sites", required=True)
    atom = _atom(p, host_index=n_sites)
    coupling = p.get("coupling", required=True)
    left, right = _reservoir(p, "left", omega), _reservoir(p, "right", omega)
    p.finish()
    return ArraySystem(n_sites, omega, coupling, left, right, atom)


def _sweep_values(p: _Params) -> np.ndarray:
    start = p.get("sweep_start", required=True)
    stop = p.get("sweep_stop", required=True)
    step = p.get("sweep_step", required=True)
    if None in (start, stop, step):
        return np.array([])
    if not (math.isfinite(start) and math.isfinite(stop)):
        error = "config: sweep bounds must be finite"
    elif not (math.isfinite(step) and step > 0):
        error = f"config: sweep_step must be positive and finite, got {step}"
    elif not (points := (stop - start) / step + 1e-9) < np.iinfo(np.intp).max:
        error = f"config: sweep has more points than an array can hold ((stop - start) / step = {points:.3g})"
    elif (count := int(math.floor(points)) + 1) < 2:
        error = "config: sweep must contain at least 2 points"
    else:
        try:
            return start + step * np.arange(count)
        except MemoryError:
            error = f"config: sweep of {count} points is more than memory can hold"
    p.errors.append(error)
    return np.array([])


def _is_column(value) -> bool:
    return isinstance(value, (list, np.ndarray))


class Rows(Sequence):
    """Output rows, held as columns.

    Each name of COLUMNS maps to None (an empty column), to one value that
    every row holds, or to a list or array of one value per row. Indexing
    and iteration give a row as a dict, built on access; the writer reads
    the columns.
    """

    def __init__(self, n_rows: int, **columns):
        unknown = sorted(set(columns) - set(COLUMNS))
        if unknown:
            raise ValueError(f"unknown output columns {unknown}")
        uneven = sorted(name for name, value in columns.items() if _is_column(value) and len(value) != n_rows)
        if uneven:
            raise ValueError(f"columns {uneven} do not hold one value per row ({n_rows} rows)")
        self.n_rows = n_rows
        # arrays become lists of Python scalars, which format faster
        self.columns = dict.fromkeys(COLUMNS)
        for name, value in columns.items():
            self.columns[name] = value.tolist() if isinstance(value, np.ndarray) else value

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, index: int) -> dict:
        k = range(self.n_rows)[index]
        return {name: value[k] if _is_column(value) else value for name, value in self.columns.items()}


def _solver_context(name: str, value) -> str:
    return f"solver failure at {name}={value}"


def _moment_sweep(grid: PairGrid, name: str, values) -> tuple[CurrentReport, np.ndarray]:
    """Currents (as arrays) and solver residual of every point of a grid, from
    one stack solve; ``values[k]`` names point k in a solver failure."""
    try:
        return chain.sweep_currents(grid)
    except SolverError as exc:
        raise SolverError(f"{_solver_context(name, values[exc.index])}: {exc}") from exc


def _gamma_sweep(spec: SweepSpec) -> Rows:
    p = _Params(spec.params)
    # both rates are swept, so the base values are placeholders
    p.values.setdefault("gamma_left", 1.0)
    p.values.setdefault("gamma_right", 1.0)
    values = _sweep_values(p)
    base = _two_cavity(p)
    report, residual = _moment_sweep(PairGrid.sweep(base, left_rate=values, right_rate=values), "gamma", values)
    # the fields of a CurrentReport are output columns
    return Rows(len(values), experiment=spec.experiment, value=values, sigma_z=base.sigma_z if base.atom else None,
                residual=residual, **vars(report))


def _chi_sweep(spec: SweepSpec, with_ratio: bool) -> Rows:
    p = _Params(spec.params)
    values = _sweep_values(p)
    base = _two_cavity(p)
    if base.atom is None:
        raise ValidationError(["config: chi sweeps need an atom (set chi and sigma_z)"])
    # with a ratio, the chi = 0 baseline is solved first in the same stack
    chis = np.concatenate([[0.0], values]) if with_ratio else values
    report, residual = _moment_sweep(PairGrid.sweep(base, chi=chis), "chi", chis)
    first = 1 if with_ratio else 0
    columns = {name: column[first:] for name, column in vars(report).items()}
    baseline = report.i_left[0] if with_ratio else 0.0
    return Rows(len(values), experiment=spec.experiment, value=values, sigma_z=base.sigma_z,
                i_ratio=columns["i_left"] / baseline if baseline != 0 else None, residual=residual[first:], **columns)


def _rectification_sweep(spec: SweepSpec) -> Rows:
    p = _Params(spec.params)
    values = _sweep_values(p)
    base = _two_cavity(p)
    if base.atom is None or base.sigma_z != -1.0:
        raise ValidationError(["config: the rectification sweep needs an atom in its ground state (sigma_z = -1)"])
    result = closedform.rectification(PairGrid.sweep(base, left_rate=values))
    return Rows(len(values), experiment=spec.experiment, value=values, sigma_z=base.sigma_z, i_left=result.forward,
                i_right=result.reverse, rectification=result.ratio, residual=0.0)


def _size_scan(spec: SweepSpec) -> Rows:
    p = _Params(spec.params)
    n_start = p.get("n_start", default=2)
    n_stop = p.get("n_stop", required=True)
    if n_stop is not None and n_stop < n_start:
        p.errors.append(f"config: n_stop must be at least n_start (got {n_start}..{n_stop})")
    template = _array(p, n_sites=n_start)
    points = chain.size_scan(template, range(n_start, n_stop + 1))
    return Rows(
        len(points),
        experiment=spec.experiment,
        value=[point.n_sites for point in points],
        sigma_z=template.sigma_z if template.atom else None,
        i_left=[point.current for point in points],
        i_ratio=[point.ratio for point in points],
        residual=[point.residual for point in points],
    )


def _profile(spec: SweepSpec) -> Rows:
    p = _Params(spec.params)
    system = _array(p)
    try:
        g = chain.steady_state_matrix(system)
    except SolverError as exc:
        raise SolverError(f"{_solver_context('n_sites', system.n_sites)}: {exc}") from exc
    report = chain.boundary_currents(system, g)
    sites = list(range(1, system.n_sites + 1))
    return Rows(
        system.n_sites,
        experiment=spec.experiment,
        value=sites,
        sigma_z=system.sigma_z if system.atom else None,
        i_left=report.i_left,
        i_right=report.i_right,
        site=sites,
        occupation=chain.occupation_profile(system, g),
        residual=g.residual,
    )


def _regime_table(spec: SweepSpec) -> Rows:
    p = _Params(spec.params)
    alphas = p.get("alpha_values", default=[0.5, 1.0, 2.0])
    if not alphas:
        p.errors.append("config: alpha_values must hold at least one value")
    base = _two_cavity(p)
    if base.atom is None:
        raise ValidationError(["config: the regime table needs an atom (set chi and sigma_z)"])
    if not base.chi > base.omega_right:
        raise ValidationError(["config: the regime table requires chi > omega_right"])
    if not base.left.mean_occupation > base.right.mean_occupation:
        raise ValidationError(["config: the regime table requires a hotter left reservoir (nbar_left > nbar_right)"])
    # each alpha at sigma_z = +1, then at -1
    values, sigma_z = np.repeat(np.array(alphas, dtype=float), 2), np.tile([1.0, -1.0], len(alphas))
    rate_right = values * base.left.rate * (base.chi - base.omega_right) / base.omega_left
    grid = PairGrid.sweep(base, right_rate=rate_right, sigma_z=sigma_z)
    alpha, regime = closedform.classify_regime(grid)
    report, residual = _moment_sweep(grid, "alpha", values)
    return Rows(len(values), experiment=spec.experiment, value=values, sigma_z=sigma_z, alpha=alpha, regime=regime,
                i_left=report.i_left, i_right=report.i_right, i_occupation=report.i_occupation,
                i_coherence=report.i_coherence, residual=residual)


def _relative_deviation(a: float, b: float, floor: float) -> float:
    """Relative gap between two currents.

    Both magnitudes below ``floor`` count as agreement: near a blocking
    point every path reports a current that is zero at the resolution the
    threshold defines, and a ratio of rounding noise would be meaningless.
    """
    scale = max(abs(a), abs(b))
    if scale <= floor or scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def crosscheck(spec: SweepSpec) -> tuple[CrosscheckReport, Rows]:
    """Run the closed-form, moment and Fock paths on one point, in that order,
    and compare each pair of ``_PAIRS``; returns the report and one row per path."""
    p = _Params(spec.params)
    default = fockspace.FockConfig()
    cfg = fockspace.FockConfig(p.get("fock_n_max", default=default.n_max),
                               p.get("fock_tail_bound", default=default.tail_bound))
    tolerances = {key: p.get(key, default=tol) for _, _, key, tol in _PAIRS}
    for key, tol in tolerances.items():
        if not (math.isfinite(tol) and tol >= 0):
            p.errors.append(f"config: {key} must be finite and non-negative, got {tol}")
    system = _two_cavity(p)

    # each path's current report, and the residual of the state it is read from
    paths = {
        "closedform": (closedform.current_general(system), 0.0),
        "moments": (chain.boundary_currents(system, state := chain.steady_state_matrix(system)), state.residual),
        "fock": (fockspace.oracle_currents(system, rho := fockspace.steady_rho(system, cfg)), rho.residual),
    }
    currents = {path: path_report.i_left for path, (path_report, _) in paths.items()}
    scale = system.omega_left**2
    deviations = {(a, b): (_relative_deviation(currents[a], currents[b], tolerances[key] * scale), tolerances[key])
                  for a, b, key, _ in _PAIRS}
    reports = [path_report for path_report, _ in paths.values()]
    rows = Rows(
        len(paths),
        experiment=spec.experiment,
        path=list(paths),
        sigma_z=system.sigma_z if system.atom else None,
        residual=[residual for _, residual in paths.values()],
        **{name: [getattr(path_report, name) for path_report in reports] for name in vars(reports[0])},
    )
    return CrosscheckReport(currents, deviations), rows


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return format(value, ".17g")


def _csv_cells(values: list) -> list[str]:
    """One column of CSV cells: a finite float is formatted directly (``%`` gives
    the bytes of ``format(v, ".17g")``, faster), every other value by ``_format_value``."""
    return ["%.17g" % v if isinstance(v, float) and math.isfinite(v) else _format_value(v) for v in values]


def _json_cells(values: list) -> list[str]:
    """One column of JSON values, as ``json.dumps`` writes them; a non-finite
    float is written as the string ``_format_value`` gives it. Finite floats
    and None, the common cells, skip ``json.dumps``."""
    return [
        float.__repr__(v) if isinstance(v, float) and math.isfinite(v)
        else "null" if v is None
        else json.dumps(_format_value(v) if isinstance(v, float) else v)
        for v in values
    ]


# one row object, laid out as json.dumps(..., indent=2) lays it out inside "rows"
_JSON_ROW = "    {\n" + ",\n".join(f"      {json.dumps(column)}: %s" for column in COLUMNS) + "\n    }"


def _write_rows(spec: SweepSpec, rows: Rows) -> None:
    """The rows as CSV or as indented JSON, formatted a column at a time; a
    column that holds one value for every row is formatted once."""
    encode = _csv_cells if spec.fmt == "csv" else _json_cells
    columns = [encode(value) if _is_column(value) else encode([value]) * len(rows) for value in rows.columns.values()]
    if spec.fmt == "csv":
        lines = [",".join(COLUMNS), *map(",".join, zip(*columns))]
        text = "\n".join(lines) + "\n"
    else:
        head = json.dumps({"experiment": spec.experiment, "columns": list(COLUMNS)}, indent=2)
        body = ",\n".join(_JSON_ROW % cells for cells in zip(*columns))
        text = head[: -len("\n}")] + ',\n  "rows": ' + (f"[\n{body}\n  ]" if len(rows) else "[]") + "\n}\n"
    spec.output.write_text(text, encoding="utf-8", newline="\n")


def _oracle_crosscheck(spec: SweepSpec) -> Rows:
    """Crosscheck rows, with the report on stderr: the paths' currents, then each
    pair's deviation, each run of pairs that share a tolerance key closed by it.
    On a breach the rows are written before CrosscheckError is raised."""
    report, rows = crosscheck(spec)
    print("crosscheck: " + " ".join(f"{path}={current:.12e}" for path, current in report.currents.items()),
          file=sys.stderr)
    parts = []
    for k, (a, b, key, _) in enumerate(_PAIRS):
        deviation, tol = report.deviations[a, b]
        closes_run = k + 1 == len(_PAIRS) or _PAIRS[k + 1][2] != key
        parts.append(f"dev({a},{b})={deviation:.3e}" + (f" (tol {tol:.1e})" if closes_run else ""))
    largest = max(deviation for deviation, _ in report.deviations.values())
    print(f"crosscheck: {', '.join(parts)}; max pairwise {largest:.3e}", file=sys.stderr)
    if not report.passed:
        _write_rows(spec, rows)
        raise CrosscheckError("cross-path deviation exceeded its threshold")
    return rows


_ROWS = {
    "gamma_sweep": _gamma_sweep,
    "chi_sweep": lambda spec: _chi_sweep(spec, with_ratio=True),
    "current_decomposition": lambda spec: _chi_sweep(spec, with_ratio=False),
    "rectification_sweep": _rectification_sweep,
    "size_scan": _size_scan,
    "profile": _profile,
    "regime_table": _regime_table,
    "oracle_crosscheck": _oracle_crosscheck,
}
EXPERIMENTS = tuple(_ROWS)


def run_experiment(spec: SweepSpec) -> Rows:
    """Compute the rows of one experiment and write the output file."""
    rows = _ROWS[spec.experiment](spec)
    _write_rows(spec, rows)
    return rows


def _build_spec(args: argparse.Namespace) -> SweepSpec:
    params: dict[str, str] = {}
    if args.config is not None:
        params.update(parse_config_file(Path(args.config)))
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValidationError([f"config: --set expects key=value, got {item!r}"])
        key, _, value = (part.strip() for part in item.partition("="))
        if key in overrides:
            raise ValidationError([f"config: --set gives key {key!r} twice, as {overrides[key]!r} and {value!r}"])
        overrides[key] = value
    return SweepSpec(
        experiment=args.experiment,
        params=params | overrides,
        output=Path(args.out),
        fmt=args.format,
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing does not change it."""
    parser = argparse.ArgumentParser(prog="cavityheat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named sweep experiment")
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--config", help="flat key = value parameter file")
    run.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    run.add_argument("--out", required=True, help="output file path")
    run.add_argument("--format", default="csv", choices=("csv", "json"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _build_spec(args)
        run_experiment(spec)
    except ValidationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CrosscheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
