"""Spans around the public functions of each layer of the program.

Each public function (a name in a module's ``__all__`` that the module
defines) is replaced, for the length of a traced round, wherever a module of
the package binds it: modules import ``validate`` with ``from .model import
validate``, so every such binding is replaced, and calls inside a module go
through its own globals, which are the same bindings. A span records the
operation it belongs to, its name, start, end and parent; spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
from pathlib import Path
from time import perf_counter

PACKAGE = "cavityheat"
LAYERS = ("model", "closedform", "moments", "chain", "fockspace", "cli")

# per-layer metrics: name -> (unit, better)
METRICS = {
    "model.validate.calls": ("count", "lower"),
    "model.validate.self_ms": ("ms", "lower"),
    "closedform.calls": ("count", "lower"),
    "closedform.self_ms": ("ms", "lower"),
    "moments.steady_state.self_ms": ("ms", "lower"),
    "moments.currents_from_moments.self_ms": ("ms", "lower"),
    "moments.steady_residual.self_ms": ("ms", "lower"),
    "moments.generator_matrix.calls": ("count", "lower"),
    "chain.steady_state_matrix.self_ms": ("ms", "lower"),
    "chain.steady_state_matrix.largest_ms": ("ms", "lower"),
    "chain.steady_residual_matrix.self_ms": ("ms", "lower"),
    "chain.build_generators.calls": ("count", "lower"),
    "fockspace.steady_rho.calls": ("count", "lower"),
    "fockspace.steady_rho.self_ms": ("ms", "lower"),
    "fockspace.oracle_currents.self_ms": ("ms", "lower"),
    "fockspace.fock_operators.self_ms": ("ms", "lower"),
    "cli.run_experiment.self_ms": ("ms", "lower"),
    "cli.rows": ("count", "higher"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one round."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in microseconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for op, name, start, end, parent in self.spans:
                record = {"op": op, "name": name, "start_us": round((start - origin) * 1e6, 3),
                          "end_us": round((end - origin) * 1e6, 3), "parent": parent}
                handle.write(json.dumps(record) + "\n")


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, self time and largest duration per span name.

    Self time is a span's duration minus the durations of its child spans;
    the program runs in one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (_, name, start, end, _), inner in zip(spans, child):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "largest_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - inner
        entry["largest_s"] = max(entry["largest_s"], end - start)
    return totals


def round_metrics(spans: list[list], rows: int, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced round, without the overhead."""
    totals = span_totals(spans)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    closed = [v for k, v in totals.items() if k.startswith("closedform.")]
    special = {
        "closedform.calls": sum(v["calls"] for v in closed),
        "closedform.self_ms": 1e3 * sum(v["self_s"] for v in closed),
        "chain.steady_state_matrix.largest_ms": 1e3 * get("chain.steady_state_matrix", "largest_s"),
        "cli.rows": rows,
        "cli.bytes_written": bytes_written,
    }
    out = {}
    for metric in METRICS:
        name, _, kind = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif kind == "calls":
            out[metric] = get(name, "calls")
        elif kind == "self_ms":
            out[metric] = 1e3 * get(name, "self_s")
    return out


def combine(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Counts of the first traced round (they repeat exactly); medians of times."""
    return {
        metric: rounds[0][metric] if METRICS[metric][0] in ("count", "bytes")
        else statistics.median(r[metric] for r in rounds)
        for metric in rounds[0]
    }
