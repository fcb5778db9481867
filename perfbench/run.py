"""Benchmark of cavityheat: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout that holds this file and
driven only through ``cavityheat.cli.main([...])``, in this process and from
one thread. A round runs the workload's fixed list of operations once; rounds
repeat until ``--seconds`` have passed. With ``--trace 0`` every round is
untraced and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced rounds alternate and the per-layer metrics
are printed, with the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS thread for the program, set before numpy loads; see README.md
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_STARTS = 5  # fresh interpreters timed for setup_s before the rounds, and again after them

import tracing  # noqa: E402  (after the thread count is set)
import workloads  # noqa: E402

# known faults: description, and the exit code with which their operations end
FAULTS = {
    "A": ("moments.currents_from_moments uses (omega_R + sigma_z chi) <n_R> for the right current, "
          "exact only at sigma_z = +-1; wrong i_right at a mixed atom with detuned cavities", 0),
    "B": ("closedform.current_general is inexact at a mixed atom with detuned cavities; "
          "oracle_crosscheck exits 5", 5),
}


def import_program():
    """cavityheat.cli from the checkout's src/, or SystemExit when it is not there."""
    if not (SRC / "cavityheat" / "cli.py").is_file():
        sys.exit(f"error: no program at {SRC}/cavityheat; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cavityheat.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "cavityheat":
        sys.exit(f"error: imported cavityheat from {cli.__file__}, not from {SRC}")
    return cli


def time_setup(workload: str, work: Path) -> list[float]:
    """Times of fresh interpreters, each to import cavityheat.cli and finish a first call."""
    experiment, params = workloads.FIRST_CALL[workload]
    argv = ["run", "--experiment", experiment, "--out", str(work / "first-call.csv")]
    for key, value in params.items():
        argv += ["--set", f"{key}={value!r}"]
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import cavityheat.cli as cli\n"
        f"rc = cli.main({argv!r})\n"
        "print(time.monotonic())\n"
        "sys.exit(rc)\n"
    )
    times = []
    for _ in range(SETUP_STARTS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            sys.exit(f"error: set-up call failed ({done.returncode}): {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def run_round(cli, ops, work: Path, tracer=None) -> tuple[float, list]:
    """Run every operation once; (round wall time, exit code of each operation)."""
    codes = []
    argvs = [op.argv(work) for op in ops]
    sink = io.StringIO()  # the program's stderr (crosscheck lines, warnings)
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stderr(sink):
            round_start = time.perf_counter()
            for op, argv in zip(ops, argvs):
                if tracer is not None:
                    tracer.op = op.index
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a fault that escapes main fails the operation
                    code = f"{type(exc).__name__}: {exc}"
                codes.append(code)
            wall = time.perf_counter() - round_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_program()
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed)
        for op in ops:
            op.write_config(work)
        setup_times = time_setup(args.workload, work)

        walls = {False: [], True: []}
        outcomes, first_bytes, mismatched = [], {}, set()
        traced_rounds, first_tracer = [], None
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(outcomes) % 2 == 1
            tracer = tracing.Tracer() if traced else None
            wall, codes = run_round(cli, ops, work, tracer)
            walls[traced].append(wall)
            outcomes.append(codes)
            # every rerun must write byte-identical output
            written = {}
            for op in ops:
                path = op.output(work)
                data = path.read_bytes() if path.exists() else b""
                written[op.index] = len(data)
                digest = hashlib.sha256(data).digest()
                if first_bytes.setdefault(op.index, digest) != digest:
                    mismatched.add(op.index)
            if traced:
                rows = sum(len(workloads.read_rows(op.output(work), op.fmt)) for op in ops if op.output(work).exists())
                traced_rounds.append(tracing.round_metrics(tracer.spans, rows, sum(written.values())))
                first_tracer = first_tracer or tracer
            if time.perf_counter() - begin >= args.seconds and (not args.trace or traced_rounds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # starts on both sides of the rounds, so that setup_s follows the machine over the whole run
        setup_s = statistics.median(setup_times + time_setup(args.workload, work))

        # the reference checks, on the last round's output (identical to every round's);
        # imported only now, so that the reference's libraries stay out of peak_rss_mb
        import checks

        problems = {op.index: checks.check(op, op.output(work)) for op in ops}
        rounds = len(outcomes)
        attempted = failed = 0
        fault_counts = {op.fault: 0 for op in ops if op.fault is not None}
        unexpected = {}
        for codes in outcomes:
            for op, code in zip(ops, codes):
                attempted += 1
                reasons = ([] if code == 0 else [f"exit code {code}"]) + problems[op.index]
                if op.index in mismatched:
                    reasons.insert(0, "output differs between reruns")
                if not reasons:
                    continue
                failed += 1
                if op.fault is not None and op.index not in mismatched and code == FAULTS[op.fault][1]:
                    fault_counts[op.fault] += 1
                else:
                    unexpected.setdefault(op.index, (op, reasons))
        correct = not unexpected

        for op, reasons in unexpected.values():
            print(f"FAILED {op.stem} ({op.fmt}): {len(reasons)} problems; first: {reasons[0]}")
        for name, count in fault_counts.items():
            print(f"fault {name}: {count} failed operations ({count // rounds} per round x {rounds} rounds); "
                  f"{FAULTS[name][0]}")

        if args.trace:
            metrics = tracing.combine(traced_rounds)
            metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
            units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
            path = HERE / "_work" / f"trace-{args.workload}-s{args.seed}.jsonl.gz"
            first_tracer.write(path)
            print(f"spans of the first traced round: {path.relative_to(HERE.parent)} ({len(first_tracer.spans)} spans)")
        else:
            metrics = {
                "wall_s": statistics.median(walls[False]),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup_s,
            }
            units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations x {rounds} rounds")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
