"""Check that two checkouts of cavityheat write the same bytes for every benchmark operation.

Usage:

    python tools/same_output.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout is run in its own fresh interpreter, with ``src/`` of that
checkout first on the import path and one BLAS thread, as perfbench runs it.
The interpreter builds every operation of every workload in the checkout's
``perfbench/workloads.py`` at seeds 1 to 20, writes its config file and
runs it through ``cavityheat.cli.main``, all in one scratch directory;
``workloads.py`` is read, never changed. It then runs this script's own
operations, ``LONG``, in both formats. No perfbench operation writes more
than 1,201 rows; two of these write 5,001, so that their output spans
several blocks of the writer (``cli.BLOCK_ROWS``) and slices of the solve
(``chain.SOLVE_SLICE``) at any size up to 2,500, and the third writes two
rows. For each operation it records the exit code (or the exception that
escaped ``main``), the sha256 of the output file, and what the program
wrote to stdout and stderr, with the checkout's own path (a warning names
its source file) read as ``<checkout>``. The argv paths are relative to
the scratch directory, so both checkouts see the same argv.

The operations of the two checkouts are then compared one by one. Each
operation that differs in any of these, or that only one checkout has, is
listed, and the exit status is 1; it is 0 when every operation is the same.
Twenty seeds make 1020 operations, so a fault that only some seeds reach
shows; with the six of ``LONG``, 1026 run in under a minute.

To make the parent checkout of the current commit, for example:

    git worktree add ../cavityheat-parent HEAD~1
    python tools/same_output.py ../cavityheat-parent .
    git worktree remove ../cavityheat-parent
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = range(1, 21)

# (name, experiment, config) of the operations run in both formats after the workloads'
_PAIR = {"coupling": "0.02", "chi": "0.05", "nbar_left": "0.5", "nbar_right": "0.0",
         "gamma_left": "0.064", "gamma_right": "0.064"}
LONG = [
    ("gamma-5001-mixed", "gamma_sweep",
     dict(_PAIR, sigma_z="0.3", sweep_start="0.001", sweep_step="1e-5", sweep_stop="0.051005")),
    ("chi-5001", "chi_sweep",
     dict(_PAIR, omega_right="1.1", sigma_z="-1", sweep_start="0", sweep_step="4e-4", sweep_stop="2.0002")),
    ("gamma-2", "gamma_sweep", dict(_PAIR, sigma_z="1", sweep_start="0.01", sweep_step="0.01", sweep_stop="0.02")),
]

# Runs in the checkout's own interpreter: argv is the checkout, LONG as JSON, then the seeds.
CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path

checkout, long, seeds = Path(sys.argv[1]).resolve(), json.loads(sys.argv[2]), [int(seed) for seed in sys.argv[3:]]
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
import workloads
import cavityheat.cli as cli

if Path(cli.__file__).resolve().parent != checkout / "src" / "cavityheat":
    sys.exit(f"imported cavityheat from {cli.__file__}, not from {checkout / 'src'}")
results = {}

def record(name, argv, output):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(output.read_bytes()).hexdigest() if output.is_file() else None
    results[name] = {"exit": code, "sha256": digest, "stdout": out.getvalue(),
                     "stderr": err.getvalue().replace(str(checkout), "<checkout>")}

for workload in workloads.WORKLOADS:
    for seed in seeds:
        work = Path(f"{workload}-s{seed}")
        work.mkdir()
        for op in workloads.build(workload, seed):
            op.write_config(work)
            record(f"{workload} seed {seed} {op.stem}", op.argv(work), op.output(work))
for name, experiment, params in long:
    for fmt in ("csv", "json"):
        output = Path(f"{name}.{fmt}")
        argv = ["run", "--experiment", experiment, "--out", str(output), "--format", fmt]
        argv += [arg for key, value in params.items() for arg in ("--set", f"{key}={value}")]
        record(f"long {name} {fmt}", argv, output)
print(json.dumps(results))
"""


def run_checkout(checkout: Path) -> dict:
    """The record of every operation of one checkout, from a fresh interpreter."""
    if not (checkout / "src" / "cavityheat" / "cli.py").is_file():
        sys.exit(f"error: {checkout} has no src/cavityheat/cli.py")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")  # as perfbench runs it
    with tempfile.TemporaryDirectory(prefix="same-output-") as scratch:
        result = subprocess.run([sys.executable, "-c", CHILD, str(checkout), json.dumps(LONG), *map(str, SEEDS)],
                                cwd=scratch, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"error: the operations of {checkout} did not run:\n{result.stderr}")
    return json.loads(result.stdout)


def differences(parent: dict, change: dict) -> list[str]:
    """One line per operation that is not the same in both records."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            lines.append(f"{name}: only in the {'change' if name in change else 'parent'}")
            continue
        fields = [field for field in ("exit", "sha256", "stdout", "stderr")
                  if parent[name][field] != change[name][field]]
        if fields:
            lines.append(f"{name}: {', '.join(fields)} differ")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args()
    parent, change = run_checkout(args.parent.resolve()), run_checkout(args.change.resolve())
    lines = differences(parent, change)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(parent.keys() | change.keys())} operations differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
