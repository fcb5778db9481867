import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityheat
from cavityheat import chain, cli, fockspace, model
from cavityheat.cli import SweepSpec, crosscheck, main, parse_config_file, run_experiment
from cavityheat.closedform import current_general
from cavityheat.model import AtomSpec, ReservoirSpec, SolverError, TwoCavitySystem, ValidationError

FIG2 = {
    "coupling": "0.02",
    "chi": "0.05",
    "sigma_z": "1.0",
    "nbar_left": "0.5",
    "nbar_right": "0.0",
    "gamma_left": "0.064",
    "gamma_right": "0.064",
}


def spec_for(experiment, out, params, fmt="csv"):
    return SweepSpec(experiment=experiment, params=params, output=out, fmt=fmt)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("# reference point\ncoupling = 0.02\nchi = 0.05  # shift\n\ngamma_left=0.064\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"coupling": "0.02", "chi": "0.05", "gamma_left": "0.064"}


def test_config_file_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling 0.02\n")
    with pytest.raises(ValidationError):
        parse_config_file(cfg)


def test_a_config_that_is_not_utf8_exits_with_a_validation_error(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"coupling = 0.02\n\xff\xfe = 1\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--experiment", "gamma_sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {cfg} is not UTF-8 text (invalid start byte at byte 16)"]
    assert not out.exists()


def write_config(path, text, prefix=b""):
    path.write_bytes(prefix + text.encode("utf-8"))
    return path


GAMMA_SWEEP_CONFIG = "".join(f"{key} = {value}\n" for key, value in FIG2.items()) + (
    "sweep_start = 0.03\nsweep_stop = 0.05\nsweep_step = 0.01\n")


def test_a_config_with_a_byte_order_mark_reads_as_without_one(tmp_path, capsys):
    # some editors save UTF-8 with a leading U+FEFF, which is no part of the first key
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = write_config(tmp_path / f"{name}.cfg", GAMMA_SWEEP_CONFIG, prefix)
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--experiment", "gamma_sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert capsys.readouterr().err == ""
    # a byte that is not UTF-8 is named by its offset in the file, the mark counted
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xef\xbb\xbfcoupling = 0.02\n\xff = 1\n")
    argv = ["run", "--experiment", "gamma_sweep", "--config", str(bad), "--out", str(tmp_path / "bad.csv")]
    assert main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {bad} is not UTF-8 text (invalid start byte at byte 19)"]
    assert not (tmp_path / "bad.csv").exists()


def test_a_key_given_twice_in_a_config_exits_with_a_validation_error(tmp_path, capsys):
    # the last value used to win silently; --set still overrides a key of the file
    cfg = write_config(tmp_path / "twice.cfg", GAMMA_SWEEP_CONFIG + "coupling = 0.03\n")
    out = tmp_path / "x.csv"
    argv = ["run", "--experiment", "gamma_sweep", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == ["error: config: key 'coupling' is given twice, on lines 1 and 11"]
    assert not out.exists()
    once = write_config(tmp_path / "once.cfg", GAMMA_SWEEP_CONFIG)
    assert main(["run", "--experiment", "gamma_sweep", "--config", str(once), "--out", str(out),
                 "--set", "coupling=0.03"]) == cli.EXIT_OK


def test_unknown_keys_are_collected(tmp_path):
    params = dict(FIG2, typo_key="1", sweep_start="0.05", sweep_stop="0.08", sweep_step="0.01")
    with pytest.raises(ValidationError) as err:
        run_experiment(spec_for("gamma_sweep", tmp_path / "x.csv", params))
    assert any("typo_key" in msg for msg in err.value.errors)


def test_gamma_sweep_argmax_and_determinism(tmp_path):
    out = tmp_path / "gamma.csv"
    params = dict(FIG2, sweep_start="0.03", sweep_stop="0.1", sweep_step="0.001")
    spec = spec_for("gamma_sweep", out, params)
    run_experiment(spec)
    first = out.read_bytes()
    header, rows = read_csv(out)
    assert header == list(cli.COLUMNS)
    values = np.array([float(r["value"]) for r in rows])
    currents = np.array([float(r["i_left"]) for r in rows])
    peak = math.sqrt(4 * 0.02**2 + 0.05**2)
    assert abs(values[np.argmax(currents)] - peak) <= 0.001
    assert all(float(r["residual"]) < 1e-10 for r in rows)
    # reruns are byte-identical
    run_experiment(spec)
    assert out.read_bytes() == first


def test_a_high_q_gamma_sweep_matches_the_closed_form(tmp_path):
    # rates of 1e-6 against omega = 1 and J = 0.01
    params = dict(FIG2, coupling="0.01", sweep_start="1e-6", sweep_stop="3e-6", sweep_step="1e-6")
    assert run_main("gamma_sweep", tmp_path, params) == cli.EXIT_OK
    _, rows = read_csv(tmp_path / "out.csv")
    assert len(rows) == 3
    for row in rows:
        gamma = float(row["value"])
        system = TwoCavitySystem(omega_left=1.0, omega_right=1.0, coupling=0.01, left=ReservoirSpec(gamma, 0.5),
                                 right=ReservoirSpec(gamma, 0.0), atom=AtomSpec(0.05, 1.0))
        assert float(row["residual"]) <= model.RESIDUAL_TOL
        assert float(row["i_left"]) == pytest.approx(current_general(system).i_left, rel=1e-9, abs=0)


def test_chi_sweep_detects_reversal(tmp_path):
    out = tmp_path / "chi.csv"
    params = {
        "coupling": "0.05",
        "omega_right": "0.8",
        "chi": "0.9",
        "sigma_z": "-1.0",
        "gamma_left": "0.1",
        "gamma_right": "0.03",
        "nbar_left": "0.5",
        "nbar_right": "0.0",
        "sweep_start": "0.9",
        "sweep_stop": "1.3",
        "sweep_step": "0.01",
    }
    run_experiment(spec_for("chi_sweep", out, params))
    _, rows = read_csv(out)
    values = np.array([float(r["value"]) for r in rows])
    currents = np.array([float(r["i_left"]) for r in rows])
    sign_change = np.nonzero(np.diff(np.sign(currents)))[0]
    assert len(sign_change) == 1
    assert abs(values[sign_change[0]] - 1.1) <= 0.01 + 1e-12
    ratios = np.array([float(r["i_ratio"]) for r in rows])
    assert np.all(np.isfinite(ratios))


def test_rectification_sweep_shows_the_jump(tmp_path):
    out = tmp_path / "rect.csv"
    params = {
        "coupling": "0.05",
        "chi": "1.5",
        "sigma_z": "-1.0",
        "gamma_left": "0.05",
        "gamma_right": "0.2",
        "nbar_left": "0.5",
        "nbar_right": "0.0",
        "sweep_start": "0.05",
        "sweep_stop": "0.15",
        "sweep_step": "0.005",
    }
    run_experiment(spec_for("rectification_sweep", out, params))
    _, rows = read_csv(out)
    below = [float(r["rectification"]) for r in rows if float(r["value"]) < 0.1 - 1e-9]
    above = [float(r["rectification"]) for r in rows if float(r["value"]) > 0.1 + 1e-9]
    assert below[-1] < -10 and above[0] > 10


def test_size_scan_rows(tmp_path):
    out = tmp_path / "size.csv"
    params = {
        "coupling": "0.05",
        "chi": "0.15",
        "sigma_z": "-1.0",
        "gamma_left": "0.15",
        "gamma_right": "0.15",
        "nbar_left": "0.5",
        "nbar_right": "0.0",
        "n_start": "2",
        "n_stop": "6",
    }
    run_experiment(spec_for("size_scan", out, params))
    _, rows = read_csv(out)
    assert [int(r["value"]) for r in rows] == [2, 3, 4, 5, 6]
    ratios = [float(r["i_ratio"]) for r in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_profile_rows(tmp_path):
    out = tmp_path / "profile.json"
    params = {
        "coupling": "0.05",
        "chi": "0.1",
        "sigma_z": "-1.0",
        "gamma_left": "0.15",
        "gamma_right": "0.15",
        "nbar_left": "0.5",
        "nbar_right": "0.0",
        "n_sites": "6",
    }
    run_experiment(spec_for("profile", out, params, fmt="json"))
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "profile"
    rows = payload["rows"]
    assert [r["site"] for r in rows] == [1, 2, 3, 4, 5, 6]
    occupations = [r["occupation"] for r in rows]
    assert occupations[0] > occupations[-1]
    assert rows[0]["i_left"] == pytest.approx(-rows[0]["i_right"], rel=1e-9)


def test_regime_table_matches_sign_pattern(tmp_path):
    out = tmp_path / "regimes.csv"
    params = {
        "coupling": "0.05",
        "omega_right": "0.8",
        "chi": "1.1",
        "sigma_z": "-1.0",
        "gamma_left": "0.1",
        "nbar_left": "0.5",
        "nbar_right": "0.0",
        "gamma_right": "0.03",
        "alpha_values": "0.5,1.0,2.0",
    }
    run_experiment(spec_for("regime_table", out, params))
    _, rows = read_csv(out)
    pattern = {(r["value"], r["sigma_z"]): (r["regime"], float(r["i_left"])) for r in rows}
    for alpha_text in ("0.5", "1", "2"):
        key_up = next(k for k in pattern if k[0].startswith(alpha_text) and k[1] == "1")
        assert pattern[key_up][0] == "conducting" and pattern[key_up][1] > 0
    down = {k[0][:3]: v for k, v in pattern.items() if k[1] == "-1"}
    assert down["0.5"][0] == "reversed" and down["0.5"][1] < 0
    assert down["1"][0] == "insulating" and abs(down["1"][1]) < 1e-12
    assert down["2"][0] == "conducting" and down["2"][1] > 0


def test_crosscheck_passes_at_reference_point(tmp_path):
    out = tmp_path / "check.csv"
    params = dict(
        FIG2,
        fock_n_max="12",
        fock_tail_bound="1e-6",
        tol_moments_fock="1e-4",
    )
    report, rows = crosscheck(spec_for("oracle_crosscheck", out, params))
    assert report.passed
    assert report.deviations["closedform", "moments"][0] < 1e-10
    assert {r["path"] for r in rows} == {"closedform", "moments", "fock"}


def test_crosscheck_passes_at_blocking_point(tmp_path):
    # every path reports zero at its own resolution; that counts as agreement
    params = {
        "coupling": "0.05",
        "omega_right": "0.8",
        "chi": "1.1",
        "sigma_z": "-1.0",
        "gamma_left": "0.1",
        "gamma_right": "0.03",
        "nbar_left": "0.5",
        "nbar_right": "0.0",
        "fock_n_max": "12",
        "fock_tail_bound": "1e-6",
    }
    report, _ = crosscheck(spec_for("oracle_crosscheck", tmp_path / "check.csv", params))
    assert abs(report.currents["closedform"]) < 1e-12
    assert abs(report.currents["moments"]) < 1e-12
    assert abs(report.currents["fock"]) < 1e-6
    assert report.passed


def test_crosscheck_exit_code_on_breach(tmp_path):
    out = tmp_path / "check.csv"
    argv = [
        "run",
        "--experiment",
        "oracle_crosscheck",
        "--out",
        str(out),
    ]
    for key, value in dict(FIG2, fock_n_max="8", fock_tail_bound="1e-3", tol_moments_fock="1e-12").items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == cli.EXIT_CROSSCHECK
    assert out.exists()  # the report is still written


def test_crosscheck_report_lines_are_pinned(tmp_path, capsys):
    # at n_max 6 the oracle is 6.1e-3 off (a breach of the default 1e-6); the
    # closed-form and moment currents, 3.2e-3, sit below their 1e-2 floor, so
    # their deviation reads 0 whatever the rounding
    params = dict(FIG2, fock_n_max="6", fock_tail_bound="1e-3", tol_closedform_moments="1e-2")
    assert run_main("oracle_crosscheck", tmp_path, params) == cli.EXIT_CROSSCHECK
    assert capsys.readouterr().err.splitlines() == [
        "crosscheck: closedform=3.201561737433e-03 moments=3.201561737433e-03 fock=3.181979585954e-03",
        "crosscheck: dev(closedform,moments)=0.000e+00 (tol 1.0e-02), dev(moments,fock)=6.116e-03, "
        "dev(closedform,fock)=6.116e-03 (tol 1.0e-06); max pairwise 6.116e-03",
        "error: cross-path deviation exceeded its threshold",
    ]
    assert [row["path"] for row in read_csv(tmp_path / "out.csv")[1]] == ["closedform", "moments", "fock"]


def test_exit_validation_on_bad_config(tmp_path):
    assert main(
        ["run", "--experiment", "gamma_sweep", "--out", str(tmp_path / "x.csv"), "--set", "bogus=1"]
    ) == cli.EXIT_VALIDATION


def test_each_main_call_in_one_process_parses_only_its_own_argv(tmp_path, capsys):
    def argv(out, params, *extra):
        return ["run", "--experiment", "gamma_sweep", "--out", str(tmp_path / out), *extra,
                *(f"--set={key}={value}" for key, value in params.items())]

    assert main(argv("a.json", SWEEP, "--format", "json")) == cli.EXIT_OK
    assert main(argv("b.csv", SWEEP)) == cli.EXIT_OK  # the default format again, not the last call's
    assert json.loads((tmp_path / "a.json").read_text()) and read_csv(tmp_path / "b.csv")[1]
    incomplete = {key: value for key, value in SWEEP.items() if key != "sweep_step"}
    assert main(argv("c.csv", incomplete)) == cli.EXIT_VALIDATION  # no --set is left over either
    assert capsys.readouterr().err.splitlines() == ["error: config: missing required key 'sweep_step'"]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--experiment", "nope", "--out", str(tmp_path / "d.csv")])
        assert exit_.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("usage: cavityheat run")
    assert "argument --experiment: invalid choice: 'nope'" in errors[0]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("value", ["abc", "0"], ids=["malformed", "zero"])
def test_profile_reports_a_bad_size_once(tmp_path, capsys, value):
    # the atom is re-hosted at site n_sites, so the size reaches both the atom and the chain
    argv = ["run", "--experiment", "profile", "--out", str(tmp_path / "x.csv")]
    for key, item in dict(FIG2, n_sites=value).items():
        argv += ["--set", f"{key}={item}"]
    assert main(argv) == cli.EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    expected = ("error: config: key 'n_sites' expects an integer, got 'abc'" if value == "abc"
                else "error: n_sites: need at least 2 cavities (got 0)")
    assert lines.count(expected) == 1
    assert not (tmp_path / "x.csv").exists()


def test_a_malformed_key_the_experiment_does_not_read_is_an_error(tmp_path, capsys):
    assert run_main("gamma_sweep", tmp_path, dict(SWEEP, n_sites="abc")) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == ["error: config: key 'n_sites' expects an integer, got 'abc'"]
    assert not (tmp_path / "out.csv").exists()


def test_config_errors_come_unknown_then_malformed_then_missing(tmp_path, capsys):
    params = {key: value for key, value in dict(SWEEP, coupling="abc", typo="1").items() if key != "sweep_step"}
    assert run_main("gamma_sweep", tmp_path, params) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "error: config: unknown key 'typo'",
        "error: config: key 'coupling' expects a number, got 'abc'",
        "error: config: missing required key 'sweep_step'",
    ]


def _keys_read_in_cli() -> set[str]:
    """Every key ``cli`` reads through ``p.get`` or ``p.has``; an f-string key
    is expanded over both sides."""
    keys = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "has") and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "p"):
            continue
        key = node.args[0]
        if isinstance(key, ast.JoinedStr):
            parts = [part.value if isinstance(part, ast.Constant) else None for part in key.values]
            keys.update("".join(side if part is None else part for part in parts) for side in ("left", "right"))
        elif isinstance(key, ast.Name):  # the tolerance keys, read over the table of compared pairs
            keys.update(pair[2] for pair in cli._PAIRS)
        else:
            keys.add(key.value)
    return keys


def test_every_key_read_is_in_the_key_table_and_every_table_key_is_read():
    assert _keys_read_in_cli() == set(cli._KEYS)


def test_readme_lists_the_keys_of_the_key_table():
    readme = (Path(cavityheat.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Keys:(.*?)\.\s", readme, re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(cli._KEYS)


def test_exit_io_on_unwritable_output(tmp_path):
    params = dict(FIG2, sweep_start="0.05", sweep_stop="0.07", sweep_step="0.01")
    argv = ["run", "--experiment", "gamma_sweep", "--out", str(tmp_path / "missing" / "x.csv")]
    for key, value in params.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == cli.EXIT_IO


def per_cell_text(spec, rows):
    """The output of the per-cell row encoder that the column writer replaced."""
    if spec.fmt == "csv":
        lines = [",".join(cli.COLUMNS)]
        for row in rows:
            lines.append(",".join(cli._format_value(row[column]) for column in cli.COLUMNS))
        return "\n".join(lines) + "\n"
    payload = {
        "experiment": spec.experiment,
        "columns": list(cli.COLUMNS),
        "rows": [
            {
                column: (cli._format_value(row[column]) if isinstance(row[column], float) and not math.isfinite(row[column]) else row[column])
                for column in cli.COLUMNS
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


CELLS = [
    None, "blocking", 'q"é%s,', 7, True, 0.1, np.float64(1 / 3), math.inf, -math.inf, math.nan,
    np.float64(-math.inf), np.float64(math.nan), -0.0, np.float64(-0.0), 5e-324, 1e300, -1e-300, 1e16,
]


@pytest.mark.parametrize("n_rows", [0, 1, None], ids=["empty", "one", "every-cell-in-every-column"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_row_writer_matches_the_per_cell_encoder(tmp_path, fmt, n_rows):
    # JSON has no encoding of numpy integers, so they are written only to CSV
    cells = CELLS + [np.int64(-3)] if fmt == "csv" else CELLS
    # row i, column j holds cells[i * 5 + j]; 5 is prime to the cell count, so each column meets every cell
    rows = [{column: cells[(i * 5 + j) % len(cells)] for j, column in enumerate(cli.COLUMNS)}
            for i in range(len(cells))][:n_rows]
    spec = spec_for("gamma_sweep", tmp_path / f"rows.{fmt}", {}, fmt=fmt)
    cli._write_rows(spec, cli.Rows(len(rows), **{column: [row[column] for row in rows] for column in cli.COLUMNS}))
    assert spec.output.read_bytes() == per_cell_text(spec, rows).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_column_of_one_value_is_written_in_every_row(tmp_path, fmt):
    cells = CELLS + [np.int64(-3)] if fmt == "csv" else CELLS
    spec = spec_for("gamma_sweep", tmp_path / f"rows.{fmt}", {}, fmt=fmt)
    for cell in cells:
        rows = [{column: cell for column in cli.COLUMNS}] * 3
        cli._write_rows(spec, cli.Rows(3, **{column: cell for column in cli.COLUMNS}))
        assert spec.output.read_bytes() == per_cell_text(spec, rows).encode("utf-8"), cell


def test_rows_read_as_dicts_and_reject_uneven_columns():
    rows = cli.Rows(2, experiment="gamma_sweep", value=np.array([0.1, 0.2]), path=["a", "b"])
    assert len(rows) == 2 and [row["value"] for row in rows] == [0.1, 0.2]
    assert rows[-1] == dict.fromkeys(cli.COLUMNS) | {"experiment": "gamma_sweep", "value": 0.2, "path": "b"}
    with pytest.raises(IndexError):
        rows[2]
    with pytest.raises(ValueError, match="one value per row"):
        cli.Rows(3, value=[0.1, 0.2])
    with pytest.raises(ValueError, match="unknown output columns"):
        cli.Rows(1, bogus=1.0)


def test_exit_solver_mapping(monkeypatch, tmp_path):
    def boom(spec):
        raise SolverError("solver failure at gamma=0.05: synthetic")

    monkeypatch.setattr(cli, "run_experiment", boom)
    argv = ["run", "--experiment", "gamma_sweep", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == cli.EXIT_SOLVER


def test_console_script_end_to_end(tmp_path):
    out = tmp_path / "gamma.csv"
    cfg = tmp_path / "peak.cfg"
    cfg.write_text(
        "\n".join(f"{k} = {v}" for k, v in FIG2.items())
        + "\nsweep_start = 0.05\nsweep_stop = 0.08\nsweep_step = 0.005\n"
    )
    # the child interpreter imports the same cavityheat as this one, installed or not
    package_root = str(Path(cavityheat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "cavityheat.cli",
            "run",
            "--experiment",
            "gamma_sweep",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--format",
            "csv",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == list(cli.COLUMNS)
    assert len(rows) == 7


def test_temperature_entry_is_converted(tmp_path):
    out = tmp_path / "gamma.csv"
    params = {
        "coupling": "0.02",
        "gamma_left": "0.064",
        "gamma_right": "0.064",
        "temp_left": "1.0",
        "nbar_right": "0.0",
        "sweep_start": "0.05",
        "sweep_stop": "0.07",
        "sweep_step": "0.01",
    }
    run_experiment(spec_for("gamma_sweep", out, params))
    _, rows = read_csv(out)
    # nbar_left = 1/(e - 1); the current scales linearly with it
    reference = dict(params, nbar_left=f"{1.0 / (math.e - 1.0)!r}")
    del reference["temp_left"]
    out2 = tmp_path / "gamma2.csv"
    run_experiment(spec_for("gamma_sweep", out2, reference))
    assert out.read_text() == out2.read_text()


def test_conflicting_temperature_and_occupation(tmp_path):
    params = dict(FIG2, temp_left="1.0", sweep_start="0.05", sweep_stop="0.07", sweep_step="0.01")
    with pytest.raises(ValidationError, match="not both"):
        run_experiment(spec_for("gamma_sweep", tmp_path / "x.csv", params))


def test_sweep_spec_validation(tmp_path):
    with pytest.raises(ValidationError, match="unknown experiment"):
        SweepSpec(experiment="banana", params={}, output=tmp_path / "x.csv")
    params = dict(FIG2, sweep_start="0.05", sweep_stop="0.05", sweep_step="0.01")
    with pytest.raises(ValidationError, match="at least 2"):
        run_experiment(spec_for("gamma_sweep", tmp_path / "x.csv", params))
    params = dict(FIG2, sweep_start="0.05", sweep_stop="0.08", sweep_step="-0.01")
    with pytest.raises(ValidationError, match="positive"):
        run_experiment(spec_for("gamma_sweep", tmp_path / "x.csv", params))


def run_main(experiment, tmp_path, params):
    argv = ["run", "--experiment", experiment, "--out", str(tmp_path / "out.csv")]
    for key, value in params.items():
        argv += ["--set", f"{key}={value}"]
    return main(argv)


SWEEP = dict(FIG2, sweep_start="0.05", sweep_stop="0.07", sweep_step="0.01")


@pytest.mark.parametrize(
    "override",
    [
        {"nbar_left": "nan"},
        {"nbar_left": "inf"},
        {"coupling": "nan"},
        {"chi": "nan"},
        {"temp_left": "nan", "nbar_left": None},
        {"temp_left": "inf", "nbar_left": None},
        {"temp_left": "-1", "nbar_left": None},
        {"sweep_step": "nan"},
    ],
    ids=["nbar-nan", "nbar-inf", "coupling-nan", "chi-nan", "temp-nan", "temp-inf", "temp-negative", "step-nan"],
)
def test_non_finite_input_exits_with_validation_error(tmp_path, capsys, override):
    params = {k: v for k, v in dict(SWEEP, **override).items() if v is not None}
    assert run_main("gamma_sweep", tmp_path, params) == cli.EXIT_VALIDATION
    assert not (tmp_path / "out.csv").exists()
    assert "error:" in capsys.readouterr().err



@pytest.mark.parametrize("omega, temperature", [("1e-300", "1e300"), ("5e-324", "1.0")], ids=["ratio-zero", "ratio-subnormal"])
def test_temperature_with_an_infinite_occupation_exits_with_validation_error(tmp_path, capsys, omega, temperature):
    params = {k: v for k, v in SWEEP.items() if k != "nbar_left"}
    params.update(omega_left=omega, temp_left=temperature)
    assert run_main("gamma_sweep", tmp_path, params) == cli.EXIT_VALIDATION
    assert not (tmp_path / "out.csv").exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: temp_left: omega/temperature underflows at omega={float(omega)}, "
        f"temperature={float(temperature)}: the thermal occupation is not finite"
    ]


@pytest.mark.parametrize("temperature", ["nan", "inf", "-1"])
def test_a_bad_temperature_is_reported_once(tmp_path, capsys, temperature):
    params = {k: v for k, v in SWEEP.items() if k != "nbar_left"}
    assert run_main("gamma_sweep", tmp_path, dict(params, temp_left=temperature)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: temp_left: temperature must be non-negative and finite, got {float(temperature)}"
    ]


@pytest.mark.parametrize(
    "extra, message",
    [
        ({}, "Gibbs tail mass"),
        ({"fock_max_dim": "100"}, "Gibbs tail mass"),
        ({"fock_max_dim": "100", "fock_tail_bound": "1e-3"}, "dimension"),
        # a bound no truncation can meet is named, not blamed on n_max
        ({"fock_tail_bound": "-1"}, "error: fock: tail_bound must be non-negative, got -1.0"),
        ({"fock_max_dim": "0"}, "error: fock: max_vectorized_dim must be positive, got 0"),
    ],
    ids=["default", "max-dim", "max-dim-loose-tail", "negative-tail-bound", "zero-max-dim"],
)
def test_fock_truncation_guards_exit_with_validation_error(tmp_path, capsys, extra, message):
    # nbar_left = 0.5 leaves a Gibbs tail of 6e-7 beyond the default n_max = 12
    assert run_main("oracle_crosscheck", tmp_path, dict(FIG2, **extra)) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_profile_without_hopping_exits_with_solver_error(tmp_path, capsys):
    params = {"coupling": "0", "n_sites": "6", "gamma_left": "0.15", "gamma_right": "0.15", "nbar_left": "0.5"}
    assert run_main("profile", tmp_path, params) == cli.EXIT_SOLVER
    assert "no unique steady state" in capsys.readouterr().err


def test_moment_rows_carry_the_solver_residual(tmp_path):
    out = tmp_path / "gamma.csv"
    params = dict(FIG2, omega_right="1.1", chi="0.3", sigma_z="0.2", sweep_start="0.05", sweep_stop="0.07",
                  sweep_step="0.01")
    run_experiment(spec_for("gamma_sweep", out, params))
    _, rows = read_csv(out)
    for row in rows:
        gamma = float(row["value"])
        system = TwoCavitySystem(
            omega_left=1.0, omega_right=1.1, coupling=0.02,
            left=ReservoirSpec(gamma, 0.5), right=ReservoirSpec(gamma, 0.0),
            atom=AtomSpec(dispersive_strength=0.3, sigma_z=0.2),
        )
        assert row["residual"] == format(chain.steady_state_matrix(system).residual, ".17g")


def test_crosscheck_passes_at_a_mixed_detuned_point(tmp_path, capsys):
    # closed form, moments and oracle agree once the closed form mixes the sectors
    params = dict(FIG2, omega_right="1.1", chi="0.3", sigma_z="0.2", coupling="0.05", gamma_left="0.1",
                  gamma_right="0.1", nbar_left="0.1", fock_n_max="12")
    assert run_main("oracle_crosscheck", tmp_path, params) == cli.EXIT_OK
    _, rows = read_csv(tmp_path / "out.csv")
    assert [row["path"] for row in rows] == ["closedform", "moments", "fock"]
    assert float(rows[0]["i_left"]) == pytest.approx(float(rows[1]["i_left"]), rel=1e-10)
    assert "max pairwise" in capsys.readouterr().err


@pytest.mark.parametrize(
    "atom",
    [{"chi": "0.05", "sigma_z": "1.0"}, {}],
    ids=["excited-atom", "no-atom"],
)
def test_rectification_sweep_needs_a_ground_state_atom(tmp_path, capsys, atom):
    params = {k: v for k, v in SWEEP.items() if k not in ("chi", "sigma_z")}
    assert run_main("rectification_sweep", tmp_path, dict(params, **atom)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: config: the rectification sweep needs an atom in its ground state (sigma_z = -1)"
    ]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("nbar_left, nbar_right", [("0", "0.5"), ("0.2", "0.2")], ids=["hot-right", "equal"])
def test_regime_table_needs_a_hotter_left_reservoir(monkeypatch, tmp_path, capsys, nbar_left, nbar_right):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the reservoirs were checked")

    monkeypatch.setattr(cli.chain, "sweep_currents", no_solve)
    params = dict(FIG2, chi="1.5", sigma_z="1", nbar_left=nbar_left, nbar_right=nbar_right)
    assert run_main("regime_table", tmp_path, params) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "error: config: the regime table requires a hotter left reservoir (nbar_left > nbar_right)"
    ]
    assert not (tmp_path / "out.csv").exists()


ATOM_FREE = {k: v for k, v in FIG2.items() if k not in ("chi", "sigma_z")}
SWEEP_BOUNDS = {k: SWEEP[k] for k in ("sweep_start", "sweep_stop", "sweep_step")}


@pytest.mark.parametrize(
    "experiment, params, extra, message",
    [("gamma_sweep", dict(SWEEP, sweep_start="inf"), [], "config: sweep bounds must be finite"),
     ("chi_sweep", dict(ATOM_FREE, **SWEEP_BOUNDS), [], "config: chi sweeps need an atom (set chi and sigma_z)"),
     ("size_scan", dict(FIG2, n_start="5", n_stop="3"), [], "config: n_stop must be at least n_start (got 5..3)"),
     ("regime_table", ATOM_FREE, [], "config: the regime table needs an atom (set chi and sigma_z)"),
     ("regime_table", dict(FIG2, chi="0.5", sigma_z="1"), [], "config: the regime table requires chi > omega_right"),
     ("gamma_sweep", SWEEP, ["coupling"], "config: --set expects key=value, got 'coupling'"),
     # point counts numpy refuses before it allocates anything
     ("gamma_sweep", dict(SWEEP, sweep_start="0", sweep_stop="1", sweep_step="1e-300"), [],
      "config: sweep has more points than an array can hold ((stop - start) / step = 1e+300)"),
     ("gamma_sweep", dict(SWEEP, sweep_start="-1e308", sweep_stop="1e308", sweep_step="1"), [],
      "config: sweep has more points than an array can hold ((stop - start) / step = inf)"),
     # a well-formed key the experiment does not read
     ("profile", dict(FIG2, n_sites="4", omega_right="1.3"), [], "config: key 'omega_right' is not read by this experiment"),
     ("gamma_sweep", dict(SWEEP, fock_n_max="12"), [], "config: key 'fock_n_max' is not read by this experiment"),
     ("gamma_sweep", dict(SWEEP, n_sites="3"), [], "config: key 'n_sites' is not read by this experiment"),
     ("size_scan", dict(FIG2, n_stop="4", n_sites="3"), [], "config: key 'n_sites' is not read by this experiment"),
     # the atom is set by chi and sigma_z alone; there is no switch to drop them
     ("gamma_sweep", dict(SWEEP, atom="false"), [], "config: unknown key 'atom'"),
     ("gamma_sweep", SWEEP, ["coupling=0.03"], "config: --set gives key 'coupling' twice, as '0.02' and '0.03'")],
    ids=["infinite-bound", "chi-sweep-without-atom", "n-stop-below-n-start", "regime-table-without-atom",
         "regime-table-chi-below-omega", "set-without-value", "count-beyond-intp", "count-infinite",
         "profile-omega-right", "gamma-sweep-fock-n-max", "gamma-sweep-n-sites", "size-scan-n-sites",
         "atom-false-beside-chi", "set-twice"],
)
def test_a_config_rejection_prints_one_line_and_writes_nothing(tmp_path, capsys, experiment, params, extra, message):
    argv = ["run", "--experiment", experiment, "--out", str(tmp_path / "out.csv")]
    for item in [f"{key}={value}" for key, value in params.items()] + extra:
        argv += ["--set", item]
    assert main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out.csv").exists()


def test_a_spec_in_an_unknown_output_format_is_refused(tmp_path):
    # the command line offers csv and json alone; a spec built in code is checked too
    with pytest.raises(ValidationError) as err:
        SweepSpec("gamma_sweep", dict(SWEEP), tmp_path / "out.xml", fmt="xml")
    assert err.value.errors == ["config: unknown output format 'xml'"]


@pytest.mark.parametrize(
    "experiment, params, unread",
    [("gamma_sweep", SWEEP, "omega"),
     ("chi_sweep", SWEEP, "n_start"),
     ("current_decomposition", SWEEP, "alpha_values"),
     ("rectification_sweep", dict(SWEEP, sigma_z="-1"), "fock_max_dim"),
     ("size_scan", dict(FIG2, n_stop="4"), "omega_left"),
     ("profile", dict(FIG2, n_sites="4"), "sweep_step"),
     ("regime_table", dict(FIG2, omega_right="0.8", chi="1.1", gamma_left="0.1"), "tol_moments_fock"),
     ("oracle_crosscheck", dict(FIG2, nbar_left="0.01", fock_n_max="6"), "n_stop")],
    ids=["gamma_sweep", "chi_sweep", "current_decomposition", "rectification_sweep", "size_scan", "profile",
         "regime_table", "oracle_crosscheck"],
)
def test_every_experiment_refuses_a_key_it_does_not_read(tmp_path, capsys, experiment, params, unread):
    # the config runs as it is, and fails with the one key added
    assert run_main(experiment, tmp_path, params) == cli.EXIT_OK
    (tmp_path / "out.csv").unlink()
    capsys.readouterr()
    assert run_main(experiment, tmp_path, dict(params, **{unread: "2"})) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: key {unread!r} is not read by this experiment"]
    assert not (tmp_path / "out.csv").exists()


def test_a_key_not_read_is_named_after_every_other_config_error(tmp_path, capsys):
    params = {key: value for key, value in dict(SWEEP, coupling="abc", typo="1", n_sites="x", fock_n_max="12").items()
              if key != "sweep_step"}
    assert run_main("gamma_sweep", tmp_path, params) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "error: config: unknown key 'typo'",
        "error: config: key 'coupling' expects a number, got 'abc'",
        "error: config: key 'n_sites' expects an integer, got 'x'",
        "error: config: missing required key 'sweep_step'",
        "error: config: key 'fock_n_max' is not read by this experiment",
    ]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize("key", ["tol_closedform_moments", "tol_moments_fock"])
def test_crosscheck_rejects_a_bad_tolerance_before_solving(monkeypatch, tmp_path, capsys, key, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the tolerances were checked")

    monkeypatch.setattr(fockspace, "steady_rho", no_solve)
    monkeypatch.setattr(cli.chain, "steady_state_matrix", no_solve)
    monkeypatch.setattr(cli.closedform, "current_general", no_solve)
    params = dict(FIG2, fock_n_max="8", fock_tail_bound="1e-3", **{key: value})
    assert run_main("oracle_crosscheck", tmp_path, params) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {key} must be finite and non-negative, got {float(value)}"
    ]


@pytest.mark.parametrize(
    "sigma_z, row, error", [("1.0", 2, 1e-11), ("0.2", 5, 1e-9)], ids=["row-bound", "sector-bound"],
)
def test_moment_solver_failure_names_the_sweep_value(monkeypatch, tmp_path, capsys, sigma_z, row, error):
    # the stack holds one sector matrix per row at sigma_z = 1 and two at 0.2;
    # either way the perturbed matrix belongs to the third row. A relative
    # error of 1e-11 in C is a backward error of about 2.5e-13, far above the bound.
    solve = np.linalg.solve

    def perturbed(a, b):
        c = solve(a, b)
        c[row] *= 1 + error
        return c

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    params = dict(FIG2, sigma_z=sigma_z, sweep_start="0.05", sweep_stop="0.09", sweep_step="0.01")
    assert run_main("gamma_sweep", tmp_path, params) == cli.EXIT_SOLVER
    assert capsys.readouterr().err.startswith("error: solver failure at gamma=0.07: sector steady-state residual ")


@pytest.mark.parametrize(
    "experiment, override, expected",
    [
        ("gamma_sweep", {"sweep_start": "-0.02"},
         ["left reservoir: rate must be positive (got -0.02)", "right reservoir: rate must be positive (got -0.02)"]),
        ("chi_sweep", {"sweep_start": "-0.02"}, ["atom: dispersive strength must be non-negative (got -0.02)"]),
        ("current_decomposition", {"sweep_start": "-0.02"},
         ["atom: dispersive strength must be non-negative (got -0.02)"]),
    ],
    ids=["gamma", "chi", "decomposition"],
)
def test_a_sweep_value_outside_its_domain_is_named(tmp_path, capsys, experiment, override, expected):
    # the first failing grid point is reported, with the messages its system alone would raise
    assert run_main(experiment, tmp_path, dict(SWEEP, **override)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in expected]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "alphas, message",
    [("0.5,-1.0,0.0", "must be positive (got -0.030000000000000006)"),
     ("0.5,0.0", "must be positive (got 0.0)"),
     ("0.5,nan", "must be finite (got nan)")],
    ids=["negative", "zero", "nan"],
)
def test_regime_table_names_a_bad_alpha(tmp_path, capsys, alphas, message):
    params = dict(FIG2, omega_right="0.8", chi="1.1", gamma_left="0.1", alpha_values=alphas)
    assert run_main("regime_table", tmp_path, params) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [f"error: right reservoir: rate {message}"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("alphas", [",", ""], ids=["comma", "blank"])
def test_regime_table_refuses_an_empty_alpha_list(tmp_path, capsys, alphas):
    # every sweep refuses fewer than 2 points; a table without an alpha would be a header alone
    params = dict(FIG2, omega_right="0.8", chi="1.1", gamma_left="0.1", alpha_values=alphas)
    assert run_main("regime_table", tmp_path, params) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == ["error: config: alpha_values must hold at least one value"]
    assert not (tmp_path / "out.csv").exists()
