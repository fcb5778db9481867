import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavityheat

LAYERS = ("model", "closedform", "moments", "chain", "fockspace", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_resolves(layer):
    # tools walk __all__ with getattr, so a stale entry breaks them
    module = importlib.import_module(f"cavityheat.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_reexports_resolve_to_their_modules():
    tree = ast.parse(Path(cavityheat.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cavityheat.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(cavityheat, name) is getattr(module, alias.name), name
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is re-exported but not public"
    # __all__ lists every re-export once
    names = [alias.asname or alias.name for node in imports for alias in node.names]
    assert sorted(cavityheat.__all__) == sorted(names)
    assert len(set(cavityheat.__all__)) == len(cavityheat.__all__)


def test_every_path_reads_the_one_statement_of_the_site_vectors():
    # the moment solves and the Fock oracle take each system's model from model._sites alone
    from cavityheat import chain, fockspace, model

    for name in ("_Sites", "_sites", "_stack"):
        assert getattr(chain, name) is getattr(fockspace, name) is getattr(model, name), name
        assert name not in model.__all__


def _names(tree: ast.AST) -> set[str]:
    """Every name a module's code reads: imported names, bare names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_steady_solve_reads_the_one_statement_of_each_rule():
    # the solve rules live in model._check_steady, the current report in model._report and the
    # first-failure rule in model._guard, for every path
    from cavityheat import chain, closedform, fockspace, model

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(cavityheat.__file__).parent.glob("*.py")}
    tolerances = {"POSITIVITY_TOL", "RESIDUAL_TOL"}
    compared = {stem for stem, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and _names(node) & tolerances}
    assert compared == {"model"}
    shared = {"_check_steady", "_guard", "_report", "_classification", "CurrentReport"}
    for name in shared:
        assert getattr(model, name).__module__ == "cavityheat.model", name
    for module in (chain, fockspace):
        assert _names(trees[module.__name__.rsplit(".", 1)[-1]]).isdisjoint(
            tolerances | {"_check_balance", "_classification"}), module.__name__
        assert module._check_steady is model._check_steady and module._report is model._report
    for stem in ("closedform", "chain", "fockspace"):
        defined = {node.name for node in trees[stem].body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert defined.isdisjoint(shared), stem
    assert not hasattr(closedform, "_points") and not hasattr(closedform, "_require")
    assert _names(trees["moments"]).isdisjoint({"_mixture", "_currents", "_pair_exponents"})
    assert "moments" not in _names(trees["cli"])


def _package_imports(tree: ast.AST) -> set[str]:
    """The modules of the package that a module imports: relative imports by
    name, absolute ones as ``cavityheat...``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            modules |= {name for name in names if name.split(".")[0] == "cavityheat"}
    return modules


@pytest.mark.parametrize("path", ["closedform", "chain", "fockspace"])
def test_the_three_paths_are_siblings_over_the_model(path):
    # a change to one path cannot reach another: each reads the package's model alone
    tree = ast.parse((Path(cavityheat.__file__).parent / f"{path}.py").read_text(encoding="utf-8"))
    assert _package_imports(tree) == {"model"}


# Runs in a fresh interpreter: a star import binds every name of __all__.
STAR_IMPORT = """
import json
import cavityheat
namespace = {}
exec("from cavityheat import *", namespace)
print(json.dumps(sorted(set(cavityheat.__all__) - set(namespace))))
"""


def test_star_import_binds_every_public_name():
    package_root = str(Path(cavityheat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", STAR_IMPORT], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


# Runs in a fresh interpreter: prints the scipy modules loaded after the
# two-cavity runs, after an oracle crosscheck, and after a 9-site chain.
# The library runs on numpy alone, so each list is empty.
SCIPY_MODULES = """
import json, sys
import cavityheat.cli as cli

def run(experiment, **params):
    argv = ["run", "--experiment", experiment, "--out", sys.argv[1]]
    for key, value in params.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 0, experiment

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

pair = dict(coupling=0.02, gamma_left=0.1, gamma_right=0.1, nbar_left=0.01, nbar_right=0.0)
run("gamma_sweep", **dict(pair, sweep_start=0.03, sweep_stop=0.05, sweep_step=0.01))
run("profile", **dict(pair, n_sites=2))
print(json.dumps(scipy_modules()))
run("oracle_crosscheck", **dict(pair, chi=0.05, sigma_z=1.0, fock_n_max=6))
print(json.dumps(scipy_modules()))
run("profile", **dict(pair, n_sites=9))
print(json.dumps(scipy_modules()))
"""


def test_two_cavity_runs_load_no_scipy(tmp_path):
    package_root = str(Path(cavityheat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", SCIPY_MODULES, str(tmp_path / "out.csv")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    two_cavity, oracle, long_chain = (json.loads(line) for line in result.stdout.splitlines())
    assert two_cavity == []
    assert oracle == []
    assert long_chain == []
