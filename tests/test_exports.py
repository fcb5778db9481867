import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavityheat
from cavityheat import fockspace

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
    # the oracle's names come through the package __getattr__, which the AST walk does not see
    assert cavityheat._FOCKSPACE
    for name in cavityheat._FOCKSPACE:
        assert name not in vars(cavityheat), f"{name} is bound eagerly"
        assert getattr(cavityheat, name) is getattr(fockspace, name), name
        assert name in fockspace.__all__, f"fockspace.{name} is re-exported but not public"
    with pytest.raises(AttributeError, match="no_such_name"):
        cavityheat.no_such_name
    # __all__ lists every re-export, the lazy ones included, once
    names = [alias.asname or alias.name for node in imports for alias in node.names]
    assert sorted(cavityheat.__all__) == sorted(names + list(cavityheat._FOCKSPACE))
    assert len(set(cavityheat.__all__)) == len(cavityheat.__all__)


# Runs in a fresh interpreter: dir() lists the oracle's names before they are
# loaded, and a star import binds them.
STAR_IMPORT = """
import json, sys
import cavityheat
listed = sorted(set(cavityheat._FOCKSPACE) & set(dir(cavityheat)))
loaded_by_dir = "cavityheat.fockspace" in sys.modules
namespace = {}
exec("from cavityheat import *", namespace)
print(json.dumps([listed, loaded_by_dir, sorted(set(cavityheat.__all__) - set(namespace))]))
"""


def test_star_import_and_dir_list_the_lazy_names():
    package_root = str(Path(cavityheat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", STAR_IMPORT], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    listed, loaded_by_dir, unbound = json.loads(result.stdout)
    assert listed == sorted(cavityheat._FOCKSPACE)
    assert not loaded_by_dir
    assert unbound == []


# Runs in a fresh interpreter: prints the scipy modules loaded after the
# two-cavity runs, then after an oracle crosscheck and a chain above the
# Kronecker size.
LAZY_SCIPY = """
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
run("profile", **dict(pair, n_sites=cli.chain.KRONECKER_MAX_SITES + 1))
print(json.dumps(scipy_modules()))
"""


def test_two_cavity_runs_load_no_scipy(tmp_path):
    package_root = str(Path(cavityheat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", LAZY_SCIPY, str(tmp_path / "out.csv")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    before, after = (json.loads(line) for line in result.stdout.splitlines())
    assert before == []
    assert {"scipy.sparse", "scipy.linalg"} <= set(after)
