import ast
import importlib
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
