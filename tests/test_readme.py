"""README examples run, every module-qualified name that it or a docstring of
the package cites exists, and every value cited for such a name is the
code's."""

import ast
import functools
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
LAYERS = ("chain", "moments", "fockspace", "closedform", "model", "cli")
NAME = rf"(?:{'|'.join(LAYERS)})\.\w+(?:\.\w+)*"
CITED = sorted(set(re.findall(rf"`({NAME})`", README)))


def docstrings(path: Path) -> list[str]:
    """The docstrings of a module, its classes and its functions."""
    nodes = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [text for text in map(ast.get_docstring, nodes) if text]


DOCSTRINGS = [text for path in sorted((ROOT / "src" / "cavityheat").glob("*.py")) for text in docstrings(path)]
DOCUMENTED = sorted({name for text in DOCSTRINGS for name in re.findall(rf"``({NAME})``", text)})
# a constant cited with its value: `chain.NAME` = 1e-14 in the README, ``chain.NAME`` = 1e-14 in a docstring
NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
CITED_VALUES = sorted(set(re.findall(rf"`({NAME})` = ({NUMBER})", README))
                      | {pair for text in DOCSTRINGS for pair in re.findall(rf"``({NAME})`` = ({NUMBER})", text)})


def test_the_python_examples_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for block in blocks:  # later examples use the names of earlier ones
        exec(compile(block, "README.md", "exec"), namespace)


def resolves(name: str) -> bool:
    layer, *attributes = name.split(".")
    target = importlib.import_module(f"cavityheat.{layer}")
    for attribute in attributes:
        if not hasattr(target, attribute):
            return False
        target = getattr(target, attribute)
    return True


def test_every_cited_name_resolves():
    # a rename or a deletion in the code must reach the README and the docstrings too
    assert CITED and DOCUMENTED
    assert [name for name in CITED + DOCUMENTED if not resolves(name)] == []


def test_every_cited_value_is_the_code_s():
    assert CITED_VALUES
    wrong = []
    for name, value in CITED_VALUES:
        layer, *attributes = name.split(".")
        actual = functools.reduce(getattr, attributes, importlib.import_module(f"cavityheat.{layer}"))
        if actual != float(value):
            wrong.append((name, value, actual))
    assert wrong == []


def test_the_key_list_is_the_config_table():
    keys = re.search(r"Keys: (.*?)\.\s", README, flags=re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", keys) == list(importlib.import_module("cavityheat.cli")._KEYS)
