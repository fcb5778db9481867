"""README examples run, and every module-qualified name it cites exists."""

import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
LAYERS = ("chain", "moments", "fockspace", "closedform", "model", "cli")
CITED = sorted(set(re.findall(rf"`((?:{'|'.join(LAYERS)})\.\w+(?:\.\w+)*)`", README)))


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
    # a rename in the code must reach the README too
    assert CITED
    assert [name for name in CITED if not resolves(name)] == []
