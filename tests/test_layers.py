"""The package's layers import one way: each module imports only the layers
below it, and at module top, so a command loads no more than it runs.

scalars and words (with the block guard) are at the bottom, then datum,
shapovalov (Sh and elimination), growth (tables), det (determinants), and
oracles and cli at the top; sl2 stands alone.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hopfmin

SRC = Path(hopfmin.__file__).parent

# call-time imports that cli documents: what only one command uses
DEFERRED = {("cli", "sl2"), ("cli", "oracles")}


def _loaded_after(module):
    """The hopfmin modules a fresh interpreter holds after importing module."""
    code = (f"import json, sys, {module}; print(json.dumps(sorted("
            f"m for m in sys.modules if m.startswith('hopfmin.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("module, above", [
    ("hopfmin.datum", ("shapovalov", "growth", "det")),
    ("hopfmin.shapovalov", ("growth", "det", "oracles")),
    ("hopfmin.growth", ("det", "oracles")),
])
def test_a_layer_loads_no_layer_above_it(module, above):
    loaded = _loaded_after(module)
    assert module in loaded
    assert loaded.isdisjoint(f"hopfmin.{name}" for name in above)


def _imports_in_functions(tree):
    """(target module, line) of each hopfmin import inside a function body."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = ([node.module] if node.module
                           else [alias.name for alias in node.names])
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([node.module] if isinstance(node, ast.ImportFrom)
                         else [alias.name for alias in node.names])
                targets = [n.split(".", 1)[-1] for n in names
                           if n.split(".")[0] == "hopfmin"]
            else:
                continue
            out += [(target, node.lineno) for target in targets]
    return out


def test_no_hopfmin_import_runs_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.stem, target, line)
                  for target, line in _imports_in_functions(tree)
                  if (path.stem, target) not in DEFERRED]
    assert found == []


def test_the_scan_sees_a_call_time_import():
    tree = ast.parse("def f():\n    from .growth import compute_blocks\n"
                     "def g():\n    import hopfmin.det\n")
    assert _imports_in_functions(tree) == [("growth", 2), ("det", 4)]


def test_every_exported_name_resolves():
    # a name loads its module on first access, so a stale entry would fail
    # only when someone first touched it
    for name in hopfmin.__all__:
        getattr(hopfmin, name)
    assert set(hopfmin.__all__) <= set(dir(hopfmin))
    assert {"Element", "concat"}.isdisjoint(hopfmin.__all__)
    assert not hasattr(hopfmin, "Element") and not hasattr(hopfmin, "concat")
