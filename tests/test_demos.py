"""The fast demos run to completion against the current library, and the
names that the other demos and the bench tracer use still exist.

Demos 02-04 train models for 16-22 s each and are left out of the runs.
``bench/spans.py`` and the demos are read as source, never imported.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_tokenization.py", "05_alignment_baseline.py"])
def test_demo_exits_zero(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            capture_output=True, text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr


def _traced():
    """The (module, function) pairs of ``TRACED`` in bench/spans.py."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]]
    return [tuple(ast.literal_eval(entry.elts[i]) for i in (0, 1)) for entry in value.elts]


def test_every_traced_function_exists():
    traced = _traced()
    assert ("cli", "cmd_train") in traced
    missing = [f"seqvec.{mod}.{fn}" for mod, fn in traced
               if not callable(getattr(importlib.import_module(f"seqvec.{mod}"), fn, None))]
    assert missing == []


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_every_name_a_demo_imports_exists(name):
    tree = ast.parse((ROOT / "demos" / name).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("seqvec")
               for alias in node.names]
    assert imports
    missing = [f"{mod}.{attr}" for mod, attr in imports
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
