"""The fast demos run to completion against the current library.

Demos 02-04 train models for 16-22 s each and are left out.
"""

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
