"""Every demo runs to completion as a script."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lossyphase import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # A copy, so the demo writes its output/ directory under tmp_path.
    script = Path(shutil.copy(demo, tmp_path))
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, cwd=tmp_path, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
