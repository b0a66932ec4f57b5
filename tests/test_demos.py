"""Demos 01-05 run as scripts: each exits 0 with warnings as errors and leaves
no file in its temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/0[1-5]_*.py")), ids=lambda p: p.stem)
def test_demo_runs_and_leaves_no_temporary_files(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error", TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == []
