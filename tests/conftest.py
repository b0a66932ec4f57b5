import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellgrade import data

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    """120-image synthetic dataset shared by fast integration tests."""
    root = tmp_path_factory.mktemp("synth_small")
    data.synth_generate(root, 120, 0.5, 48, seed=99)
    return root


@pytest.fixture(scope="session")
def demo_stdout(tmp_path_factory):
    """demo_stdout(stem): the stdout of demos/<stem>.py, run as a script once per session.

    Each run has warnings as errors and a private TMPDIR; every call asserts
    that it exited 0 and left that directory empty.
    """
    runs = {}

    def run(stem: str) -> str:
        if stem not in runs:
            tmp = tmp_path_factory.mktemp(stem)
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error", TMPDIR=str(tmp))
            proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{stem}.py")], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=300)
            runs[stem] = proc, [p.name for p in tmp.iterdir()]
        proc, left = runs[stem]
        assert proc.returncode == 0, proc.stderr
        assert left == []
        return proc.stdout

    return run
