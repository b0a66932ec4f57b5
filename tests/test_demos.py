"""Demos 01-05 run as scripts: each exits 0 with warnings as errors and leaves
no file in its temporary directory (see conftest's demo_stdout)."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/0[1-5]_*.py")), ids=lambda p: p.stem)
def test_demo_runs_and_leaves_no_temporary_files(demo, demo_stdout):
    demo_stdout(demo.stem)
