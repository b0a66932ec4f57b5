"""README says "The only runtime dependency is numpy". Every import statement
in the package is held to that: the standard library, numpy and cellgrade
itself, checked on whichever Python runs the suite. The package re-exports
nothing, so importing one module loads only the modules that it imports.
Every Python file in the repository also parses under the grammar of the
oldest Python that pyproject.toml admits."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cellgrade"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cellgrade"}


def imported_roots(source: str):
    """Top-level module names of the absolute imports in source; relative ones are the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_import_scan_sees_nested_and_from_imports():
    source = "import os, scipy.linalg\nfrom . import nn\ndef f():\n    from PIL import Image\n"
    assert list(imported_roots(source)) == ["os", "scipy", "PIL"]


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert {"__init__.py", "nn.py", "png.py"} <= {f.name for f in files}
    outside = sorted(f"{f.name}: {root}" for f in files
                     for root in imported_roots(f.read_text(encoding="utf-8"))
                     if root not in ALLOWED)
    assert not outside, outside


def test_importing_the_png_module_loads_only_what_it_imports():
    """The same holds for cellgrade.data: synth colours come from colorsys, not imaging."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    for module, loaded in (("png", ["errors", "png"]), ("data", ["data", "errors", "png", "prng"])):
        code = (f"import json, sys, cellgrade.{module}; "
                "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'cellgrade')))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        assert json.loads(run.stdout) == ["cellgrade"] + [f"cellgrade.{m}" for m in loaded], module


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_grammar_check_rejects_newer_syntax():
    assert python_floor() == (3, 10)
    with pytest.raises(SyntaxError):  # except* came in 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_python_file_parses_at_the_python_floor():
    files = sorted(f for d in ("src", "tests", "demos", "perfbench") for f in (ROOT / d).rglob("*.py"))
    assert {PACKAGE / "nn.py", ROOT / "perfbench" / "run.py", Path(__file__).resolve()} <= set(files)
    floor = python_floor()
    for f in files:
        ast.parse(f.read_text(encoding="utf-8"), filename=str(f), feature_version=floor)
