"""README says "The only runtime dependency is numpy". Every import statement
in the package is held to that: the standard library, numpy and cellgrade
itself, checked on whichever Python runs the suite. The package re-exports
nothing, so importing one module loads only the modules that it imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cellgrade"
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
