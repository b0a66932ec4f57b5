"""README's "Library quick start" block runs as written, in a directory that
holds the files it names: cell.png and a data/synth dataset. Its Results
table's seed-42 column is what demo 05 prints. Every module.name and repo path
it puts in backticks exists."""

import importlib
import pkgutil
import re
import shutil
from pathlib import Path

import numpy as np

from cellgrade import data

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    data.synth_generate(tmp_path / "data" / "synth", 24, 0.5, 32, seed=3)
    shutil.copy(data.load_dataset(tmp_path / "data" / "synth")[0].source, tmp_path / "cell.png")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(quick_start(), str(README), "exec"), scope)
    assert scope["hist"].shape == (512,) and np.isclose(scope["hist"].sum(), 1.0)
    assert scope["report"].k == 10 and len(scope["report"].accuracies) == 4
    assert len(scope["preds"]) == 24 and 0.0 <= scope["acc"] <= 1.0


def results_seed42() -> dict[str, str]:
    """The Results table's seed-42 cells, by row name, below its header rows."""
    section = README.read_text(encoding="utf-8").split("\n## Results\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| ")]
    return {name.strip(): cell.strip() for name, cell in rows[2:]}


def test_readme_results_seed42_column_is_what_demo_05_prints(demo_stdout):
    ranking = demo_stdout("05_train_and_compare").split("final ranking (validation accuracy):\n", 1)[1]
    printed = {}
    for line in ranking.splitlines()[:3]:
        name, acc = line.split()
        printed[name] = float(acc)
    assert results_seed42() == {
        "histogram kNN": f"{printed['hist']:.3f}",
        "raw-pixel kNN": f"{printed['raw']:.3f}",
        "gap (histogram − raw)": f"{printed['hist'] - printed['raw']:.3f}",
        "CNN validation, last epoch": f"{printed['cnn']:.3f}",
    }


def backticked() -> list[str]:
    """README's inline code spans, outside its fenced blocks."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    return re.findall(r"`([^`\n]+)`", prose)


def test_readme_names_only_what_exists():
    """A `module.name` (with or without `cellgrade.`) imports and has the name;
    a path under src/, tests/, demos/ or perfbench/, or a cellgrade/ one read
    under src/, exists."""
    modules = {m.name for m in pkgutil.iter_modules([str(ROOT / "src" / "cellgrade")])}
    names, paths = set(), set()
    for span in backticked():
        dotted = re.fullmatch(r"(?:cellgrade\.)?(\w+)\.(\w+(?:\.\w+)*)", span)
        if dotted and dotted[1] in modules:
            names.add(dotted.group(1, 2))
        elif re.match(r"(src|tests|demos|perfbench|cellgrade)/", span):
            paths.add(span)
    assert names and paths  # the patterns still find what they check
    missing = []
    for module, attrs in sorted(names):
        obj = importlib.import_module(f"cellgrade.{module}")
        for attr in attrs.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module}.{attrs}")
    missing += [p for p in sorted(paths)
                if not (ROOT / ("src/" if p.startswith("cellgrade/") else "") / p).exists()]
    assert not missing, missing
