"""README's "Library quick start" block runs as written, in a directory that
holds the files it names: cell.png and a data/synth dataset. Its Results
table's seed-42 column is what demo 05 prints."""

import shutil
from pathlib import Path

import numpy as np

from cellgrade import data

README = Path(__file__).resolve().parents[1] / "README.md"


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
