"""Cross-platform identity: what README lists as bit-stable must not depend on
the BLAS kernel.

The test runs this file as a script under two OpenBLAS core types, one BLAS
thread each, and compares the digests it prints. It is skipped when a plain
GEMM gives the same bytes under both, because then the core switch did
nothing (numpy without a DYNAMIC_ARCH OpenBLAS, or a machine that is not x86).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellgrade import data, imaging, knn, nn
from cellgrade.prng import SeededPrng

CORES = ("Haswell", "Prescott")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def probe(workdir: Path) -> dict:
    """Digests of the GEMM probe and of every output README calls bit-stable."""
    rng = np.random.default_rng(7)
    out = {"gemm": _digest(rng.normal(size=(64, 300)) @ rng.normal(size=(300, 64)))}
    out["prng"] = _digest(SeededPrng(11).u64(4096), SeededPrng(12).uniform(4096))
    labels = np.arange(200) % 2
    out["splits"] = _digest(data.stratified_fold_indices(labels, 4, 3),
                            *data.train_val_split_indices(labels, 0.2, 3))
    data.synth_generate(workdir, 6, 0.5, 40, seed=5)
    images = [imaging.decode_image(item.source.read_bytes())
              for item in data.load_dataset(workdir)]
    out["png"] = _digest(*(img.values for img in images))
    out["features"] = _digest(*(imaging.extract_histogram_features(img) for img in images),
                              *(imaging.extract_raw_features(img) for img in images))
    params = nn.init_params(nn.reduced_network(), 3)
    out["init_params"] = _digest(*(layer[k] for layer in params.layers for k in sorted(layer)))

    # a tie-heavy grid: four levels, a third of the rows duplicated, an inexact scale
    n, d, folds = 400, 48, 4
    x = rng.integers(0, 4, size=(n, d)) / 4.0
    x[rng.integers(0, n, size=n // 3)] = x[rng.integers(0, n, size=n // 3)]
    x *= 7.3
    y = rng.integers(0, 2, size=n)
    assignment = data.stratified_fold_indices(y, folds, 1)
    for metric in (knn.EUCLIDEAN, knn.MANHATTAN):
        reports = knn.k_sweep(x, y, range(1, 11), folds, metric, seed=1)
        out[f"knn.{metric.label}.accuracies"] = _digest(np.array([r.accuracies for r in reports]))
        # train indices stand in for labels, so the fold scorer hands back its order
        order = knn._fold_sorted_labels(x, np.arange(n), assignment, folds, metric, 10)
        out[f"knn.{metric.label}.order"] = _digest(*(rows for rows, _ in order))
    return out


def _probe_under(core: str, workdir: Path) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, __file__, str(workdir)], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(run.stdout)


def test_bit_stable_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    first, second = (_probe_under(core, tmp_path / core) for core in CORES)
    if first.pop("gemm") == second.pop("gemm"):
        pytest.skip(f"OPENBLAS_CORETYPE={CORES[0]} and {CORES[1]} give equal GEMM bytes here")
    assert first == second


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]))))
