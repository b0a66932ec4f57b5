"""Cross-platform identity: what README lists as bit-stable must not depend on
the BLAS kernel, and CNN eval logits stay within README's stated tolerance.

The tests run this file as a script under two OpenBLAS core types, one BLAS
thread each, and compare what it prints. They are skipped when a plain
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
# Eval logits of one set of weights differ by at most this times max(1, largest |logit|)
# between BLAS kernels. Measured across Haswell/Prescott x 1/2 threads: 7.5e-8 (reduced)
# and 3.2e-8 (reference) at init, |logit| <= 0.22; 5.7e-6 for a 10-epoch desk
# checkpoint over its 600 images, |logit| <= 19.7.
CNN_LOGIT_TOLERANCE = 1e-6


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def probe(workdir: Path) -> dict:
    """Digests of the GEMM probe and of every output README calls bit-stable, and the
    eval logits of both presets' initial weights on a fixed 16-image batch."""
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
    nets = {"reduced": nn.reduced_network(), "reference": nn.reference_network()}
    params = {name: nn.init_params(net, 3) for name, net in nets.items()}
    out["init_params"] = _digest(*(layer[k] for layer in params["reduced"].layers for k in sorted(layer)))
    for name, net in nets.items():
        batch = SeededPrng(4).uniform((16, *net.input_shape)).astype(np.float32)
        out[f"logits.{name}"] = nn.network_forward(net, params[name], batch)[0].tolist()

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


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    first, second = (_probe_under(core, tmp_path_factory.mktemp(core)) for core in CORES)
    if first.pop("gemm") == second.pop("gemm"):
        pytest.skip(f"OPENBLAS_CORETYPE={CORES[0]} and {CORES[1]} give equal GEMM bytes here")
    logits = [{k: np.array(run.pop(k)) for k in list(run) if k.startswith("logits.")}
              for run in (first, second)]
    return first, second, logits


def test_bit_stable_outputs_do_not_depend_on_the_blas_kernel(probes):
    first, second, _ = probes
    assert first == second


def test_cnn_logits_agree_across_blas_kernels_within_tolerance(probes):
    _, _, (first, second) = probes
    assert first.keys() == {"logits.reduced", "logits.reference"} == second.keys()
    for name, a in first.items():
        assert a.shape == (16, 2)
        bound = CNN_LOGIT_TOLERANCE * max(1.0, np.abs(a).max())
        assert np.abs(a - second[name]).max() <= bound, name


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]))))
