"""Acceptance suite: the package's exit criteria, one test per criterion.

Each criterion prints a single "criterion N PASS/FAIL" line (visible with
pytest -s; always visible on failure). Criteria 1-6 are self-contained and
run at desk scale. The desk run of criteria 5 and 6 is made twice: once here
in desk_run, in process, and once by demos/05_train_and_compare.py as a
script, which criterion 6 reads as its fresh-process rerun (the demo runs
once per session, shared with tests/test_demos.py through conftest's
demo_stdout). Criterion 7 needs the public 27,558-image corpus and is
skipped unless CELLGRADE_NIH_DIR points at it; its CNN leg extrapolates to
35-61 minutes on a 2-core CPU (see its docstring).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import hashlib
import math
import os

import numpy as np
import pytest

import cellgrade.nn as nn
from cellgrade import data, harness, imaging, knn
from cellgrade.knn import EUCLIDEAN, HAMMING, MANHATTAN, minkowski
from cellgrade.prng import SeededPrng

SYNTH_SEED = 42
SYNTH_N = 600


def report(num: int, ok: bool, text: str):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The desk run of criteria 5 and 6, made as demo 05 makes it: from inside its
    directory, with the dataset at the relative path "dataset"."""
    out = tmp_path_factory.mktemp("acceptance_run")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        data.synth_generate("dataset", SYNTH_N, 0.5, side=64, seed=SYNTH_SEED)
        hist = harness.cmd_knn("dataset", "hist", EUCLIDEAN, [10], folds=4, seed=SYNTH_SEED,
                               out_prefix="knn_hist")
        raw = harness.cmd_knn("dataset", "raw", EUCLIDEAN, [10], folds=4, seed=SYNTH_SEED,
                              out_prefix="knn_raw")
        cnn = harness.cmd_cnn_train("dataset", reduced=True, epochs=10, batch_size=32,
                                    lr=1e-3, seed=SYNTH_SEED, val_frac=0.2, out_prefix="cnn")
    return {"dir": out, "hist": hist, "raw": raw, "cnn": cnn}


# -- criterion 1: architecture audit ------------------------------------------------

def test_criterion_1_reference_architecture_exact():
    net = nn.reference_network()
    expected_rows = [
        ("conv2d", (31, 31, 64), 1792),
        ("batch_norm", (31, 31, 64), 256),
        ("conv2d", (15, 15, 128), 73856),
        ("dropout", (15, 15, 128), 0),
        ("conv2d", (13, 13, 256), 295168),
        ("max_pool", (6, 6, 256), 0),
        ("conv2d", (4, 4, 1024), 2360320),
        ("dropout", (4, 4, 1024), 0),
        ("conv2d", (2, 2, 512), 4719104),
        ("dropout", (2, 2, 512), 0),
        ("flatten", (2048,), 0),
        ("dense", (256,), 524544),
        ("dropout", (256,), 0),
        ("dense", (2,), 514),
    ]
    rows = [r for r in nn.summarize(net) if r[0] != "relu"]
    totals = nn.count_params(net)
    ok = rows == expected_rows and totals == (7_975_554, 7_975_426, 128)
    report(1, ok, f"layer table exact, totals {totals}")


# -- criterion 2: gradient correctness ------------------------------------------------

def test_criterion_2_gradients_match_finite_differences():
    cases = {
        "conv2d": nn.NetworkSpec((8, 8, 2), (nn.Conv2D(3, (3, 3), (1, 1)), nn.Flatten(), nn.Dense(2))),
        "conv2d_strided": nn.NetworkSpec((9, 9, 3), (nn.Conv2D(4, (3, 3), (2, 2)), nn.Flatten(), nn.Dense(2))),
        "batch_norm": nn.NetworkSpec((6, 6, 2), (nn.Conv2D(3, (3, 3)), nn.BatchNorm(3), nn.Flatten(), nn.Dense(2))),
        "dense": nn.NetworkSpec((8,), (nn.Dense(5), nn.Relu(), nn.Dense(2))),
        "end_to_end": nn.NetworkSpec((10, 10, 3), (
            nn.Conv2D(4, (3, 3), (1, 1)), nn.BatchNorm(4), nn.Relu(),
            nn.Conv2D(6, (3, 3), (2, 2)), nn.Relu(), nn.Dropout(0.25),
            nn.MaxPool((2, 2), (1, 1)), nn.MaxPool((2, 2), (1, 1)), nn.Flatten(),
            nn.Dense(8), nn.Relu(), nn.Dropout(0.4), nn.Dense(2))),
    }
    worst = {}
    for name, net in cases.items():
        params = nn.init_params(net, 6, dtype=np.float64)
        rng = SeededPrng(7)
        shape = (4,) + tuple(net.input_shape)
        x = rng.uniform(shape)
        y = np.arange(4) % 2
        rep = nn.gradient_check(net, params, x, y, sample_count=20, h=1e-5, seed=8)
        worst[name] = rep.max_rel_err
    ok = all(v < 1e-4 for v in worst.values())
    report(2, ok, "max relative errors " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# -- criterion 3: kNN oracle equivalence ------------------------------------------------

def _oracle_distance(metric, a, b):
    if metric.variant == "euclidean":
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    if metric.variant == "manhattan":
        return sum(abs(x - y) for x, y in zip(a, b))
    if metric.variant == "hamming":
        return float(sum(1 for x, y in zip(a, b) if x != y))
    return sum(abs(x - y) ** metric.p for x, y in zip(a, b)) ** (1.0 / metric.p)


def _oracle_predict(features, labels, metric, q, k):
    scored = sorted((_oracle_distance(metric, row, q), i) for i, row in enumerate(features))
    top = scored[:k]
    counts = {}
    for _, i in top:
        counts[labels[i]] = counts.get(labels[i], 0) + 1
    best = max(counts.values())
    tied = {lab for lab, c in counts.items() if c == best}
    vote = next(labels[i] for _, i in top if labels[i] in tied)
    return [i for _, i in top], vote


def test_criterion_3_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(2023)
    metrics = [EUCLIDEAN, MANHATTAN, HAMMING, minkowski(3.0)]
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(2, 101))
        d = int(rng.integers(1, 17))
        features = np.round(rng.normal(size=(n, d)), 3)
        labels = rng.integers(0, 2, size=n)
        q = np.round(rng.normal(size=d), 3)
        k = int(rng.integers(1, min(n, 12) + 1))
        metric = metrics[trial % 4]
        order = knn._nearest(metric, q[None, :], features, k)[0]
        vote = knn._vote(labels[order][None, :], k)[0]
        oracle_idx, oracle_vote = _oracle_predict(features, labels.tolist(), metric, q, k)
        if order.tolist() != oracle_idx or vote != oracle_vote:
            mismatches += 1
    report(3, mismatches == 0, f"1000 random instances, {mismatches} mismatches")


# -- criterion 4: metric/feature properties ----------------------------------------------

def test_criterion_4_property_battery():
    rng = np.random.default_rng(11)
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    def distance(metric, a, b):
        return float(knn._row_distances(metric, a[None, :], b)[0])

    # metric axioms on exactly-representable grids
    vecs = rng.integers(-40, 40, size=(200, 3, 7)).astype(np.float64) / 8.0
    for metric in (EUCLIDEAN, MANHATTAN, minkowski(2.5)):
        for a, b, c in vecs:
            check("identity", distance(metric, a, a) == 0.0)
            check("symmetry", distance(metric, a, b) == distance(metric, b, a))
            check("triangle", distance(metric, a, c)
                  <= distance(metric, a, b) + distance(metric, b, c) + 1e-9)

    # minkowski reductions
    for a, b, _ in vecs[:100]:
        e, m1 = distance(EUCLIDEAN, a, b), distance(minkowski(2.0), a, b)
        check("minkowski2", abs(e - m1) <= 1e-9 * max(e, 1e-30))
        t, m2 = distance(MANHATTAN, a, b), distance(minkowski(1.0), a, b)
        check("minkowski1", abs(t - m2) <= 1e-9 * max(t, 1e-30))

    # softmax normalization and shift invariance
    logits = rng.normal(size=(64, 2)) * 5
    labels = rng.integers(0, 2, size=64)
    loss_a, probs_a, _ = nn.softmax_cross_entropy(logits, labels)
    loss_b, probs_b, _ = nn.softmax_cross_entropy(logits + 100.0, labels)
    check("softmax_norm", np.allclose(probs_a.sum(axis=1), 1.0, atol=1e-6))
    check("softmax_shift", abs(loss_a - loss_b) < 1e-6 and np.allclose(probs_a, probs_b, atol=1e-6))

    # histogram normalization and permutation invariance
    values = rng.uniform(size=(12, 9, 3))
    img = imaging.PixelImage(values)
    hist = imaging.extract_histogram_features(img, 8)
    flat = values.reshape(-1, 3)
    shuffled = imaging.PixelImage(flat[rng.permutation(len(flat))].reshape(values.shape))
    hist_shuffled = imaging.extract_histogram_features(shuffled, 8)
    check("hist_norm", abs(hist.sum() - 1.0) < 1e-6 and np.all(hist >= 0))
    check("hist_perm", np.array_equal(hist, hist_shuffled))

    # batch-norm train statistics
    x = rng.normal(loc=2.0, scale=3.0, size=(8, 5, 5, 4))
    y_bn, _, _ = nn.batch_norm_forward_train(x, np.ones(4), np.zeros(4),
                                             np.zeros(4), np.ones(4), 1e-3, 0.99)
    check("bn_mean", np.all(np.abs(y_bn.mean(axis=(0, 1, 2))) < 1e-5))
    check("bn_var", np.all(np.abs(y_bn.var(axis=(0, 1, 2)) - 1.0) < 1e-3))

    # dropout eval identity and train-mode mean preservation
    ones = np.ones((100, 100))
    out_eval, _ = nn.Dropout(0.7).forward(ones, {}, False, None)
    out_train, _ = nn.Dropout(0.5).forward(ones, {}, True, SeededPrng(5))
    check("dropout_eval", np.array_equal(out_eval, ones))
    check("dropout_mean", abs(out_train.mean() - 1.0) < 0.05)

    # scaling invariance of kNN neighbour sets and votes (continuous features:
    # exact real-arithmetic ties would make ulp-level order under scaling moot)
    features = rng.normal(size=(50, 6))
    labels = rng.integers(0, 2, size=50)
    queries = rng.normal(size=(8, 6))
    for metric in (EUCLIDEAN, MANHATTAN, minkowski(3.0)):
        for s in (0.5, 2.0, 977.0):
            base = knn._nearest(metric, queries, features, 5)
            scaled = knn._nearest(metric, queries * s, features * s, 5)
            check("knn_scaling", np.array_equal(base, scaled)
                  and np.array_equal(knn._vote(labels[base], 5), knn._vote(labels[scaled], 5)))

    report(4, not failures, f"property battery, failing groups: {sorted(set(failures)) or 'none'}")


# -- criterion 5: desk-scale end-to-end --------------------------------------------------

def test_criterion_5a_histogram_beats_raw_by_margin(desk_run):
    hist_mean = desk_run["hist"]["results"][0]["mean_accuracy"]
    raw_mean = desk_run["raw"]["results"][0]["mean_accuracy"]
    gap = hist_mean - raw_mean
    report(5, gap >= 0.10, f"(a) hist={hist_mean:.4f} raw={raw_mean:.4f} gap={gap:.4f} >= 0.10")


def test_criterion_5b_cnn_tops_both(desk_run):
    hist_mean = desk_run["hist"]["results"][0]["mean_accuracy"]
    val_acc = desk_run["cnn"]["curve"][-1]["val_acc"]
    ok = val_acc >= 0.95 and val_acc > hist_mean
    report(5, ok, f"(b) cnn val={val_acc:.4f} >= 0.95 and > hist={hist_mean:.4f}")


# -- criterion 6: determinism --------------------------------------------------------------

def test_criterion_6_bit_identical_reruns(desk_run, demo_stdout):
    """Demo 05 reruns the desk run in a fresh process; its printed digests must
    equal those of desk_run's six files, and its checkpoint round trip must
    keep the eval logits bit-identical. A file without a digest line fails.
    In-process reruns are checked at 120 images in tests/test_harness.py
    (test_cmd_knn_rerun_is_byte_identical, test_cmd_cnn_train_rerun_byte_identical)."""
    stdout = demo_stdout("05_train_and_compare")
    printed = {}
    for line in stdout.splitlines():
        if line.startswith("sha256 "):
            digest, name = line.split()[1:]
            printed[name] = digest
    names = ("knn_hist.csv", "knn_hist.json", "knn_raw.csv", "knn_raw.json", "cnn.csv", "cnn.ckpt")
    same = all(printed.get(name) == hashlib.sha256((desk_run["dir"] / name).read_bytes()).hexdigest()
               for name in names)
    roundtrip = "eval logits bit-identical: True" in stdout
    report(6, same and roundtrip,
           f"fresh-process rerun outputs byte-identical={same}, "
           f"checkpoint logits bit-identical={roundtrip}")


# -- criterion 7: extended corpus (optional) --------------------------------------------------

NIH_DIR = os.environ.get("CELLGRADE_NIH_DIR")


@pytest.mark.skipif(not NIH_DIR, reason="set CELLGRADE_NIH_DIR to the 27,558-image corpus root")
def test_criterion_7_extended_corpus(tmp_path):
    """kNN raw 0.5564 +- 0.04, hist(k=10) 0.747 +- 0.04, full CNN last-epoch val >= 0.90.

    A euclidean k_sweep over 27,558 random rows (4 folds, k=10) measured 16.5 s
    at 512 dims and 54.9 s at 3072 dims on a 2-core x86 VM with OpenBLAS, so
    each kNN leg's search takes about a minute. Decoding was measured on synth
    cells resized to 100-150 px and re-encoded with a libpng-style filter per
    row (least sum of |residual|; 78-79% Paeth, 18-20% Average rows): a median
    of 5.8-8.5 ms per image over three runs of 40-60 images, so each leg's
    27,558 decodes take 2.7-3.9 minutes. perfbench's reference-train workload
    (640 cells, 2 epochs) measures 60-105 training samples/s, per-epoch eval
    passes (335-442 images/s) and checkpoint writes included, on the same VM,
    so the CNN leg's 22,046 training images x 10 epochs extrapolate to 35-61
    minutes; no corpus-scale run has measured it yet. Each decode writes its
    rows straight into one array, so the raw leg holds its 27,558 x 3072
    float64 features (677 MB) once, the hist leg 113 MB at 512 dims, and the
    CNN leg its 64 x 64 x 3 float32 tensors (1.35 GB) once. The sweep permutes
    each fold's rows in place through one row of scratch and copies none of
    them: one euclidean sweep over 27,558 x 3072 random rows (4 folds, k=10)
    peaked at 812 MiB ru_maxrss (the matrix is 646 MiB) on the VM above.
    """
    raw = harness.cmd_knn(NIH_DIR, "raw", EUCLIDEAN, [10], folds=4, seed=0,
                          out_prefix=str(tmp_path / "raw"))
    raw_mean = raw["results"][0]["mean_accuracy"]
    hist = harness.cmd_knn(NIH_DIR, "hist", EUCLIDEAN, [10], folds=4, seed=0,
                           out_prefix=str(tmp_path / "hist"))
    hist_mean = hist["results"][0]["mean_accuracy"]
    cnn = harness.cmd_cnn_train(NIH_DIR, reduced=False, epochs=10, batch_size=32,
                                lr=1e-3, seed=0, out_prefix=str(tmp_path / "cnn"))
    val_acc = cnn["curve"][-1]["val_acc"]  # the last epoch, as criterion 5b reads it
    ok = (abs(raw_mean - 0.5564) <= 0.04 and abs(hist_mean - 0.747) <= 0.04
          and val_acc >= 0.90)
    report(7, ok, f"raw={raw_mean:.4f} hist={hist_mean:.4f} cnn_val={val_acc:.4f}")
