"""Workloads, timed passes, output checks and the result of one benchmark run.

A run builds its corpus `setup_repeats` times, half before the measured
passes and half after them, so that one slow spell of a shared machine does
not cover every build; setup_s is the median. A pass calls the user-facing
commands in order (`harness.cmd_knn`, `cmd_cnn_train`, `cmd_cnn_eval`),
timing each, and checks their outputs. Untraced runs make the workload's
minimum number of passes and go on while another one fits in the `--seconds`
budget; they report medians. A traced run makes one untraced pass and then
one traced pass: per-layer numbers come from the traced pass, and the
difference of their wall times is the tracing overhead.

The workload seed makes the input corpus and is also the seed of every
command (folds, split, initialisation, shuffles), as in the README's desk run.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from cellgrade import harness
from cellgrade.knn import DistanceMetric

import corpus as corpora
import layers
from tracer import Tracer, wrapper_cost

K_VALUES = tuple(range(1, 26))
FOLDS = 4
BATCH, LR, VAL_FRAC = 32, 1e-3, 0.2
# End-to-end metrics every workload reports, in BENCHMARK.json order. The
# others (knn_cv_s, train_samples_per_s, ...) exist only where their command runs.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str  # "synth" or "filtered"
    n_images: int
    # Corpus builds per run; setup_s is their median. A desk build takes ~1.5 s
    # and varied from 1.0 to 2.4 s within one process on a 2-vCPU VM.
    setup_repeats: int
    knn: tuple[tuple[str, str], ...] = ()  # (features, metric) per cmd_knn call
    # Whether knn_cv_s is reported. On desk the two calls take ~0.9 s and varied
    # by +-15% between rounds in one process on a 2-core VM; left out there.
    knn_cv_reported: bool = True
    # Passes an untraced run makes even past --seconds. Consecutive corpus-knn
    # passes in one process varied by +-11%; their median is steadier.
    min_passes: int = 1
    reduced: bool | None = None  # None: no CNN commands
    epochs: int = 0
    desk_criteria: bool = False  # report the paper's criterion 5
    required: tuple[str, ...] = ()  # spans the traced pass must record


COMMON_SPANS = ("png.decode_rgb8", "imaging.decode_image", "data.load_dataset")
NN_SPANS = ("nn.train_epoch", "nn.evaluate", "nn.adam_step", "nn.conv2d_forward",
            "nn.conv2d_backward", "nn.batch_norm_forward_train", "nn.batch_norm_backward",
            "nn.max_pool_forward", "nn.max_pool_backward", "nn.dropout_forward",
            "nn.dense_forward", "nn.dense_backward", "nn.softmax_cross_entropy",
            "prng.SeededPrng.uniform", "imaging.image_to_tensor", "harness.load_tensor_batch",
            "harness.save_checkpoint", "harness.load_checkpoint")
KNN_SPANS = ("knn.k_sweep", "imaging.extract_histogram_features",
             "imaging.extract_raw_features", "harness.extract_feature_matrix")

WORKLOADS = {w.name: w for w in (
    Workload(
        "desk",
        "the paper's desk run: 600 filter-0 cells, kNN hist and raw, 10 reduced-CNN epochs; "
        "BN-heavy steps, bypasses filtered decode and the manhattan sweep",
        "synth", 600, 4, knn=(("hist", "euclidean"), ("raw", "euclidean")), knn_cv_reported=False,
        reduced=True, epochs=10, desk_criteria=True,
        required=COMMON_SPANS + NN_SPANS + KNN_SPANS),
    Workload(
        "corpus-knn",
        "600 cells at 100-150 px in all five PNG filters plus planted bad files, kNN only: "
        "png decode, imaging and the manhattan sweep; bypasses nn",
        "filtered", 600, 2, knn=(("hist", "manhattan"), ("raw", "euclidean")), min_passes=2,
        required=COMMON_SPANS + KNN_SPANS),
    Workload(
        "reference-train",
        "640 cells through the 7.98M-parameter CNN for 2 epochs and eval: Adam, conv backward "
        "and 96 MB checkpoints; bypasses knn",
        "synth", 640, 4, reduced=False, epochs=2,
        required=COMMON_SPANS + NN_SPANS),
)}


def toy(workload: Workload) -> Workload:
    """The same workload at a size that runs in seconds, for the self-test."""
    return replace(workload, n_images=60, setup_repeats=2, epochs=min(workload.epochs, 2),
                   desk_criteria=False, min_passes=1)


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

def _openblas():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    return ctypes.CDLL(libs[0]) if libs else None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype, fn.argtypes = restype, []
            value = fn()
            return value.decode() if isinstance(value, bytes) else value
    return None


def environment(seed: int) -> dict:
    lib = _openblas()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _blas_call(lib, ("scipy_openblas_get_num_threads64_",
                                         "openblas_get_num_threads64_",
                                         "openblas_get_num_threads"), ctypes.c_int),
        "openblas_config": _blas_call(lib, ("scipy_openblas_get_config64_",
                                            "openblas_get_config64_", "openblas_get_config"),
                                      ctypes.c_char_p),
        "openblas_core": _blas_call(lib, ("scipy_openblas_get_corename64_",
                                          "openblas_get_corename64_", "openblas_get_corename"),
                                    ctypes.c_char_p),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# One pass over the workload's commands
# --------------------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float = 0.0
    knn_s: float = 0.0
    train_s: float | None = None
    eval_s: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.problems.append(problem)
        self.failed += operations


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_images(p: Pass, command: str, summary: dict, corpus: corpora.Corpus,
                  n_samples: int) -> None:
    """Each image's skip or accept must follow the plan; planted files skip for their reason."""
    skipped = {s["id"]: s["reason"] for s in summary["skipped"]}
    for sid in sorted(set(skipped) ^ set(corpus.planted)):
        p.fail(f"{command}: {sid} {'skipped' if sid in skipped else 'accepted'} against plan")
    for sid, kind in corpus.planted.items():
        if sid in skipped and not skipped[sid].startswith(corpora.PLANTED_REASONS[kind][1]):
            p.fail(f"{command}: {sid} skipped for {skipped[sid]!r}, planted as {kind}")
    if n_samples != corpus.n_valid:
        p.fail(f"{command}: {n_samples} samples, expected {corpus.n_valid}")


def _timed(p: Pass, label: str, operations: int, fn, *args, **kwargs):
    """Run one command; a raise counts the command and its images as failed."""
    p.attempted += operations
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed command is a measured outcome, not a crash
        traceback.print_exc()
        p.fail(f"{label} raised {type(exc).__name__}: {exc}", operations)
        result = None
    seconds = time.perf_counter() - start
    p.wall_s += seconds
    return result, seconds


def run_pass(w: Workload, corpus: corpora.Corpus, out: Path, seed: int) -> Pass:
    p = Pass()
    out.mkdir(parents=True, exist_ok=True)
    data = str(corpus.root)
    ops = 1 + corpus.n_files
    for features, metric in w.knn:
        label = f"knn_{features}_{metric}"
        summary, seconds = _timed(p, f"cmd_knn {label}", ops, harness.cmd_knn, data, features,
                                  DistanceMetric(metric), K_VALUES, FOLDS, seed,
                                  out_prefix=str(out / label))
        p.knn_s += seconds
        if summary is None:
            continue
        _check_images(p, f"cmd_knn {label}", summary, corpus, summary["n_samples"])
        for ext in ("csv", "json"):
            p.digests[f"{label}.{ext}"] = _sha256(out / f"{label}.{ext}")
        p.outputs[label] = next(r["mean_accuracy"] for r in summary["results"] if r["k"] == 10)

    if w.reduced is not None:
        train, p.train_s = _timed(p, "cmd_cnn_train", ops, harness.cmd_cnn_train, data,
                                  reduced=w.reduced, epochs=w.epochs, batch_size=BATCH,
                                  lr=LR, seed=seed, val_frac=VAL_FRAC,
                                  out_prefix=str(out / "cnn"))
        report, p.eval_s = _timed(p, "cmd_cnn_eval", ops, harness.cmd_cnn_eval,
                                  str(out / "cnn.ckpt"), data, out_path=str(out / "cnn_eval.json"),
                                  reduced=w.reduced)
        if train is not None:
            _check_images(p, "cmd_cnn_train", train, corpus, train["train_size"] + train["val_size"])
            _check_training(p, w, train)
            p.outputs["train_samples"] = train["train_size"] * w.epochs
            p.outputs["cnn_val_acc"] = train["curve"][-1]["val_acc"] if train["curve"] else None
            for name in ("cnn.csv", "cnn.ckpt"):
                p.digests[name] = _sha256(out / name)
        if report is not None:
            _check_images(p, "cmd_cnn_eval", report, corpus, report["n_samples"])
            p.outputs["eval_images"] = report["n_samples"]
            p.digests["cnn_eval.json"] = _sha256(out / "cnn_eval.json")
        if train is not None and train["curve"] and report is not None:
            _check_eval_matches_curve(p, train, report)
    return p


def _check_training(p: Pass, w: Workload, train: dict) -> None:
    curve = train["curve"]
    if len(curve) != w.epochs:
        p.fail(f"cmd_cnn_train: {len(curve)} curve rows, expected {w.epochs}")
    if not all(math.isfinite(r[k]) for r in curve for k in ("train_loss", "val_loss")):
        p.fail("cmd_cnn_train: non-finite loss in the curve")


def _check_eval_matches_curve(p: Pass, train: dict, report: dict) -> None:
    """cnn-eval over the whole set must count the same correct images as the last epoch's
    eval-mode passes over the train and val splits."""
    last = train["curve"][-1]
    from_curve = round(last["train_acc"] * train["train_size"]) + round(last["val_acc"] * train["val_size"])
    from_eval = round(report["accuracy"] * report["n_samples"])
    if from_curve != from_eval:
        p.fail(f"cmd_cnn_eval: {from_eval} correct, the training curve implies {from_curve}")


def criterion_5(p: Pass) -> dict:
    """The paper's desk claim: hist - raw >= 0.10 at k=10; CNN val >= 0.95 and above hist.

    Reported, not counted as a failed operation: at desk scale (120 validation
    images) the CNN half of the claim misses on some corpus seeds with correct
    code, so it measures the claim, not the program.
    """
    hist, raw = p.outputs["knn_hist_euclidean"], p.outputs["knn_raw_euclidean"]
    val = p.outputs["cnn_val_acc"]
    return {"gap": hist - raw, "cnn_val_acc": val, "hist_acc": hist,
            "a_pass": hist - raw >= 0.10, "b_pass": val >= 0.95 and val > hist}


# --------------------------------------------------------------------------
# A whole run
# --------------------------------------------------------------------------

@dataclass
class SetUp:
    """The timed corpus builds of one run; every build must give the same bytes."""

    w: Workload
    root: Path
    seed: int
    times: list[float] = field(default_factory=list)
    synth_ms: list[float] = field(default_factory=list)  # per image, per build
    digests: set[str] = field(default_factory=set)

    def build(self, repeats: int) -> corpora.Corpus:
        w = self.w
        for _ in range(repeats):
            shutil.rmtree(self.root, ignore_errors=True)
            start = time.perf_counter()
            if w.corpus == "synth":
                corpus = corpora.synth_corpus(self.root, w.n_images, self.seed)
                synth_s = time.perf_counter() - start
            else:
                corpus, synth_s = corpora.filtered_corpus(self.root, w.n_images, self.seed)
            self.times.append(time.perf_counter() - start)
            self.synth_ms.append(1e3 * synth_s / w.n_images)
            self.digests.add(corpus.digest())
        return corpus

    def problems(self) -> list[str]:
        return [] if len(self.digests) == 1 else [f"set-up built {len(self.digests)} distinct corpora"]


def _median(values):
    return statistics.median(values) if values else None


def run(w: Workload, seed: int, seconds: float, trace: bool,
        spans_path: Path | None = None) -> dict:
    """One benchmark run in the current directory, which it leaves empty; returns the record.

    Commands see the relative paths `corpus` and `out`, so their payloads are
    the same wherever the run happens. A traced run writes its spans to
    `spans_path` when one is given.
    """
    record = {"workload": w.name, "seed": seed, "trace": trace, "environment": environment(seed)}
    setup = SetUp(w, Path("corpus"), seed)
    corpus = setup.build(w.setup_repeats - w.setup_repeats // 2)
    start = time.perf_counter()
    setup_problems = corpora.verify_round_trip(corpus)
    record["round_trip_s"] = time.perf_counter() - start
    corpus.index()
    record["corpus"] = {"files": corpus.n_files, "valid": corpus.n_valid,
                        "filters": corpus.filter_counts(), "planted": sorted(corpus.planted.values()),
                        "sha256": corpus.digest()}

    passes: list[Pass] = []
    measure_start = time.perf_counter()
    while True:
        passes.append(run_pass(w, corpus, Path("out"), seed))
        if trace:
            break
        elapsed = time.perf_counter() - measure_start
        if len(passes) >= w.min_passes and elapsed + passes[-1].wall_s > seconds:
            break
    timing = list(passes)  # the traced pass never feeds end-to-end numbers
    setup.build(w.setup_repeats // 2)  # the same bytes again, checked by digest
    synth_ms = statistics.median(setup.synth_ms)
    if trace:
        tracer = Tracer(f"{w.name}-{seed}-{os.getpid()}")
        with tracer:
            passes.append(run_pass(w, corpus, Path("out"), seed))
        missing = [name for name in w.required if not any(s.name == name for s in tracer.spans)]
        if missing:
            passes[-1].fail(f"traced pass recorded no call of {', '.join(missing)}")
        filter_of = {key: corpus.files.get(sid, -1) for key, sid in corpus.keys.items()}
        record["per_layer"] = layers.analyze(tracer.spans, passes[-1].wall_s, timing[0].wall_s,
                                             filter_of, corpus.n_files, synth_ms,
                                             wrapper_cost())
        if spans_path is not None:
            tracer.write(spans_path)
    for p in passes[1:]:
        if p.digests != passes[0].digests:
            p.fail("output digests differ from the first pass of this run")

    attempted = corpus.n_valid + sum(p.attempted for p in passes)  # + one round trip per file
    setup_problems += setup.problems()
    failed = len(setup_problems) + sum(p.failed for p in passes)
    metrics = {}

    def put(name, value, unit, samples):
        metrics[name] = {"value": value, "unit": unit, "samples": samples}

    put("setup_s", statistics.median(setup.times), "s", len(setup.times))
    put("wall_s", _median([p.wall_s for p in timing]), "s", len(timing))
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    put("error_rate", failed / attempted, "fraction", attempted)
    first = passes[0]
    if w.knn and w.knn_cv_reported:
        put("knn_cv_s", _median([p.knn_s for p in timing]), "s", len(timing))
    if w.knn:
        put("knn_hist_acc", first.outputs.get(f"knn_hist_{w.knn[0][1]}"), "fraction", 1)
        put("knn_raw_acc", first.outputs.get(f"knn_raw_{w.knn[1][1]}"), "fraction", 1)
    if w.reduced is not None and not first.failed:
        put("train_samples_per_s",
            _median([p.outputs["train_samples"] / p.train_s for p in timing]), "1/s", len(timing))
        put("eval_images_per_s",
            _median([p.outputs["eval_images"] / p.eval_s for p in timing]), "1/s", len(timing))
        put("cnn_val_acc", first.outputs["cnn_val_acc"], "fraction", 1)
    if w.desk_criteria and not first.failed:
        record["criterion_5"] = criterion_5(first)
    record.update({
        "metrics": metrics, "setup_runs_s": setup.times, "digests": first.digests,
        "attempted": attempted, "failed": failed, "correct": failed == 0,
        "problems": setup_problems + [q for p in passes for q in p.problems],
    })
    for directory in ("corpus", "out"):
        shutil.rmtree(directory, ignore_errors=True)
    return record
