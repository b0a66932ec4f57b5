"""Self-test of the benchmark: every workload at toy size, the encoder, the tracer.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import corpus
import layers
from cellgrade import harness, imaging, png
from cellgrade.prng import SeededPrng
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]

# End-to-end metrics each workload must report, beyond bench.END_TO_END.
EXPECTED = {
    "desk": ("knn_hist_acc", "knn_raw_acc", "train_samples_per_s",
             "eval_images_per_s", "cnn_val_acc", "error_rate"),
    "corpus-knn": ("knn_cv_s", "knn_hist_acc", "knn_raw_acc", "error_rate"),
    "reference-train": ("train_samples_per_s", "eval_images_per_s", "cnn_val_acc", "error_rate"),
}
# Per-layer metrics beyond layers.PER_LAYER that the traced run must report.
EXPECTED_LAYER = {
    "desk": ("nn.step_ms_p50", "nn.step_ms_tail", "nn.adam_step.ms_per_step",
             "nn.step_gflop.computed", "nn.adam_mb_per_step.computed", "nn.conv_gflop_per_s",
             "prng.uniform_ms_per_step", "knn.k_sweep_s", "knn.ns_per_pair_dim",
             "imaging.hist_ms_per_image", "imaging.raw_ms_per_image",
             "imaging.tensor_ms_per_image", "png.decode_ms_per_image.f0",
             "harness.save_checkpoint_ms", "harness.load_checkpoint_ms",
             "trace.wrapper_cost_s"),
    "corpus-knn": tuple(f"png.decode_ms_per_image.f{f}" for f in range(5))
    + ("knn.k_sweep_s", "knn.ns_per_pair_dim", "imaging.hist_ms_per_image"),
    "reference-train": ("nn.step_ms_p50", "nn.adam_step.ms_per_step",
                        "harness.save_checkpoint_ms", "harness.load_checkpoint_ms"),
}


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def runs(request, tmp_path_factory):
    w = bench.toy(bench.WORKLOADS[request.param])
    base = tmp_path_factory.mktemp(w.name)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        plain = bench.run(w, 3, 0.0, False)
        traced = bench.run(w, 3, 0.0, True, base / "spans.jsonl")
    return w, plain, traced, base


def test_every_metric_is_emitted_with_a_unit(runs):
    w, plain, traced, _ = runs
    assert plain["correct"] and traced["correct"], plain["problems"] + traced["problems"]
    for name in bench.END_TO_END + EXPECTED[w.name]:
        assert plain["metrics"][name]["unit"], name
        assert plain["metrics"][name]["samples"] >= 1, name
        assert plain["metrics"][name]["value"] is not None, name
    assert plain["metrics"]["error_rate"]["value"] == 0
    for name in layers.PER_LAYER + EXPECTED_LAYER[w.name]:
        assert traced["per_layer"][name]["unit"], name
    assert set(plain["environment"]) >= {"nproc", "blas_threads", "openblas_core", "numpy",
                                         "python", "cpu_model", "seed"}


def test_traced_run_gives_the_untraced_digests(runs):
    _, plain, traced, base = runs
    assert plain["digests"] and plain["digests"] == traced["digests"]
    spans = [json.loads(line) for line in (base / "spans.jsonl").read_text().splitlines()]
    assert spans and {s["run"] for s in spans} == {spans[0]["run"]}
    assert all(s["end"] >= s["start"] and s["parent"] < s["id"] for s in spans)


def test_planted_files_are_skipped_by_class(runs):
    w, _, traced, _ = runs
    per_layer = traced["per_layer"]
    planted = 2 * sum(corpus.PLANTED.values()) if w.corpus == "filtered" else 0
    skipped = sum(per_layer[f"harness.skipped.{c}"]["value"] for c in layers.SKIP_CLASSES)
    assert skipped == planted * (len(w.knn) + (2 if w.reduced is not None else 0))
    assert per_layer["png.distinct_files_decoded"]["value"] == traced["corpus"]["files"]


@pytest.mark.parametrize("ftype", range(5))
def test_vectorized_encoder_round_trips(ftype):
    rng = np.random.default_rng(ftype)
    for shape in ((1, 1, 3), (7, 5, 3), (40, 33, 3)):
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        pixels[0, 0] = (0, 255, 128)
        data = corpus.encode_png(pixels, ftype)
        assert corpus.scanline_filters(data) == {ftype}
        np.testing.assert_array_equal(png.decode_rgb8(data), pixels)


def test_planted_files_fail_as_planned():
    pixels = np.full((8, 8, 3), 200, dtype=np.uint8)
    for kind, (cls, reason) in corpus.PLANTED_REASONS.items():
        with pytest.raises(Exception) as info:
            png.decode_rgb8(corpus._plant(kind, pixels))
        assert type(info.value).__name__ == cls and str(info.value).startswith(reason)


def test_tracer_wraps_every_lookup_name_and_restores_it():
    originals = (png.decode_rgb8, imaging.decode_image, harness.decode_image,
                 SeededPrng.uniform)
    data = png.encode_rgb8(np.zeros((2, 2, 3), np.uint8))
    with Tracer("t") as tracer:
        assert harness.decode_image is imaging.decode_image is not originals[1]
        SeededPrng(1).uniform(3)
        imaging.decode_image(data)
    assert (png.decode_rgb8, imaging.decode_image, harness.decode_image,
            SeededPrng.uniform) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["prng.SeededPrng.uniform", "prng.SeededPrng.u64",
                     "imaging.decode_image", "png.decode_rgb8"]
    assert tracer.spans[3].parent == 2 and tracer.spans[1].parent == 0


def test_tail_has_ten_samples_beyond_it():
    q, value = layers.tail([float(v) for v in range(1, 201)])
    assert q == 95.0 and value == 190.0
    assert layers.tail([3.0, 1.0, 2.0, 4.0]) == (50.0, 2.0)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
