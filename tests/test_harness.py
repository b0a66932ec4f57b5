import hashlib
import json
import os
import shutil
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cellgrade.nn as nn
from cellgrade import harness, imaging, png
from cellgrade.cli import build_parser, main, parse_k_list
from cellgrade.data import load_dataset, synth_generate, train_val_split_indices
from cellgrade.errors import ConfigError, DataError, IntegrityError
from cellgrade.harness import (
    load_checkpoint,
    save_checkpoint,
    spec_digest,
)
from cellgrade.knn import EUCLIDEAN
from cellgrade.prng import SeededPrng


@pytest.fixture
def net_and_params():
    net = nn.NetworkSpec((6, 6, 3), (
        nn.Conv2D(4, (3, 3)), nn.BatchNorm(4), nn.Relu(), nn.Flatten(), nn.Dense(2)))
    return net, nn.init_params(net, 31)


def refix_checksum(data: bytes) -> bytes:
    body = data[:-8]
    return body + struct.pack("<Q", int.from_bytes(hashlib.sha256(body).digest()[:8], "little"))


# -- checkpoints ----------------------------------------------------------------

def test_preset_spec_digests_are_pinned():
    # an edit to either preset changes its checkpoints' digest and so fails here
    assert spec_digest(nn.reference_network()) == 0x1e7332dae21866f2
    assert spec_digest(nn.reduced_network()) == 0x363b09a3aa4dae2


def test_checkpoint_bytes_are_pinned(tmp_path):
    # a reordered or renamed tensor layout changes these bytes and so fails here
    net = nn.reduced_network()
    path = tmp_path / "init.ckpt"
    save_checkpoint(nn.init_params(net, 0), net, path)
    data = path.read_bytes()
    assert len(data) == 687_712
    assert hashlib.sha256(data).hexdigest() == (
        "7585842df08a819f62d06d34fea58aa17b17933323c11ae7e43b80aa4587a15c")


def test_checkpoint_holds_only_the_tensors_eval_reads(tmp_path):
    """The reference net's file is the 20-byte header, one entry per tensor of
    param_shapes (name length, name, rank, dims, 4 bytes per value) and the
    8-byte checksum: any tensor stored beyond those makes it larger."""
    net = nn.reference_network()
    path = tmp_path / "ref.ckpt"
    save_checkpoint(nn.init_params(net, 0), net, path)
    entries = [(f"layer{i:02d}/{lay.kind}/{key}", shape)
               for i, (lay, shapes) in enumerate(zip(net.layers, nn.param_shapes(net)))
               for key, shape in shapes.items()]
    size = 20 + sum(4 + len(name) + 4 + 8 * len(shape) + 4 * int(np.prod(shape))
                    for name, shape in entries) + 8
    assert path.stat().st_size == size == 31_903_052
    assert struct.unpack("<I", path.read_bytes()[16:20]) == (len(entries),)


def test_checkpoint_round_trip_bit_exact(tmp_path, net_and_params):
    net, params = net_and_params
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, net, path)
    loaded, digest = load_checkpoint(path, net)
    assert digest == spec_digest(net)
    for a, b in zip(params.layers, loaded.layers):
        assert sorted(a) == sorted(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
    # a loaded state evaluates: no moment tensors are made for it
    assert loaded.adam_m == loaded.adam_v == [{} for _ in net.layers] and loaded.step == 0


@pytest.mark.parametrize("state,name,dtype", [
    ("float64", "layer00/conv2d/bias", "float64"),
    ("last float16", "layer04/dense/weights", "float16"),  # so every tensor is checked
])
def test_checkpoint_refuses_a_state_it_would_round(tmp_path, net_and_params, state, name, dtype):
    # the format stores float32 only
    net, params = net_and_params
    if state == "float64":
        params = nn.init_params(net, 31, dtype=np.float64)
    else:
        params.layers[4]["weights"] = params.layers[4]["weights"].astype(np.float16)
    with pytest.raises(ConfigError, match=f"tensor '{name}' is {dtype}; checkpoints store float32"):
        save_checkpoint(params, net, tmp_path / "m.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_roundtrip_preserves_eval_logits(tmp_path, net_and_params):
    net, params = net_and_params
    x = SeededPrng(1).uniform((3, 6, 6, 3)).astype(np.float32)
    before, _ = nn.network_forward(net, params, x)
    save_checkpoint(params, net, tmp_path / "m.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt", net)
    after, _ = nn.network_forward(net, loaded, x)
    np.testing.assert_array_equal(before, after)


def test_checkpoint_io_copies_its_payload_at_most_once(tmp_path):
    net = nn.reduced_network()
    params = nn.init_params(net, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, net, path)
    size = path.stat().st_size
    peaks = []
    for io in (lambda: save_checkpoint(params, net, path), lambda: load_checkpoint(path, net)):
        tracemalloc.start()
        try:
            result = io()
            peaks.append(tracemalloc.get_traced_memory()[1] / size)
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.7 and peaks[1] < 1.2, peaks
    loaded, _ = result
    assert all(a.flags.writeable for layer in loaded.layers for a in layer.values())


def test_checkpoint_save_streams_its_tensors(tmp_path):
    """save_checkpoint hashes and writes each tensor's own buffer, so it holds
    no copy of the payload (test_checkpoint_bytes_are_pinned pins the bytes)."""
    net = nn.reduced_network()
    params = nn.init_params(net, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, net, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        save_checkpoint(params, net, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * size, peak / size


def test_checkpoint_load_streams_a_large_corrupt_file(tmp_path):
    """A 64 MB file with a valid magic and version fails its checksum after
    fixed-size reads, never holding the file."""
    path = tmp_path / "sparse.ckpt"
    with open(path, "wb") as f:
        f.write(harness.CHECKPOINT_MAGIC + struct.pack("<I", harness.CHECKPOINT_VERSION))
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(IntegrityError, match="^payload checksum mismatch: stored 0x0, "
                                                 "computed 0x61224a108c1f7dd0$"):
            load_checkpoint(path, nn.reduced_network())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_checkpoint_wrong_magic(tmp_path, net_and_params):
    net, params = net_and_params
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, net, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match="magic"):
        load_checkpoint(path, net)


def test_checkpoint_unsupported_version(tmp_path, net_and_params):
    net, params = net_and_params
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, net, path)
    good = path.read_bytes()
    # version 1 also held the Adam moments and the step: it is refused, never misread
    for version in (1, harness.CHECKPOINT_VERSION + 1):
        path.write_bytes(refix_checksum(good[:4] + struct.pack("<I", version) + good[8:]))
        with pytest.raises(IntegrityError, match=f"^unsupported checkpoint version {version}, expected 2$"):
            load_checkpoint(path, net)


def test_checkpoint_flipped_payload_byte(tmp_path, net_and_params):
    net, params = net_and_params
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, net, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match="checksum"):
        load_checkpoint(path, net)


def test_checkpoint_digest_mismatch(tmp_path, net_and_params):
    net, params = net_and_params
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, net, path)
    other = nn.NetworkSpec((6, 6, 3), (
        nn.Conv2D(4, (3, 3)), nn.BatchNorm(4, momentum=0.5), nn.Relu(), nn.Flatten(), nn.Dense(2)))
    with pytest.raises(IntegrityError, match="digest"):
        load_checkpoint(path, other)


def test_checkpoint_missing_tensor(tmp_path, net_and_params):
    net, params = net_and_params
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, net, path)
    # drop the last entry, the dense weights, and count one tensor fewer
    data = path.read_bytes()
    (count,) = struct.unpack("<I", data[16:20])
    last = data.index(b"layer04/dense/weights") - 4  # the entry starts with its name length
    path.write_bytes(refix_checksum(data[:16] + struct.pack("<I", count - 1) + data[20:last] + data[-8:]))
    with pytest.raises(IntegrityError, match=f"has {count - 1} tensors, expected {count}"):
        load_checkpoint(path, net)


# -- dataset decode ----------------------------------------------------------------

# Each command as a call on a dataset, beside the per-image conversion it stacks.
DECODES = {
    "raw": (lambda ds: harness.extract_feature_matrix(ds, "raw_pixel"), imaging.extract_raw_features),
    "hist": (lambda ds: harness.extract_feature_matrix(ds, "hsv_histogram", 4),
             lambda img: imaging.extract_histogram_features(img, 4)),
    "tensor": (lambda ds: harness.load_tensor_batch(ds, 20),
               lambda img: imaging.image_to_tensor(img, 20).astype(np.float32)),
}


def stacked_decode(dataset, convert):
    """The reference: each decodable file converted on its own, then np.stack."""
    rows, labels, skipped = [], [], []
    for item in dataset:
        try:
            img = imaging.decode_image(item.source.read_bytes())
        except (DataError, OSError) as exc:
            skipped.append({"id": item.sample_id, "reason": str(exc)})
            continue
        rows.append(convert(img))
        labels.append(item.label)
    return np.stack(rows), np.array(labels, dtype=np.int64), skipped


def decode_tree(root, n, bad=(), side=(9, 17)):
    """n cells of random size and pixels, Parasitized before Uninfected; the files
    at the positions in bad, in dataset order, are not PNGs."""
    rng = np.random.default_rng(n)
    for sub in ("Parasitized", "Uninfected"):
        (root / sub).mkdir(parents=True)
    for i in range(n):
        path = root / ("Parasitized" if 2 * i < n else "Uninfected") / f"{i:03d}.png"
        h, w = rng.integers(*side, size=2)
        path.write_bytes(b"not a png" if i in bad else
                         png.encode_rgb8(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)))
    return load_dataset(root)


@pytest.mark.parametrize("command", DECODES)
@pytest.mark.parametrize("bad", [(), (0,), (5,), (0, 1, 2, 4, 5)], ids=["none", "first", "last", "all-but-one"])
def test_decode_matches_a_stack_of_per_file_conversions(tmp_path, command, bad):
    """The first file can fail before any row shape is known, and the last after the rows are sized."""
    dataset = decode_tree(tmp_path, 6, bad)
    decode, convert = DECODES[command]
    x, y, skipped = decode(dataset)
    want_x, want_y, want_skipped = stacked_decode(dataset, convert)
    assert (x.dtype, x.shape) == (want_x.dtype, want_x.shape) and x.tobytes() == want_x.tobytes()
    assert y.dtype == want_y.dtype and y.tolist() == want_y.tolist()
    assert skipped == want_skipped and len(skipped) == len(bad)


@pytest.mark.parametrize("command", DECODES)
def test_decode_of_only_failing_files_raises(tmp_path, command):
    dataset = decode_tree(tmp_path, 3, bad=range(3))
    with pytest.raises(DataError, match="^every image in the dataset failed to decode$"):
        DECODES[command][0](dataset)


@pytest.mark.parametrize("command", ["raw", "tensor"])
def test_decode_memory_is_the_output_and_one_image(tmp_path, command):
    """Rows are written into the returned array, not kept in a list and stacked:
    the peak is the output plus one image's decode and conversion (twice, as one
    image's arrays live until the next one's replace them), where a list and a
    stack hold the output twice."""
    decode = DECODES[command][0]
    one = decode_tree(tmp_path / "one", 1, side=(40, 41))
    many = decode_tree(tmp_path / "many", 60, side=(40, 41))
    peaks = []
    for dataset in (one, one, many):  # the first pass also pays for lazy imports
        tracemalloc.start()
        try:
            out_bytes = decode(dataset)[0].nbytes
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[-1] < out_bytes + 2 * peaks[1], (out_bytes, peaks)


def test_decode_that_cannot_reserve_its_rows_raises_a_data_error(tmp_path):
    """2^20 images of a 2^35-value float64 row ask for 2^58 bytes: more than a
    64-bit host maps, less than numpy's size limit. The row is a broadcast view,
    so nothing of that size is ever made."""
    def huge_row(img):
        return np.broadcast_to(np.zeros(1), (1 << 35,))

    item = decode_tree(tmp_path, 1)[0]
    with pytest.raises(DataError, match=f"^no memory for {1 << 20} images of {1 << 38} bytes each$"):
        harness._decode_each((item,) * (1 << 20), huge_row)


# -- knn command -------------------------------------------------------------------

def test_cmd_knn_row_count_and_schema(small_synth, tmp_path):
    prefix = tmp_path / "knn"
    harness.cmd_knn(small_synth, "hist", EUCLIDEAN, [1, 5, 10], folds=4, seed=5,
                    out_prefix=str(prefix))
    lines = (tmp_path / "knn.csv").read_text(encoding="utf-8").split("\n")
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if l and not l.startswith("#")]
    assert body[0] == "feature,metric,k,fold,accuracy"
    assert len(body) == 1 + 12  # header + 3 k-values x 4 folds
    assert any(l.startswith("# config: ") for l in comments)
    assert any(l.startswith("# cellgrade-version: ") for l in comments)
    first = body[1].split(",")
    assert first[0] == "hsv_histogram" and first[1] == "euclidean"
    summary = json.loads((tmp_path / "knn.json").read_text())
    assert [r["k"] for r in summary["results"]] == [1, 5, 10]
    assert summary["fold_hash"]
    assert summary["config"]["seed"] == 5


@pytest.mark.parametrize("k_values,folds,match", [
    ([1, 1], 4, "listed more than once"), ([0, 3], 4, "positive"), ([], 4, "non-empty"),
    ([3], 1, "folds must be >= 2"),
    ([2.5], 4, "^k must be an integer, got 2.5$"), (["3"], 4, "^k must be an integer, got '3'$"),
    ([4, np.float64(3.0)], 4, "^k must be an integer, got "),
    ([3], 2.0, "^folds must be an integer, got 2.0$"),
    ([3], {"folds": 4, "seed": 1.5}, "^seed must be an integer, got 1.5$"),
    ([3], {"folds": np.int64(4), "bins": 2.5}, "^bins must be an integer, got 2.5$"),
])
def test_cmd_knn_checks_k_and_folds_before_decoding(small_synth, monkeypatch, tmp_path, k_values,
                                                    folds, match):
    """A dict in the folds column is the keywords to pass: seed and bins get the same check."""
    def no_decode(raw):
        raise AssertionError("decoded before the k and folds check")

    monkeypatch.setattr(harness, "decode_image", no_decode)
    keywords = folds if isinstance(folds, dict) else {"folds": folds}
    with pytest.raises(ConfigError, match=match):
        harness.cmd_knn(small_synth, k_values=k_values, **keywords, out_prefix=str(tmp_path / "k"))
    assert not any(tmp_path.iterdir())


def test_cmd_knn_rerun_is_byte_identical(small_synth, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    harness.cmd_knn(small_synth, "hist", EUCLIDEAN, [3], folds=4, seed=2, bins=8, out_prefix=str(a))
    # numpy integers are the same integers: they write the same bytes
    harness.cmd_knn(small_synth, "hist", EUCLIDEAN, [np.int64(3)], folds=np.int64(4), seed=np.uint8(2),
                    bins=np.int32(8), out_prefix=str(b))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# -- cnn commands --------------------------------------------------------------------

@pytest.mark.parametrize("reduced,batch_size,val_frac,match", [
    (True, 0, 0.2, "batch_size must be >= 1, got 0"),
    (True, 1, 0.2, "batch_size 1 makes batches of 1 sample"),
    (False, 1, 0.2, "batch_size 1 makes batches of 1 sample"),
    (True, 32, 1.5, r"val_fraction must be in \(0, 1\), got 1.5"),
    (True, 32, 0.0, r"val_fraction must be in \(0, 1\), got 0.0"),
    (True, 8.0, 0.2, "^batch_size must be an integer, got 8.0$"),
    (True, 32, {"val_frac": 0.2, "epochs": 1.5}, "^epochs must be an integer, got 1.5$"),
    (True, 32, {"val_frac": 0.2, "seed": np.float64(1.0)}, "^seed must be an integer, got "),
])
def test_cmd_cnn_train_checks_batch_and_val_frac_before_decoding(small_synth, monkeypatch, tmp_path,
                                                                 reduced, batch_size, val_frac, match):
    """A dict in the val_frac column is the keywords to pass: epochs and seed get the integer check."""
    def no_decode(raw):
        raise AssertionError("decoded before the batch and val_frac check")

    monkeypatch.setattr(harness, "decode_image", no_decode)
    keywords = {"epochs": 1, **(val_frac if isinstance(val_frac, dict) else {"val_frac": val_frac})}
    with pytest.raises(ConfigError, match=match):
        harness.cmd_cnn_train(small_synth, reduced=reduced, batch_size=batch_size, **keywords,
                              out_prefix=str(tmp_path / "c"))
    assert not any(tmp_path.iterdir())


def test_cmd_cnn_train_checkpoint_starts_from_the_masters_first_word(small_synth, tmp_path):
    """epochs=0 writes init_params seeded with SeededPrng(seed)'s first output."""
    harness.cmd_cnn_train(small_synth, reduced=True, epochs=0, seed=9,
                          out_prefix=str(tmp_path / "cnn"))
    net = nn.reduced_network()
    save_checkpoint(nn.init_params(net, SeededPrng(9).next_u64()), net, tmp_path / "want.ckpt")
    assert (tmp_path / "cnn.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()


def test_cmd_cnn_train_epochs_zero(small_synth, tmp_path):
    prefix = tmp_path / "cnn"
    out = harness.cmd_cnn_train(small_synth, reduced=True, epochs=0, seed=1,
                                out_prefix=str(prefix))
    lines = (tmp_path / "cnn.csv").read_text().split("\n")
    body = [l for l in lines if l and not l.startswith("#")]
    assert body == ["epoch,train_loss,train_acc,val_loss,val_acc"]
    assert out["curve"] == []
    load_checkpoint(tmp_path / "cnn.ckpt", nn.reduced_network())


def test_cmd_cnn_train_holds_its_tensors_once(tmp_path):
    """The train and validation splits are views of the decoded tensors,
    permuted in place through one row of scratch: the split copies no rows."""
    synth = tmp_path / "synth"
    n = 800
    synth_generate(synth, n, 0.5, 32, seed=7)
    net = nn.reduced_network()
    side = net.input_shape[0]
    tensors = n * side * side * 3 * 4
    tracemalloc.start()
    try:
        harness.cmd_cnn_train(synth, reduced=True, epochs=0, seed=1, val_frac=0.2,
                              out_prefix=str(tmp_path / "cnn"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the model: float32 parameters, their two Adam moments and the temporaries
    # of their initialisation and of one decode and one checkpoint write
    model = 8 * nn.count_params(net)[0] * 4
    assert peak < tensors + model, (peak / tensors, model / tensors)


def test_cmd_cnn_train_makes_learning_progress(small_synth, tmp_path):
    out = harness.cmd_cnn_train(small_synth, reduced=True, epochs=5, batch_size=16,
                                seed=8, out_prefix=str(tmp_path / "p"))
    curve = out["curve"]
    assert curve[-1]["train_acc"] > curve[0]["train_acc"]


def test_cnn_train_then_eval_on_train_split_matches(small_synth, tmp_path):
    """Eval over the training images must reproduce the logged train metrics."""
    out = harness.cmd_cnn_train(small_synth, reduced=True, epochs=2, batch_size=16,
                                seed=3, val_frac=0.25, out_prefix=str(tmp_path / "run"))
    ds = load_dataset(small_synth)
    train_idx, _ = train_val_split_indices([it.label for it in ds], 0.25, seed=3)
    train_dir = tmp_path / "train_only"
    (train_dir / "Parasitized").mkdir(parents=True)
    (train_dir / "Uninfected").mkdir(parents=True)
    for i in train_idx:
        item = ds[int(i)]
        shutil.copy(item.source, train_dir / item.sample_id)
    report = harness.cmd_cnn_eval(tmp_path / "run.ckpt", train_dir,
                                  out_path=str(tmp_path / "eval.json"), reduced=True)
    assert report["accuracy"] == out["curve"][-1]["train_acc"]
    assert report["loss"] == pytest.approx(out["curve"][-1]["train_loss"], abs=1e-7)


def test_cmd_cnn_eval_confusion_partitions(small_synth, tmp_path):
    harness.cmd_cnn_train(small_synth, reduced=True, epochs=1, seed=4,
                          out_prefix=str(tmp_path / "m"))
    report = harness.cmd_cnn_eval(tmp_path / "m.ckpt", small_synth, out_path=str(tmp_path / "e.json"),
                                  reduced=np.True_)
    assert json.loads((tmp_path / "e.json").read_text())["config"]["reduced"] is True
    assert sum(sum(row) for row in report["confusion"]) == report["n_samples"] == 120
    assert report["per_class_counts"] == {"uninfected": 60, "parasitized": 60}


def test_cmd_cnn_train_keeps_one_copy_of_the_tensors(small_synth, monkeypatch, tmp_path):
    """Once training starts, the decoded tensors live on only as the two splits."""
    live = []

    class Started(Exception):
        pass

    def first_epoch(net, params, *args, **kwargs):
        held = sum(t.nbytes for part in (params.layers, params.adam_m, params.adam_v)
                   for layer in part for t in layer.values())
        live.append(tracemalloc.get_traced_memory()[0] - held)
        raise Started

    monkeypatch.setattr(harness, "train_epoch", first_epoch)
    for _ in range(2):  # the first run also pays for lazy imports (np.unique loads numpy.ma)
        tracemalloc.start()
        try:
            with pytest.raises(Started):
                harness.cmd_cnn_train(small_synth, reduced=True, epochs=1, seed=5,
                                      out_prefix=str(tmp_path / "c"))
        finally:
            tracemalloc.stop()
    tensor_bytes = 120 * 32 * 32 * 3 * 4  # 120 images decoded at the reduced net's 32 px
    assert live[-1] < 1.5 * tensor_bytes, live[-1] / tensor_bytes


def test_cmd_cnn_train_rerun_byte_identical(small_synth, tmp_path):
    """A rerun with numpy scalars for the same values writes the same bytes."""
    harness.cmd_cnn_train(small_synth, reduced=True, epochs=1, batch_size=32, lr=1e-3, seed=11,
                          val_frac=0.2, out_prefix=str(tmp_path / "a"))
    harness.cmd_cnn_train(small_synth, reduced=np.True_, epochs=np.int64(1), batch_size=np.int32(32),
                          lr=np.float64(1e-3), seed=np.uint64(11), val_frac=np.float64(0.2),
                          out_prefix=str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_get_the_mode_open_would_give(small_synth, tmp_path, umask, mode):
    """CSV, JSON and checkpoint files are 0o666 less the umask, like any file open() makes."""
    old = os.umask(umask)
    try:
        harness.cmd_knn(small_synth, "hist", EUCLIDEAN, [3], folds=2, out_prefix=str(tmp_path / "k"))
        harness.cmd_cnn_train(small_synth, reduced=True, epochs=0, out_prefix=str(tmp_path / "c"))
        harness.cmd_cnn_eval(tmp_path / "c.ckpt", small_synth, out_path=str(tmp_path / "e.json"),
                             reduced=True)
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["k.csv", "k.json", "c.csv", "c.ckpt", "e.json"], mode)


# -- cli ---------------------------------------------------------------------------

def test_cli_synth_and_knn(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--n", "40", "--side", "24", "--seed", "5"]) == 0
    assert main(["knn", "--data", str(out), "--features", "hist", "--k", "1,3",
                 "--folds", "2", "--seed", "1", "--out", str(tmp_path / "r")]) == 0
    captured = capsys.readouterr().out
    assert "best k" in captured
    assert (tmp_path / "r.csv").exists() and (tmp_path / "r.json").exists()


@pytest.mark.parametrize("args, given", [
    (["knn", "--data", "D", "--out", "P"],
     {"data_dir": "D", "out_prefix": "P", "metric": "euclidean", "p": None}),
    (["cnn-train", "--data", "D", "--out", "P"], {"data_dir": "D", "out_prefix": "P"}),
    (["cnn-eval", "--checkpoint", "C", "--data", "D", "--out", "P"],
     {"checkpoint": "C", "data_dir": "D", "out_path": "P"}),
    (["synth", "--out", "P", "--n", "8"], {"out_dir": "P", "n": 8}),
], ids=["knn", "cnn-train", "cnn-eval", "synth"])
def test_cli_holds_no_defaults(args, given):
    """A flag left out reaches the harness as a missing keyword, so its default is the
    signature's; knn's metric is built from --metric and --p before the call."""
    assert vars(build_parser().parse_args(args)) == {"command": args[0], **given}


def test_cli_and_library_defaults_agree(small_synth, tmp_path):
    assert main(["knn", "--data", str(small_synth), "--out", str(tmp_path / "cli")]) == 0
    harness.cmd_knn(small_synth, out_prefix=str(tmp_path / "lib"))
    cli, lib = (json.loads((tmp_path / f"{name}.json").read_text()) for name in ("cli", "lib"))
    assert cli["config"] == lib["config"]
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    assert main(["synth", "--out", str(tmp_path / "a"), "--n", "4"]) == 0
    harness.cmd_synth(tmp_path / "b", 4)
    a, b = (tmp_path / name / "manifest.json" for name in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args, features, metric, bins", [
    (["--metric", "manhattan"], "hsv_histogram", "manhattan", 8),
    (["--metric", "hamming"], "hsv_histogram", "hamming", 8),
    (["--metric", "minkowski", "--p", "3"], "hsv_histogram", "minkowski(p=3)", 8),
    (["--features", "raw", "--metric", "manhattan"], "raw_pixel", "manhattan", 8),
    (["--bins", "1"], "hsv_histogram", "euclidean", 1),
    (["--bins", "16", "--metric", "manhattan"], "hsv_histogram", "manhattan", 16),
], ids=["manhattan", "hamming", "minkowski-3", "raw-manhattan", "bins-1", "bins-16-manhattan"])
def test_cli_knn_every_metric_and_bins_bound(small_synth, tmp_path, args, features, metric, bins):
    """Every metric but euclidean takes the per-row search; --bins runs at both of its ends."""
    prefix = tmp_path / "knn"
    assert main(["knn", "--data", str(small_synth), *args, "--k", "1,3", "--folds", "2",
                 "--out", str(prefix)]) == 0
    summary = json.loads(prefix.with_suffix(".json").read_text())
    assert (summary["config"]["features"], summary["config"]["metric"],
            summary["config"]["bins"]) == (features, metric, bins)
    assert [r["k"] for r in summary["results"]] == [1, 3] and summary["n_samples"] == 120


def test_cli_reference_train_then_eval_counts_what_the_curve_implies(tmp_path):
    """The reference net once: a partial last window chunk (40 images) and its 32 MB
    checkpoint streamed back in. cnn-eval over the whole tree must count the correct
    images, and give the mean loss, that the last curve row gives for the two splits."""
    ds = tmp_path / "ds"
    assert main(["synth", "--out", str(ds), "--n", "40", "--side", "32", "--seed", "1"]) == 0
    assert main(["cnn-train", "--data", str(ds), "--epochs", "1",
                 "--out", str(tmp_path / "ref")]) == 0
    assert main(["cnn-eval", "--checkpoint", str(tmp_path / "ref.ckpt"), "--data", str(ds),
                 "--out", str(tmp_path / "eval.json")]) == 0
    rows = [line.split(",") for line in (tmp_path / "ref.csv").read_text().splitlines()
            if not line.startswith("#")]
    last = dict(zip(rows[0], map(float, rows[-1])))
    train, val = train_val_split_indices([item.label for item in load_dataset(ds)], 0.2, 0)
    from_curve = round(last["train_acc"] * train.size) + round(last["val_acc"] * val.size)
    report = json.loads((tmp_path / "eval.json").read_text())
    assert report["n_samples"] == 40
    assert round(report["accuracy"] * report["n_samples"]) == from_curve
    # 1 epoch may leave every image in one class, so the loss tells the weights apart
    loss = (last["train_loss"] * train.size + last["val_loss"] * val.size) / 40
    assert report["loss"] == pytest.approx(loss, abs=1e-6)


def test_cli_exit_code_config_error(tmp_path, capsys):
    """16 images run knn's defaults (k=10, 4 folds), so each case fails on its own fault."""
    out = tmp_path / "ds"
    main(["synth", "--out", str(out), "--n", "16", "--side", "24", "--seed", "0"])
    capsys.readouterr()
    for args in (["knn", "--k", "50", "--folds", "2"],
                 ["knn", "--folds", "1"],
                 ["knn", "--k", "0"],
                 ["cnn-train", "--epochs", "-1"],
                 ["knn", "--k", "1-x"],  # span bound is not an integer
                 ["knn", "--k", "1,10-5"],  # a reversed span, not k=1 alone
                 ["knn", "--k", "1,1"],  # a repeated k would repeat its rows
                 ["knn", "--k", "1-3,2"],
                 ["knn", "--bins", "0"],
                 ["knn", "--bins", "17"],  # 17**3 dims per image, past the 16**3 cap
                 ["knn", "--bins", "1000"],  # would ask for 8 GB per image
                 ["cnn-train", "--reduced", "--batch", "0"],
                 ["cnn-train", "--batch", "1"],  # batch norm cannot train on one sample
                 ["cnn-train", "--reduced", "--batch", "11"],  # 12 training images: a trailing 1
                 ["cnn-train", "--val-frac", "1.5"],
                 ["cnn-train", "--reduced", "--val-frac", "0.01"],  # a degenerate split: no val image
                 ["knn", "--k", "1-1000000000000"],  # over the 2**20-value cap
                 ["knn", "--k", "1,x"],
                 ["knn", "--k", "0-1048575"],  # 2**20 values, one not positive: named, not listed
                 ["cnn-train", "--reduced", "--lr", "nan"],
                 ["cnn-train", "--reduced", "--lr", "0"],
                 ["cnn-train", "--reduced", "--lr", "1e39"],  # finite, but inf in float32
                 ["knn", "--metric", "minkowski", "--p", "nan"],
                 ["knn", "--metric", "minkowski", "--p", "inf"],
                 ["knn", "--metric", "minkowski", "--p", "0.5", "--k", "1"],  # p < 1: not a metric
                 ["knn", "--metric", "euclidean", "--p", "3"],  # not dropped silently
                 ["synth", "--n", "1048577"],  # past the 2**20 cap, before any name is listed
                 # over the decoder's 4096x4096 limit; 100000 would not fit in memory
                 ["synth", "--n", "2", "--side", "4097"],
                 ["synth", "--n", "2", "--side", "5000"],
                 ["synth", "--n", "2", "--side", "100000"],
                 # malformed arguments, rejected by the parser itself
                 ["knn", "--folds", "abc"],
                 ["knn", "--metric", "cosine"],
                 ["synth", "--n", "abc"],
                 # each preset is one network: no rates or checkpoint path to set
                 ["cnn-train", "--dropout", "0.1"],
                 ["cnn-train", "--checkpoint", str(tmp_path / "x.ckpt")],
                 ["cnn-eval", "--checkpoint", str(tmp_path / "x.ckpt"), "--dropout", "0.1"]):
        data = [] if args[0] == "synth" else ["--data", str(out)]
        code = main([*args, *data, "--out", str(tmp_path / "x")])
        assert code == 2, args
        err = capsys.readouterr().err
        assert len(err.encode()) < 200, (args, err[:200])
        assert err.startswith("configuration error") and err.count("\n") == 1, err
        assert not (tmp_path / "x.ckpt").exists(), args
        assert not (tmp_path / "x").exists(), args
    # synth into another run's tree (8 + 8 images) is refused before it writes
    before = sorted(p.name for p in out.rglob("*"))
    assert main(["synth", "--out", str(out), "--n", "10", "--side", "24", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "left over" in err and err.count("\n") == 1
    assert sorted(p.name for p in out.rglob("*")) == before
    assert main(["cnn-train", "--dropout", "0.1", "--data", str(out), "--out", str(tmp_path / "x")]) == 2
    assert "unrecognized arguments: --dropout 0.1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # asking for help is not an error
        main(["knn", "--help"])
    assert exc.value.code == 0


def test_cli_exit_code_data_error(tmp_path, capsys):
    code = main(["knn", "--data", str(tmp_path / "missing"), "--k", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert "data error" in capsys.readouterr().err
    # file-system errors end the same way, with one line and no traceback
    out = tmp_path / "ds"
    main(["synth", "--out", str(out), "--n", "12", "--side", "24", "--seed", "0"])
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    (tmp_path / "taken.csv").mkdir()  # knn's CSV cannot be renamed over a directory
    capsys.readouterr()
    for args in (["cnn-eval", "--checkpoint", str(tmp_path / "nonexistent.ckpt"), "--reduced",
                  "--out", str(tmp_path / "e.json")],
                 ["cnn-eval", "--checkpoint", str(out), "--reduced",
                  "--out", str(tmp_path / "e.json")],
                 ["knn", "--k", "1", "--folds", "2", "--out", str(plain / "x")],
                 ["knn", "--k", "1", "--folds", "2", "--out", str(tmp_path / "taken")],
                 ["cnn-train", "--reduced", "--epochs", "0", "--out", str(plain / "x")],
                 ["synth", "--out", str(plain / "ds"), "--n", "4", "--side", "16"]):
        data = [] if args[0] == "synth" else ["--data", str(out)]
        code = main([*args, *data])
        assert code == 3, args
        err = capsys.readouterr().err
        assert err.startswith("data error") and err.count("\n") == 1, err
    assert list(tmp_path.glob("taken.csv.*")) == []  # the temporary file was removed
    # a tree whose every PNG is cut short: each is skipped, then no image is left
    for path in out.rglob("*.png"):
        path.write_bytes(path.read_bytes()[:100])
    for args in (["knn", "--k", "1", "--folds", "2", "--out", str(tmp_path / "k")],
                 ["cnn-train", "--reduced", "--epochs", "0", "--out", str(tmp_path / "c")]):
        assert main([*args, "--data", str(out)]) == 3, args
        err = capsys.readouterr().err
        assert err == "data error: every image in the dataset failed to decode\n", err


def test_cli_exit_code_integrity_error(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["synth", "--out", str(out), "--n", "12", "--side", "24", "--seed", "0"])
    bad = tmp_path / "bad.ckpt"
    for body, says in ((b"MCLSgarbage" * 10, "unsupported checkpoint version"),
                       (b"MCLS" + bytes(6), "too small (10 bytes)")):
        bad.write_bytes(body)
        code = main(["cnn-eval", "--checkpoint", str(bad), "--data", str(out),
                     "--reduced", "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 4 and err.startswith("integrity error") and says in err, err
        assert err.count("\n") == 1, err
    # Sealed but malformed. Each entry is its name length, name, rank, dims and
    # float32 values; the last is the dense weights, found by its name.
    save_checkpoint(nn.init_params(nn.reduced_network(), 0), nn.reduced_network(), bad)
    good = bad.read_bytes()
    (count,) = struct.unpack("<I", good[16:20])
    name = b"layer15/dense/weights"
    at = good.index(name) - 4  # the entry starts with its name length
    rank_at = at + 4 + len(name)
    last_entry = good[at:-8]
    # the batch-norm beta and gamma entries, adjacent, swapped: each boundary is
    # found by name, since no two adjacent entries have the same byte length
    beta, gamma, after = (good.index(b"layer01/batch_norm/" + key) - 4
                          for key in (b"beta", b"gamma", b"moving_mean"))
    for body, says in (
        (good[:4] + struct.pack("<I", 1) + good[8:], "unsupported checkpoint version 1, expected 2"),
        (good[:rank_at] + struct.pack("<I2Q", 2, 2**32, 2**32) + good[rank_at + 20:],  # 2**64 values
         "expected tensor 'layer15/dense/weights'"),
        (good[:rank_at - 2] + b"\xff" + good[rank_at - 1:], "expected tensor 'layer15/dense/weights'"),
        (good[:16] + struct.pack("<I", count + 1) + good[20:-8] + last_entry + good[-8:],
         f"has {count + 1} tensors, expected {count}"),
        (good[:beta] + good[gamma:after] + good[beta:gamma] + good[after:],
         "expected tensor 'layer01/batch_norm/beta'"),
        (good[:-8] + bytes(3) + good[-8:], "3 trailing bytes after the last tensor"),
    ):
        bad.write_bytes(refix_checksum(body))
        code = main(["cnn-eval", "--checkpoint", str(bad), "--data", str(out),
                     "--reduced", "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 4 and err.startswith("integrity error") and says in err, err
        assert len(err.strip().splitlines()) == 1, err


def test_cli_as_a_process_ends_each_error_with_its_code_and_one_line(tmp_path):
    """`python -m cellgrade.cli` with warnings as errors: the exit code reaches the shell."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "cellgrade.cli", *map(str, args)],
                              env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stderr

    ds = tmp_path / "ds"
    assert run("synth", "--out", ds, "--n", "12", "--side", "24") == (0, "")
    net = nn.reduced_network()
    reduced = tmp_path / "reduced.ckpt"
    save_checkpoint(nn.init_params(net, 0), net, reduced)
    head = tmp_path / "head.ckpt"
    head.write_bytes(reduced.read_bytes()[:1000])
    fifo = tmp_path / "fifo.ckpt"
    os.mkfifo(fifo)  # no process writes to it: opening it to read must not wait for one
    says = {2: "configuration error: ", 3: "data error: ", 4: "integrity error: "}
    for args, code in ((["knn", "--data", ds, "--k", "1,x"], 2),
                       (["knn", "--data", tmp_path / "missing"], 3),
                       (["cnn-eval", "--checkpoint", fifo, "--reduced", "--data", ds], 3),
                       (["cnn-eval", "--checkpoint", head, "--reduced", "--data", ds], 4),
                       # the reduced net's checkpoint read as the reference net
                       (["cnn-eval", "--checkpoint", reduced, "--data", ds], 4)):
        got, err = run(*args, "--out", tmp_path / "x")
        assert got == code and err.startswith(says[code]) and err.count("\n") == 1, (args, got, err)


def test_parse_k_list():
    assert parse_k_list("10") == [10]
    assert parse_k_list("1,5,10") == [1, 5, 10]
    assert parse_k_list("1-4,9") == [1, 2, 3, 4, 9]
    with pytest.raises(ConfigError, match="reversed span '10-5'"):
        parse_k_list("1,10-5")  # not k=1 alone
    for text in ("", ","):  # an empty part is not an integer, so no list comes out empty
        with pytest.raises(ConfigError, match="must be integers"):
            parse_k_list(text)


def test_parse_k_list_caps_values_before_expanding():
    assert len(parse_k_list(f"1-{2**20}")) == 2**20
    with pytest.raises(ConfigError, match="more than 1048576 values"):
        parse_k_list(f"1-{2**20},5")
    tracemalloc.start()
    try:
        for text in ("1-1000000000000", f"1-{10**30}"):
            with pytest.raises(ConfigError, match="more than 1048576 values"):
                parse_k_list(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
