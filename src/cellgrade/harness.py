"""Experiment driver: feature extraction glue, metrics files, checkpoints.

Output conventions
------------------
Text outputs (CSV, JSON) start with a config block so every result is
self-describing: CSV files carry ``# cellgrade-version: ...`` and
``# config: <canonical json>`` comment lines before the mandatory header
row; JSON files embed the same under "version" and "config". Output paths
are not part of the config, so re-running a command with the same inputs
and seed reproduces the payload byte-for-byte. CSV, JSON and checkpoint
files are written atomically (temp file + rename), text with "\\n" newlines.

cmd_knn, cmd_cnn_train and cmd_cnn_eval always write their files, to a
required keyword path, and return their payload. Their signatures hold the
only parameter defaults: the CLI passes just the flags it was given.
cmd_synth is data.synth_generate.

Checkpoint format (version 2, all little-endian)
------------------------------------------------
    magic            4 bytes  "MCLS"
    format version   uint32
    spec digest      uint64   first 8 bytes of SHA-256 over the network's
                              canonical JSON description
    tensor count     uint32
    per tensor:
        name length  uint32
        name         UTF-8 bytes
        rank         uint32
        dims         uint64 each
        values       float32 raw (rank 0 means a single scalar)
    checksum         uint64   first 8 bytes of SHA-256 over all preceding bytes

The tensors are what evaluation reads, one per tensor of param_shapes(net):
the weights and batch-norm moving statistics, each named "layer<i, two
digits>/<kind>/<key>", layer by layer and each layer's by sorted key. No Adam
moment, step counter or PRNG state is stored, so nothing resumes training from
a checkpoint. Loading refuses anything but a regular file, then verifies
magic, version, checksum, and spec digest, in that order, with a distinct
message for each. It then reads the file against the network's own layout:
the tensor count, and every entry's name, rank and dims, must be exactly the
expected ones, so no size is taken from the file. The file is streamed:
loading allocates the tensors and fixed-size read buffers, never a copy of
the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import stat
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .data import (DatasetItem, as_integer, check_val_fraction, load_dataset, permute_rows,
                   synth_generate, train_val_split_indices)
from .errors import ConfigError, DataError, IntegrityError
from .imaging import (DEFAULT_BINS, MAX_BINS, decode_image, extract_histogram_features,
                      extract_raw_features, image_to_tensor)
from .knn import DistanceMetric, check_sweep, k_sweep
from .nn import (
    NetworkSpec,
    ParamState,
    check_batch_size,
    evaluate,
    init_params,
    param_shapes,
    reduced_network,
    reference_network,
    train_epoch,
)
from .prng import SeededPrng

CHECKPOINT_MAGIC = b"MCLS"
CHECKPOINT_VERSION = 2
_READ_BLOCK = 1 << 20  # bytes per read while a checkpoint's checksum is computed

KNN_CSV_HEADER = "feature,metric,k,fold,accuracy"
CNN_CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"


def _config_block(config: dict, extra: dict | None = None) -> list[str]:
    """Comment lines for a config: the command plus every parameter that influences the result."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    lines = [f"# cellgrade-version: {__version__}", f"# config: {canonical}"]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def _atomic_write(path, chunks) -> None:
    """Write the byte chunks to a temporary file, then rename it over path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # 0o666 less the umask, as open() gives; tempfile.mkstemp would force 0o600
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, config, header: str, rows, extra=None) -> None:
    lines = _config_block(config, extra) + [header] + [",".join(str(v) for v in row) for row in rows]
    _atomic_write(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _write_json(path, payload: dict) -> None:
    _atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")])


# --------------------------------------------------------------------------
# Dataset -> arrays
# --------------------------------------------------------------------------

def _decode_each(dataset: tuple[DatasetItem, ...], convert):
    """(convert(image) rows, labels, skipped) over the decodable images.

    Unreadable or malformed files are skipped and reported, not fatal. Rows go
    straight into one array, allocated when the first image converts with one
    row per file not yet skipped; the filled rows are returned as a view of it,
    and the rows left for files skipped later are never written.
    """
    rows, labels, skipped = None, [], []
    for item in dataset:
        try:
            img = decode_image(item.source.read_bytes())
        except (DataError, OSError) as exc:
            skipped.append({"id": item.sample_id, "reason": str(exc)})
            continue
        row = convert(img)
        if rows is None:
            n = len(dataset) - len(skipped)
            try:
                rows = np.empty((n, *row.shape), row.dtype)
            except MemoryError:
                raise DataError(f"no memory for {n} images of {row.nbytes} bytes each") from None
        rows[len(labels)] = row
        labels.append(item.label)
    if rows is None:
        raise DataError("every image in the dataset failed to decode")
    return rows[: len(labels)], np.array(labels, dtype=np.int64), skipped


def extract_feature_matrix(dataset: tuple[DatasetItem, ...], kind: str, bins: int = DEFAULT_BINS):
    """(features, labels, skipped) for every decodable image in the dataset."""
    if kind == "raw_pixel":
        return _decode_each(dataset, extract_raw_features)
    if kind == "hsv_histogram":
        return _decode_each(dataset, lambda img: extract_histogram_features(img, bins))
    raise ConfigError(f"unknown feature kind {kind!r}")


def load_tensor_batch(dataset: tuple[DatasetItem, ...], side: int):
    """(tensors [N, side, side, 3] float32, labels, skipped) for the CNN path."""
    return _decode_each(dataset, lambda img: image_to_tensor(img, side).astype(np.float32))


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def spec_digest(net: NetworkSpec) -> int:
    raw = hashlib.sha256(net.canonical_json().encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "little")


def _layout(net: NetworkSpec):
    """(name, layer index, key, shape) of every tensor, in file order."""
    for i, (lay, shapes) in enumerate(zip(net.layers, param_shapes(net))):
        for key in sorted(shapes):
            yield f"layer{i:02d}/{lay.kind}/{key}", i, key, shapes[key]


def _entry_header(name: str, shape) -> bytes:
    """A tensor entry's name length, name, rank and dims."""
    raw = name.encode("utf-8")
    return struct.pack(f"<I{len(raw)}sI{len(shape)}Q", len(raw), raw, len(shape), *shape)


def save_checkpoint(params: ParamState, net: NetworkSpec, path) -> None:
    """Serialize the weights and batch-norm statistics, not Adam's state; bit-exact round trip.

    The format stores float32 only, so a state holding any other dtype is
    refused with a ConfigError before a file is opened, not rounded. The file
    is hashed and written tensor by tensor: each chunk is a header's bytes or
    a view of a tensor's own buffer, so no copy of the payload is made.
    """
    layout = list(_layout(net))
    chunks = [CHECKPOINT_MAGIC, struct.pack("<IQI", CHECKPOINT_VERSION, spec_digest(net), len(layout))]
    for name, i, key, _ in layout:
        arr = np.asarray(params.layers[i][key])
        if arr.dtype.type is not np.float32:  # raised before _atomic_write opens a file
            raise ConfigError(f"tensor {name!r} is {arr.dtype}; checkpoints store float32 states only")
        # a view when the tensor is C-contiguous and little-endian, as Adam keeps it
        arr = np.ascontiguousarray(arr, dtype="<f4")
        # its own shape: a mismatch fails to load
        chunks += [_entry_header(name, arr.shape), memoryview(arr).cast("B")]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    chunks.append(struct.pack("<Q", int.from_bytes(digest.digest()[:8], "little")))
    _atomic_write(path, chunks)


def load_checkpoint(path, net: NetworkSpec) -> tuple[ParamState, int]:
    """A ParamState for `net` that evaluates: the file's tensors, no Adam moments, step 0.

    The file is read against `net`'s own layout. One pass reads each entry the
    layout expects straight into its tensor, hashing what it keeps, then hashes
    the rest in _READ_BLOCK reads; the checks follow in their documented order.
    So the tensors are the bytes the checksum covered, and the file is never
    held whole.
    """
    layout = list(_layout(net))
    # O_NONBLOCK: a FIFO opens without waiting for a writer, and is then refused
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise DataError(f"checkpoint {path} is not a regular file")
        end = info.st_size - 8  # the payload: all but the checksum
        if end < 20:
            raise IntegrityError(f"checkpoint too small ({end + 8} bytes) to be valid")
        head = f.read(20)  # magic, version, spec digest and tensor count
        if head[:4] != CHECKPOINT_MAGIC:
            raise IntegrityError(f"bad magic {head[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
        version, digest, count = struct.unpack("<IQI", head[4:])
        if version != CHECKPOINT_VERSION:
            raise IntegrityError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        hashed, tensors, misplaced = hashlib.sha256(head), [], None
        for name, *_, shape in layout:
            header, arr, pos = _entry_header(name, shape), np.empty(shape, "<f4"), f.tell()
            values = memoryview(arr.reshape(-1)).cast("B")
            hashed.update(got := f.read(min(len(header), end - pos)))
            if got != header or pos + len(header) + values.nbytes > end:
                misplaced = f"expected tensor {name!r} of shape {shape} at offset {pos}"
                break
            f.readinto(values)  # a short read leaves bytes the checksum then rejects
            hashed.update(values)
            tensors.append(arr.astype(np.float32, copy=False))  # native byte order on any host
        last = f.tell()
        for lo in range(last, end, _READ_BLOCK):
            hashed.update(f.read(min(_READ_BLOCK, end - lo)))
        stored = int.from_bytes(f.read(8), "little")
    actual = int.from_bytes(hashed.digest()[:8], "little")
    if stored != actual:
        raise IntegrityError(f"payload checksum mismatch: stored {stored:#x}, computed {actual:#x}")
    expected = spec_digest(net)
    if digest != expected:
        raise IntegrityError(f"spec digest mismatch: checkpoint has {digest:#x}, network is {expected:#x}")
    if count != len(layout):
        raise IntegrityError(f"checkpoint has {count} tensors, expected {len(layout)}")
    if misplaced:
        raise IntegrityError(misplaced)
    if last != end:
        raise IntegrityError(f"{end - last} trailing bytes after the last tensor")
    layers = [{} for _ in net.layers]
    for (_, i, key, _), arr in zip(layout, tensors):
        layers[i][key] = arr
    return ParamState(layers, [{} for _ in layers], [{} for _ in layers]), digest


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

FEATURE_KINDS = {"raw": "raw_pixel", "hist": "hsv_histogram"}


def cmd_knn(data_dir, features: str = "hist", metric: DistanceMetric = DistanceMetric("euclidean"),
            k_values=(10,), folds: int = 4, seed: int = 0, bins: int = DEFAULT_BINS, *,
            out_prefix) -> dict:
    """Cross-validated kNN over the chosen features; writes PREFIX.csv and PREFIX.json."""
    kind = FEATURE_KINDS.get(features, features)
    folds, seed, bins = as_integer("folds", folds), as_integer("seed", seed), as_integer("bins", bins)
    if not 1 <= bins <= MAX_BINS:
        raise ConfigError(f"bins must be 1 to {MAX_BINS}, got {bins}")
    k_values = check_sweep(k_values, folds)  # before the decode, which takes far longer
    dataset = load_dataset(data_dir)
    x, y, skipped = extract_feature_matrix(dataset, kind, bins)
    reports = k_sweep(x, y, k_values, folds, metric, seed)
    config = {
        "command": "knn", "data": str(data_dir), "features": kind, "bins": bins,
        "metric": metric.label, "k": k_values, "folds": folds, "seed": seed,
    }
    rows = [
        (kind, metric.label, rep.k, fold, repr(float(acc)))
        for rep in reports
        for fold, acc in enumerate(rep.accuracies)
    ]
    means = {rep.k: rep.mean for rep in reports}
    best_k = max(means, key=lambda k: (means[k], -k))
    summary = {
        "version": __version__,
        "config": config,
        "fold_hash": reports[0].fold_hash,
        "n_samples": int(y.size),
        "skipped": skipped,
        "results": [
            {"k": rep.k, "mean_accuracy": rep.mean, "fold_accuracies": list(rep.accuracies)}
            for rep in reports
        ],
        "best_k": int(best_k),
        "best_mean_accuracy": means[best_k],
    }
    extra = {"fold_hash": reports[0].fold_hash, "skipped": len(skipped)}
    _write_csv(f"{out_prefix}.csv", config, KNN_CSV_HEADER, rows, extra)
    _write_json(f"{out_prefix}.json", summary)
    return summary


def cmd_cnn_train(data_dir, reduced: bool = False, epochs: int = 10, batch_size: int = 32,
                  lr: float = 1e-3, seed: int = 0, val_frac: float = 0.2, *,
                  out_prefix, progress=None) -> dict:
    """Train the CNN from scratch; writes PREFIX.csv (per-epoch curve) and PREFIX.ckpt.

    The CSV's train/val metrics are eval-mode passes over each split at the
    end of the epoch, so a later cmd_cnn_eval over the same split reproduces
    them exactly. The checkpoint is rewritten after every epoch.
    """
    epochs, batch_size = as_integer("epochs", epochs), as_integer("batch_size", batch_size)
    seed, reduced, lr, val_frac = as_integer("seed", seed), bool(reduced), float(lr), float(val_frac)
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    with np.errstate(over="ignore"):
        lr32 = np.float32(lr)  # the parameters' dtype, to which Adam rounds its step size
    if not (np.isfinite(lr32) and lr32 > 0):
        raise ConfigError(f"lr must be a finite float32 number > 0, got {lr}")
    net = reduced_network() if reduced else reference_network()
    check_batch_size(net, batch_size)  # what needs no data, checked before the decode
    check_val_fraction(val_frac)
    side = net.input_shape[0]
    dataset = load_dataset(data_dir)
    x, y, skipped = load_tensor_batch(dataset, side)
    train_idx, val_idx = train_val_split_indices(y, val_frac, seed)
    permute_rows(x, np.concatenate([train_idx, val_idx]))  # both splits are views of the one array
    x_train, y_train = x[: train_idx.size], y[train_idx]
    x_val, y_val = x[train_idx.size :], y[val_idx]
    check_batch_size(net, batch_size, y_train.size)

    master = SeededPrng(seed)
    params = init_params(net, master.next_u64(), dtype=np.float32)  # the seed master.split() draws
    train_rng = master.split()

    config = {
        "command": "cnn-train", "data": str(data_dir), "reduced": reduced, "epochs": epochs,
        "batch": batch_size, "lr": lr, "seed": seed, "val_frac": val_frac,
        "dropout": [lay.rate for lay in net.layers if lay.kind == "dropout"],
        "input_side": side,
    }
    curve = []
    ckpt = f"{out_prefix}.ckpt"
    save_checkpoint(params, net, ckpt)
    for epoch in range(epochs):
        train_epoch(net, params, x_train, y_train, batch_size, train_rng, lr=lr)
        train_loss, train_acc, _ = evaluate(net, params, x_train, y_train)
        val_loss, val_acc, _ = evaluate(net, params, x_val, y_val)
        record = {"epoch": epoch, "train_loss": train_loss, "train_acc": train_acc,
                  "val_loss": val_loss, "val_acc": val_acc}
        curve.append(record)
        if progress is not None:
            progress(record)
        save_checkpoint(params, net, ckpt)
    metrics = CNN_CSV_HEADER.split(",")[1:]
    rows = [[rec["epoch"], *(repr(float(rec[k])) for k in metrics)] for rec in curve]
    _write_csv(f"{out_prefix}.csv", config, CNN_CSV_HEADER, rows, {"skipped": len(skipped)})
    return {
        "version": __version__,
        "config": config,
        "curve": curve,
        "skipped": skipped,
        "checkpoint": ckpt,
        "train_size": int(y_train.size),
        "val_size": int(y_val.size),
    }


def cmd_cnn_eval(checkpoint, data_dir, *, out_path, reduced: bool = False) -> dict:
    """Eval-mode accuracy and confusion counts for a checkpoint over a dataset; writes out_path."""
    reduced = bool(reduced)
    net = reduced_network() if reduced else reference_network()
    params, digest = load_checkpoint(checkpoint, net)
    dataset = load_dataset(data_dir)
    x, y, skipped = load_tensor_batch(dataset, net.input_shape[0])
    loss, acc, preds = evaluate(net, params, x, y)
    confusion = [[int(np.sum((y == t) & (preds == p))) for p in (0, 1)] for t in (0, 1)]
    config = {"command": "cnn-eval", "checkpoint": str(checkpoint),
              "data": str(data_dir), "reduced": reduced}
    report = {
        "version": __version__,
        "config": config,
        "spec_digest": f"{digest:#x}",
        "accuracy": acc,
        "loss": loss,
        "confusion": confusion,  # rows: true class 0/1; columns: predicted 0/1
        "per_class_counts": {"uninfected": int(np.sum(y == 0)), "parasitized": int(np.sum(y == 1))},
        "n_samples": int(y.size),
        "skipped": skipped,
    }
    _write_json(out_path, report)
    return report


cmd_synth = synth_generate
