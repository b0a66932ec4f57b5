"""Experiment driver: feature extraction glue, metrics files, checkpoints.

Output conventions
------------------
Text outputs (CSV, JSON) start with a config block so every result is
self-describing: CSV files carry ``# cellgrade-version: ...`` and
``# config: <canonical json>`` comment lines before the mandatory header
row; JSON files embed the same under "version" and "config". Output paths
are not part of the config, so re-running a command with the same inputs
and seed reproduces the payload byte-for-byte. All files are written
atomically (temp file + rename) with "\\n" newlines.

Checkpoint format (version 1, all little-endian)
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

The tensors are the weights and batch-norm moving statistics, the Adam
moments as "<name>.m"/"<name>.v" and the step counter as a rank-0 tensor
"step". No PRNG state is stored and nothing resumes training from a
checkpoint. Loading verifies magic, version, checksum, and spec digest, in
that order, and fails with a distinct message for each.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .data import DatasetItem, load_dataset, synth_generate, train_val_split_indices
from .errors import ConfigError, DataError, IntegrityError
from .imaging import decode_image, extract_histogram_features, extract_raw_features, image_to_tensor
from .knn import DistanceMetric, k_sweep
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
CHECKPOINT_VERSION = 1

KNN_CSV_HEADER = "feature,metric,k,fold,accuracy"
CNN_CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"


def _config_block(config: dict, extra: dict | None = None) -> list[str]:
    """Comment lines for a config: the command plus every parameter that influences the result."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    lines = [f"# cellgrade-version: {__version__}", f"# config: {canonical}"]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def _atomic_write(path, data: bytes | bytearray) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # 0o666 less the umask, as open() gives; tempfile.mkstemp would force 0o600
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, config, header: str, rows, extra=None) -> None:
    lines = _config_block(config, extra) + [header] + [",".join(str(v) for v in row) for row in rows]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write_json(path, payload: dict) -> None:
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


# --------------------------------------------------------------------------
# Dataset -> arrays
# --------------------------------------------------------------------------

def _decode_each(dataset: tuple[DatasetItem, ...], convert):
    """(stacked convert(image) rows, labels, skipped) over the decodable images.

    Unreadable or malformed files are skipped and reported, not fatal.
    """
    rows, labels, skipped = [], [], []
    for item in dataset:
        try:
            img = decode_image(item.source.read_bytes())
        except (DataError, OSError) as exc:
            skipped.append({"id": item.sample_id, "reason": str(exc)})
            continue
        rows.append(convert(img))
        labels.append(item.label)
    if not rows:
        raise DataError("every image in the dataset failed to decode")
    return np.stack(rows), np.array(labels, dtype=np.int64), skipped


def extract_feature_matrix(dataset: tuple[DatasetItem, ...], kind: str, bins: int = 8):
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


def _tensor_entries(params: ParamState, net: NetworkSpec):
    entries = []
    for i, lay in enumerate(net.layers):
        base = f"layer{i:02d}/{lay.kind}"
        for key in sorted(params.layers[i]):
            entries.append((f"{base}/{key}", params.layers[i][key]))
        for key in sorted(params.adam_m[i]):
            entries.append((f"{base}/{key}.m", params.adam_m[i][key]))
            entries.append((f"{base}/{key}.v", params.adam_v[i][key]))
    entries.append(("step", np.array(float(params.step), dtype=np.float32)))
    return entries


def save_checkpoint(params: ParamState, net: NetworkSpec, path) -> None:
    """Serialize weights, Adam moments, and step; bit-exact round trip."""
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<Q", spec_digest(net))
    entries = _tensor_entries(params, net)
    out += struct.pack("<I", len(entries))
    for name, tensor in entries:
        name_bytes = name.encode("utf-8")
        arr = np.asarray(tensor, dtype=np.float32)  # ascontiguousarray would promote rank 0 to rank 1
        out += struct.pack("<I", len(name_bytes))
        out += name_bytes
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        out += arr.astype("<f4").tobytes()
    out += struct.pack("<Q", int.from_bytes(hashlib.sha256(out).digest()[:8], "little"))
    _atomic_write(path, out)


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.data):
            raise IntegrityError(f"checkpoint truncated while reading {what} at offset {self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


def read_checkpoint_tensors(path) -> tuple[dict[str, np.ndarray], int]:
    """Raw (tensors, spec digest) with magic/version/checksum verification."""
    data = Path(path).read_bytes()
    if len(data) < 28:
        raise IntegrityError(f"checkpoint too small ({len(data)} bytes) to be valid")
    if data[:4] != CHECKPOINT_MAGIC:
        raise IntegrityError(f"bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", data[4:8])
    if version != CHECKPOINT_VERSION:
        raise IntegrityError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    stored = struct.unpack("<Q", data[-8:])[0]
    payload = memoryview(data)[:-8]  # read in place: no copy of the payload
    actual = int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
    if stored != actual:
        raise IntegrityError(f"payload checksum mismatch: stored {stored:#x}, computed {actual:#x}")

    r = _Reader(payload)
    r.pos = 8
    (digest,) = struct.unpack("<Q", r.take(8, "spec digest"))
    (count,) = struct.unpack("<I", r.take(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", r.take(4, "name length"))
        try:
            name = str(r.take(name_len, "tensor name"), "utf-8")
        except UnicodeDecodeError:
            raise IntegrityError(f"tensor name at offset {r.pos - name_len} is not UTF-8") from None
        if name in tensors:
            raise IntegrityError(f"tensor {name!r} appears twice")
        (rank,) = struct.unpack("<I", r.take(4, "rank"))
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank, "dims"))
        size = math.prod(dims)  # exact, where np.prod wraps at 2**64; 1 for rank 0
        values = np.frombuffer(r.take(4 * size, f"values of {name!r}"), dtype="<f4")
        tensors[name] = values.reshape(dims).astype(np.float32)  # a writable copy: Adam updates it
    if r.pos != len(r.data):
        raise IntegrityError(f"{len(r.data) - r.pos} trailing bytes after the last tensor")
    return tensors, digest


def load_checkpoint(path, net: NetworkSpec) -> tuple[ParamState, int]:
    """Rebuild a ParamState for `net`, verifying the stored spec digest."""
    tensors, digest = read_checkpoint_tensors(path)
    expected = spec_digest(net)
    if digest != expected:
        raise IntegrityError(
            f"spec digest mismatch: checkpoint has {digest:#x}, network is {expected:#x}"
        )
    shapes = param_shapes(net)
    layers, adam_m, adam_v = [], [], []
    remaining = dict(tensors)

    def claim(name: str, shape) -> np.ndarray:
        if name not in remaining:
            raise IntegrityError(f"checkpoint is missing tensor {name!r}")
        arr = remaining.pop(name)
        if arr.shape != tuple(shape):
            raise IntegrityError(f"tensor {name!r} has shape {arr.shape}, expected {tuple(shape)}")
        return arr

    for i, lay in enumerate(net.layers):
        base = f"layer{i:02d}/{lay.kind}"
        layers.append({k: claim(f"{base}/{k}", s) for k, s in shapes[i].items()})
        adam_m.append({k: claim(f"{base}/{k}.m", shapes[i][k]) for k in lay.trainable})
        adam_v.append({k: claim(f"{base}/{k}.v", shapes[i][k]) for k in lay.trainable})
    step = float(claim("step", ()))
    if not (step >= 0 and step.is_integer()):  # NaN and infinities fail too
        raise IntegrityError(f"step must be a non-negative integer, got {step}")
    if remaining:
        raise IntegrityError(f"checkpoint has unexpected tensors: {sorted(remaining)}")
    return ParamState(layers, adam_m, adam_v, step=int(step)), digest


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

_FEATURE_KINDS = {"raw": "raw_pixel", "hist": "hsv_histogram"}
# Histogram features have bins**3 float64 dims: 16 gives 4096, the order of the
# 3072-dim raw vector, while 100 would make a 600-image feature matrix 4.8 GB.
_MAX_BINS = 16


def cmd_knn(data_dir, features: str = "hist", metric: DistanceMetric = DistanceMetric("euclidean"),
            k_values=(10,), folds: int = 4, seed: int = 0, bins: int = 8,
            out_prefix=None) -> dict:
    """Cross-validated kNN over the chosen features; writes CSV + JSON summary."""
    kind = _FEATURE_KINDS.get(features, features)
    if not 1 <= bins <= _MAX_BINS:
        raise ConfigError(f"bins must be 1 to {_MAX_BINS}, got {bins}")
    dataset = load_dataset(data_dir)
    x, y, skipped = extract_feature_matrix(dataset, kind, bins)
    reports = k_sweep(x, y, list(k_values), folds, metric, seed)
    config = {
        "command": "knn", "data": str(data_dir), "features": kind, "bins": bins,
        "metric": metric.label, "k": list(int(k) for k in k_values), "folds": folds, "seed": seed,
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
    if out_prefix is not None:
        extra = {"fold_hash": reports[0].fold_hash, "skipped": len(skipped)}
        _write_csv(f"{out_prefix}.csv", config, KNN_CSV_HEADER, rows, extra)
        _write_json(f"{out_prefix}.json", summary)
    return summary


def build_network(reduced: bool, dropout_rates=None) -> NetworkSpec:
    builder = reduced_network if reduced else reference_network
    if not dropout_rates:
        return builder()
    expected = sum(lay.kind == "dropout" for lay in builder().layers)
    if len(dropout_rates) != expected:
        raise ConfigError(f"{builder.__name__} takes {expected} dropout rates, got {len(dropout_rates)}")
    return builder(tuple(dropout_rates))


def cmd_cnn_train(data_dir, reduced: bool = False, epochs: int = 10, batch_size: int = 32,
                  lr: float = 1e-3, seed: int = 0, val_frac: float = 0.2,
                  dropout_rates=None, checkpoint_path=None, out_prefix=None,
                  progress=None) -> dict:
    """Train the CNN from scratch; writes per-epoch curve CSV and a checkpoint.

    The CSV's train/val metrics are eval-mode passes over each split at the
    end of the epoch, so a later cmd_cnn_eval over the same split reproduces
    them exactly. A checkpoint is rewritten after every epoch.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    with np.errstate(over="ignore"):
        lr32 = np.float32(lr)  # the parameters' dtype, in which Adam applies lr
    if not (np.isfinite(lr32) and lr32 > 0):
        raise ConfigError(f"lr must be a finite float32 number > 0, got {lr}")
    net = build_network(reduced, dropout_rates)
    side = net.input_shape[0]
    dataset = load_dataset(data_dir)
    x, y, skipped = load_tensor_batch(dataset, side)
    train_idx, val_idx = train_val_split_indices(y, val_frac, seed)
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    del x  # the splits are copies: keep one set of tensors alive, not two
    check_batch_size(net, y_train.size, batch_size)

    master = SeededPrng(seed)
    params = init_params(net, master.split(), dtype=np.float32)
    train_rng = master.split()

    config = {
        "command": "cnn-train", "data": str(data_dir), "reduced": reduced, "epochs": epochs,
        "batch": batch_size, "lr": lr, "seed": seed, "val_frac": val_frac,
        "dropout": [lay.rate for lay in net.layers if lay.kind == "dropout"],
        "input_side": side,
    }
    rows, curve = [], []
    if checkpoint_path is None and out_prefix is not None:
        checkpoint_path = f"{out_prefix}.ckpt"
    if checkpoint_path is not None:
        save_checkpoint(params, net, checkpoint_path)
    for epoch in range(epochs):
        train_epoch(net, params, x_train, y_train, batch_size, train_rng, lr=lr)
        train_loss, train_acc, _ = evaluate(net, params, x_train, y_train)
        val_loss, val_acc, _ = evaluate(net, params, x_val, y_val)
        record = {"epoch": epoch, "train_loss": train_loss, "train_acc": train_acc,
                  "val_loss": val_loss, "val_acc": val_acc}
        curve.append(record)
        if progress is not None:
            progress(record)
        rows.append((epoch, repr(float(train_loss)), repr(float(train_acc)),
                     repr(float(val_loss)), repr(float(val_acc))))
        if checkpoint_path is not None:
            save_checkpoint(params, net, checkpoint_path)
    if out_prefix is not None:
        _write_csv(f"{out_prefix}.csv", config, CNN_CSV_HEADER, rows,
                   {"skipped": len(skipped)})
    return {
        "version": __version__,
        "config": config,
        "curve": curve,
        "skipped": skipped,
        "checkpoint": str(checkpoint_path) if checkpoint_path is not None else None,
        "train_size": int(y_train.size),
        "val_size": int(y_val.size),
    }


def cmd_cnn_eval(checkpoint_path, data_dir, out_path=None, reduced: bool = False,
                 dropout_rates=None) -> dict:
    """Eval-mode accuracy and confusion counts for a checkpoint over a dataset."""
    net = build_network(reduced, dropout_rates)
    params, digest = load_checkpoint(checkpoint_path, net)
    dataset = load_dataset(data_dir)
    x, y, skipped = load_tensor_batch(dataset, net.input_shape[0])
    loss, acc, preds = evaluate(net, params, x, y)
    confusion = [[int(np.sum((y == t) & (preds == p))) for p in (0, 1)] for t in (0, 1)]
    config = {"command": "cnn-eval", "checkpoint": str(checkpoint_path),
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
    if out_path is not None:
        _write_json(out_path, report)
    return report


def cmd_synth(out_dir, n: int, fraction: float = 0.5, side: int = 64, seed: int = 0) -> dict:
    """Generate the synthetic dataset (delegates to data.synth_generate)."""
    return synth_generate(out_dir, n, fraction, side, seed)
