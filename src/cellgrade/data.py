"""Dataset ingestion, deterministic splits, in-place row moves, and a synthetic cell generator.

The on-disk layout matches the public malaria corpus: a root directory with
``Parasitized/`` and ``Uninfected/`` subdirectories of PNG files. Label 0 is
uninfected, label 1 parasitized. Enumeration order is purely lexicographic
so a dataset lists identically on every platform.

The synthetic generator writes the same layout at desk scale: pink elliptical
cells on a dark background, with small purple inclusions inside parasitized
cells. The class signal lives mostly in color, so histogram features beat raw
pixels on it just as they do on the real corpus.

Within the package it imports only ``errors``, ``png`` and ``prng``.
"""

from __future__ import annotations

import colorsys
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import png
from .errors import ConfigError, DataError
from .prng import SeededPrng

GENERATOR_VERSION = 1
MAX_IMAGES = 2**20  # 38x the 27,558-image NIH corpus; cli caps --k values with it too


@dataclass(frozen=True)
class DatasetItem:
    sample_id: str
    source: Path
    label: int


_CLASS_DIRS = (("Parasitized", 1), ("Uninfected", 0))


def _png_names(class_dir: Path) -> list[str]:
    # a dangling link is listed, so its failed read is reported; a FIFO is not (its read blocks)
    return [p.name for p in class_dir.iterdir()
            if p.suffix.lower() == ".png" and (p.is_file() or not p.exists())]


def load_dataset(root) -> tuple[DatasetItem, ...]:
    """Parasitized/Uninfected items sorted lexicographically by id, the root-relative path."""
    root = Path(root)
    items = []
    for sub, label in _CLASS_DIRS:
        class_dir = root / sub
        if not class_dir.is_dir():
            raise DataError(f"missing class directory {class_dir}")
        items.extend(DatasetItem(f"{sub}/{n}", class_dir / n, label) for n in _png_names(class_dir))
    if not items:
        raise DataError(f"no PNG files found under {root}")
    return tuple(sorted(items, key=lambda it: it.sample_id))


def _shuffled_classes(labels: np.ndarray, seed: int):
    """Yield (class, its indices under one seeded permutation), classes ascending."""
    rng = SeededPrng(seed)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        yield cls, members[rng.permutation(members.size)]


def stratified_fold_indices(labels, folds: int, seed: int) -> np.ndarray:
    """Per-class seeded shuffle, then round-robin fold assignment.

    Within each class the fold sizes differ by at most one.
    """
    labels = np.asarray(labels)
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    assignment = np.empty(labels.shape[0], dtype=np.int64)
    for cls, shuffled in _shuffled_classes(labels, seed):
        if shuffled.size < folds:
            raise ConfigError(
                f"class {int(cls)} has {shuffled.size} samples, fewer than folds={folds}"
            )
        assignment[shuffled] = np.arange(shuffled.size) % folds
    return assignment


def fold_assignment_hash(assignment: np.ndarray, folds: int, seed: int) -> str:
    h = hashlib.sha256()
    h.update(f"folds={folds},seed={seed}:".encode())
    h.update(np.ascontiguousarray(assignment, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def check_val_fraction(val_fraction: float) -> None:
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")


def train_val_split_indices(labels, val_fraction: float, seed: int):
    """Stratified index split; returns (train_idx, val_idx), each sorted."""
    check_val_fraction(val_fraction)
    val_parts, train_parts = [], []
    for _, shuffled in _shuffled_classes(np.asarray(labels), seed):
        n_val = int(np.floor(shuffled.size * val_fraction + 0.5))
        val_parts.append(shuffled[:n_val])
        train_parts.append(shuffled[n_val:])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))
    if train_idx.size == 0 or val_idx.size == 0:
        raise ConfigError(
            f"degenerate split: {train_idx.size} train / {val_idx.size} val samples"
        )
    return train_idx, val_idx


def move_rows_last(x: np.ndarray, rows) -> int:
    """Move the rows `rows` (ascending) of x behind the others, in place; returns
    front, the first moved row's new index. Each group keeps its order, so x[:front] is
    the old x[others] and x[front:] the old x[rows]. Only the moved rows are
    copied: the others shift by pieces no longer than their shift, so no piece
    overlaps its destination and numpy needs no buffer. move_rows_back undoes it."""
    rows = np.asarray(rows, dtype=np.intp)
    moved = x[rows]
    ends = np.append(rows, x.shape[0])
    for shift in range(1, rows.size + 1):
        lo, hi = ends[shift - 1] + 1, ends[shift]
        for a in range(lo, hi, shift):
            b = min(a + shift, hi)
            x[a - shift : b - shift] = x[a:b]
    front = x.shape[0] - rows.size
    x[front:] = moved
    return front


def move_rows_back(x: np.ndarray, rows) -> None:
    """Undo move_rows_last(x, rows) in place, copying only the moved rows."""
    rows = np.asarray(rows, dtype=np.intp)
    front = x.shape[0] - rows.size
    moved = x[front:].copy()
    ends = np.append(rows, x.shape[0])
    for shift in range(rows.size, 0, -1):
        lo, hi = ends[shift - 1] + 1, ends[shift]
        for b in range(hi, lo, -shift):
            a = max(b - shift, lo)
            x[a:b] = x[a - shift : b - shift]
    x[rows] = moved


# --------------------------------------------------------------------------
# Synthetic generator
# --------------------------------------------------------------------------

# Shape/color ranges, in HSV fractions. The cell tone band is narrow so
# same-class images are close in histogram space; compact purple inclusions
# mark parasitized cells. Thin stain streaks appear in both classes with a
# color band overlapping the parasite band, so color alone stays imperfect
# while blob shape remains learnable.
SYNTH_PARAMS = {
    "background_value": (0.03, 0.07),
    "cell_center_jitter": 0.16,
    "cell_radius": (0.30, 0.40),
    "cell_aspect": (0.70, 1.00),
    "cell_hue": (0.91, 0.985),
    "cell_sat": (0.30, 0.38),
    "cell_val": (0.76, 0.88),
    "cell_shading": 0.25,  # radial darkening toward the rim
    "parasite_count": (2, 3),
    "parasite_radius": (0.06, 0.11),
    "parasite_hue": (0.70, 0.82),
    "parasite_sat": (0.50, 0.75),
    "parasite_val": (0.52, 0.68),
    "artifact_prob": 0.50,
    "artifact_count": (1, 2),
    "artifact_len": (0.14, 0.22),
    "artifact_width": (0.015, 0.028),
    "artifact_hue": (0.60, 0.90),
    "artifact_sat": (0.40, 0.70),
    "artifact_val": (0.45, 0.70),
    "luminance_noise": 0.04,
    "chroma_noise": 0.01,
}


def _ellipse_rho(xx, yy, cx, cy, a, b, theta):
    ct, st = np.cos(theta), np.sin(theta)
    xr = (xx - cx) * ct + (yy - cy) * st
    yr = -(xx - cx) * st + (yy - cy) * ct
    return (xr / a) ** 2 + (yr / b) ** 2


def _span(rng: SeededPrng, key: str) -> float:
    """One uniform draw from SYNTH_PARAMS[key]'s [lo, hi) range."""
    lo, hi = SYNTH_PARAMS[key]
    return lo + rng.uniform() * (hi - lo)


def _hsv_color(rng: SeededPrng, prefix: str) -> np.ndarray:
    h, s, v = (_span(rng, f"{prefix}_{key}") for key in ("hue", "sat", "val"))
    return np.array(colorsys.hsv_to_rgb(h % 1.0, s, v))


def _draw_cell(rng: SeededPrng, side: int, parasitized: bool) -> np.ndarray:
    p = SYNTH_PARAMS
    u = rng.uniform

    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64) / side
    img = np.empty((side, side, 3), dtype=np.float64)
    img[:] = _span(rng, "background_value")

    cx = 0.5 + (u() - 0.5) * 2 * p["cell_center_jitter"]
    cy = 0.5 + (u() - 0.5) * 2 * p["cell_center_jitter"]
    a = _span(rng, "cell_radius")
    b = a * _span(rng, "cell_aspect")
    theta = u() * np.pi
    ct, st = np.cos(theta), np.sin(theta)
    rho = _ellipse_rho(xx, yy, cx, cy, a, b, theta)
    cell_mask = rho <= 1.0
    shade = 1.0 - p["cell_shading"] * rho
    img[cell_mask] = _hsv_color(rng, "cell") * shade[cell_mask, None]

    def inside_cell_point(max_frac: float):
        r_frac = max_frac * np.sqrt(u())
        phi = u() * 2 * np.pi
        px = cx + r_frac * a * np.cos(phi) * ct - r_frac * b * np.sin(phi) * st
        py = cy + r_frac * a * np.cos(phi) * st + r_frac * b * np.sin(phi) * ct
        return px, py

    # Stain streaks occur in both classes: parasite-band color, thin shape.
    if u() < p["artifact_prob"]:
        count = p["artifact_count"][0] + rng.below(p["artifact_count"][1] - p["artifact_count"][0] + 1)
        for _ in range(count):
            sx, sy = inside_cell_point(0.65)
            streak = _ellipse_rho(xx, yy, sx, sy, _span(rng, "artifact_len"),
                                  _span(rng, "artifact_width"), u() * np.pi) <= 1.0
            img[streak & cell_mask] = _hsv_color(rng, "artifact")

    if parasitized:
        count = p["parasite_count"][0] + rng.below(p["parasite_count"][1] - p["parasite_count"][0] + 1)
        for _ in range(count):
            px, py = inside_cell_point(0.75)
            pr = _span(rng, "parasite_radius")
            blob = (xx - px) ** 2 + (yy - py) ** 2 <= pr**2
            img[blob & cell_mask] = _hsv_color(rng, "parasite")

    lum = (u((side, side, 1)) - 0.5) * 2 * p["luminance_noise"]
    chroma = (u((side, side, 3)) - 0.5) * 2 * p["chroma_noise"]
    return np.clip(img + lum + chroma, 0.0, 1.0)


def synth_generate(out_dir, n: int, parasitized_fraction: float = 0.5,
                   side: int = 64, seed: int = 0) -> dict:
    """Write a synthetic Parasitized/Uninfected PNG tree plus manifest.json.

    Byte-reproducible: the same (seed, n, fraction, side) always produces
    identical files. Returns the manifest dict. Refuses a tree holding other PNGs.
    """
    if not 2 <= n <= MAX_IMAGES:  # the names are listed before any file is written
        raise ConfigError(f"n must be 2 to {MAX_IMAGES} images, got {n}")
    if not 0.0 < parasitized_fraction < 1.0:
        raise ConfigError(f"parasitized_fraction must be in (0, 1), got {parasitized_fraction}")
    max_side = math.isqrt(png.MAX_PIXELS)  # the largest square the decoder accepts
    if not 8 <= side <= max_side:
        raise ConfigError(f"side must be 8 to {max_side} pixels, got {side}")
    out_dir = Path(out_dir)
    n_par = int(np.floor(n * parasitized_fraction + 0.5))
    counts = {"Parasitized": n_par, "Uninfected": n - n_par}
    names = {sub: [f"cell_{i:05d}.png" for i in range(c)] for sub, c in counts.items()}
    master = SeededPrng(seed)
    try:
        for sub, _ in _CLASS_DIRS:
            stale = (out_dir / sub).is_dir() and set(_png_names(out_dir / sub)) - set(names[sub])
            if stale:
                raise ConfigError(f"{out_dir / sub / min(stale)} is left over; use an empty directory")
        for sub, label in _CLASS_DIRS:
            class_dir = out_dir / sub
            class_dir.mkdir(parents=True, exist_ok=True)
            for name in names[sub]:
                pixels = _draw_cell(master.split(), side, parasitized=bool(label))
                data = png.encode_rgb8(np.round(pixels * 255.0).astype(np.uint8))
                (class_dir / name).write_bytes(data)
        manifest = {
            "generator_version": GENERATOR_VERSION,
            "seed": seed,
            "n": n,
            "parasitized_fraction": parasitized_fraction,
            "side": side,
            "counts": counts,
            "params": SYNTH_PARAMS,
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise DataError(f"cannot write synthetic dataset under {out_dir}: {exc}") from exc
    return manifest
