"""Cell-image decoding and the two feature representations.

Images are decoded to a PixelImage of RGB floats in [0, 1], and resizing
returns one too. The kNN features are a 1-D float64 vector, either the
flattened 32x32 raw pixels (3072 dims) or an L1-normalized 3D HSV color
histogram (bins^3 dims, default 8^3 = 512) over hexcone (h, s, v), hue from
one sector formula per pixel (the max channel's sector, one division by
max - min). The CNN pipeline consumes a bilinearly resized (side, side, 3)
array.

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import png

RAW_SIDE = 32
DEFAULT_BINS = 8
# Histogram features have bins**3 float64 dims: 16 gives 4096, the order of the
# 3072-dim raw vector, while 100 would make a 600-image feature matrix 4.8 GB.
MAX_BINS = 16
# Hue offset at 2*red + green + 4*(q < 0), red taking v == r == g: blue 4, green 2, red 0 (6 if q < 0).
_HUE_OFFSETS = np.array([4.0, 2.0, 0.0, 0.0, 4.0, 2.0, 6.0, 6.0])


@dataclass(frozen=True)
class PixelImage:
    """RGB raster: values shaped (height, width, 3), each in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"PixelImage needs (h, w, 3) values, got {v.shape}")
        if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails both
            raise ValueError("PixelImage values must lie in [0, 1]")


def decode_image(data: bytes) -> PixelImage:
    """Decode PNG bytes (8-bit RGB or RGBA; alpha discarded) to a PixelImage."""
    pixels = png.decode_rgb8(data)
    return PixelImage(np.divide(pixels, 255.0, out=np.empty(pixels.shape)))


def _axis_coords(src: int, dst: int):
    # Half-pixel center mapping, clamped to the source extent.
    x = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    x = np.clip(x, 0.0, src - 1.0)
    lo = np.floor(x).astype(np.intp)
    hi = np.minimum(lo + 1, src - 1)
    return lo, hi, x - lo


def resize_bilinear(img: PixelImage, out_w: int, out_h: int) -> PixelImage:
    """Bilinear resize with half-pixel centers, each channel independent.

    Each source row is interpolated along x once; output row y then mixes
    rows y0 and y1."""
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be >= 1, got {out_w}x{out_h}")
    v = img.values
    x0, x1, wx = _axis_coords(v.shape[1], out_w)
    y0, y1, wy = _axis_coords(v.shape[0], out_h)
    h = v[:, x0] * (1 - wx)[:, None] + v[:, x1] * wx[:, None]
    out = h[y0] * (1 - wy)[:, None, None] + h[y1] * wy[:, None, None]
    return PixelImage(np.clip(out, 0.0, 1.0))


def _hsv_planes(values: np.ndarray):
    """Hexcone h, s and v planes of (h, w, 3) RGB values; h is a [0, 1) fraction, h = 0
    wherever s = 0: h = (q + 0, 2 or 4) / 6 in a red, green or blue sector,
    q = (g - b, b - r or r - g) / c (mod 6)."""
    r, g, b = values[..., 0], values[..., 1], values[..., 2]
    v = np.maximum(np.maximum(r, g), b)
    c = v - np.minimum(np.minimum(r, g), b)
    s = c / (v + (v == 0.0))  # v = 0 divides c = 0 by 1
    red, green = v == r, v == g
    h = np.where(red, g - b, np.where(green, b - r, r - g))
    h /= c + (c == 0.0)  # a grey pixel is red with g - b = 0, so its h stays 0
    h += _HUE_OFFSETS[2 * red.view(np.uint8) + green.view(np.uint8) + 4 * (h < 0.0).view(np.uint8)]
    h /= 6.0
    h[h >= 1.0] = 0.0  # the mod-6 rounding edge
    return h, s, v


def extract_raw_features(img: PixelImage) -> np.ndarray:
    """Resize to 32x32 and flatten row-major (row, column, channel): 3072 dims."""
    resized = resize_bilinear(img, RAW_SIDE, RAW_SIDE)
    return resized.values.reshape(-1)


def _hsv_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """Each pixel's flat (h, s, v) bin; a plane's bin is min(int(x * bins), bins - 1)."""
    h, s, v = (np.trunc(np.minimum(x * bins, bins - 1)) for x in _hsv_planes(values))
    return ((h * bins + s) * bins + v).astype(np.intp).reshape(-1)  # whole floats: exact


def extract_histogram_features(img: PixelImage, bins_per_channel: int = DEFAULT_BINS) -> np.ndarray:
    """Joint (h, s, v) histogram, flattened in (h, s, v) index order, L1-normalized."""
    bins = bins_per_channel
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins_per_channel must be 1 to {MAX_BINS}, got {bins}")
    if img.values.size == 0:
        raise ValueError("cannot build a histogram of an empty image")
    counts = np.bincount(_hsv_bins(img.values, bins), minlength=bins**3).astype(np.float64)
    return counts / counts.sum()


def image_to_tensor(img: PixelImage, side: int = 64) -> np.ndarray:
    """Resize to side x side; returns a (side, side, 3) float array in [0, 1]."""
    return resize_bilinear(img, side, side).values
