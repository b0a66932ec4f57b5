"""Cell-image decoding and the two feature representations.

Images are decoded to a PixelImage of RGB floats in [0, 1]; resizing and
hsv_to_rgb return PixelImages too. Everything else returns a plain float64
array: rgb_to_hsv an (h, w, 3) array of (h, s, v), and the kNN features a
1-D vector, either the flattened 32x32 raw pixels (3072 dims) or an
L1-normalized 3D HSV color histogram (bins^3 dims, default 8^3 = 512). The
CNN pipeline consumes a bilinearly resized (side, side, 3) array.

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import png

RAW_SIDE = 32
DEFAULT_BINS = 8


@dataclass(frozen=True)
class PixelImage:
    """RGB raster: values shaped (height, width, 3), each in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"PixelImage needs (h, w, 3) values, got {v.shape}")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("PixelImage values must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def decode_image(data: bytes) -> PixelImage:
    """Decode PNG bytes (8-bit RGB or RGBA; alpha discarded) to a PixelImage."""
    pixels = png.decode_rgb8(data)
    return PixelImage(pixels.astype(np.float64) / 255.0)


def _axis_coords(src: int, dst: int):
    # Half-pixel center mapping, clamped to the source extent.
    x = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    x = np.clip(x, 0.0, src - 1.0)
    lo = np.floor(x).astype(np.intp)
    hi = np.minimum(lo + 1, src - 1)
    return lo, hi, x - lo


def resize_bilinear(img: PixelImage, out_w: int, out_h: int) -> PixelImage:
    """Bilinear resize with half-pixel centers, each channel independent."""
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be >= 1, got {out_w}x{out_h}")
    x0, x1, wx = _axis_coords(img.width, out_w)
    y0, y1, wy = _axis_coords(img.height, out_h)
    v = img.values
    top = v[y0[:, None], x0[None, :]] * (1 - wx)[None, :, None] + v[y0[:, None], x1[None, :]] * wx[None, :, None]
    bot = v[y1[:, None], x0[None, :]] * (1 - wx)[None, :, None] + v[y1[:, None], x1[None, :]] * wx[None, :, None]
    out = top * (1 - wy)[:, None, None] + bot * wy[:, None, None]
    return PixelImage(np.clip(out, 0.0, 1.0))


def rgb_to_hsv(img: PixelImage) -> np.ndarray:
    """Hexcone RGB -> HSV; h is a [0, 1) fraction, h = 0 wherever s = 0."""
    r, g, b = img.values[..., 0], img.values[..., 1], img.values[..., 2]
    v = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    c = v - mn
    s = np.divide(c, v, out=np.zeros_like(v), where=v > 0)
    cs = np.where(c == 0, 1.0, c)  # safe divisor; masked out below
    h = np.select(
        [c == 0, v == r, v == g],
        [0.0, np.mod((g - b) / cs, 6.0), (b - r) / cs + 2.0],
        default=(r - g) / cs + 4.0,
    ) / 6.0
    h = np.where(h >= 1.0, 0.0, h)  # guard the mod-6 rounding edge
    return np.stack([h, s, v], axis=-1)


def hsv_to_rgb(hsv: np.ndarray) -> PixelImage:
    """Standard inverse of rgb_to_hsv."""
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    h6 = h * 6.0
    sector = np.floor(h6).astype(np.intp) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(sector, [v, q, p, p, t, v])
    g = np.choose(sector, [t, v, v, q, p, p])
    b = np.choose(sector, [p, p, t, v, v, q])
    return PixelImage(np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0))


def extract_raw_features(img: PixelImage) -> np.ndarray:
    """Resize to 32x32 and flatten row-major (row, column, channel): 3072 dims."""
    resized = resize_bilinear(img, RAW_SIDE, RAW_SIDE)
    return resized.values.reshape(-1).copy()


def extract_histogram_features(img: PixelImage, bins_per_channel: int = DEFAULT_BINS) -> np.ndarray:
    """Joint (h, s, v) histogram, flattened in (h, s, v) index order, L1-normalized."""
    bins = bins_per_channel
    if bins < 1:
        raise ValueError(f"bins_per_channel must be >= 1, got {bins}")
    if img.values.size == 0:
        raise ValueError("cannot build a histogram of an empty image")
    hsv = rgb_to_hsv(img).reshape(-1, 3)
    idx = np.minimum((hsv * bins).astype(np.intp), bins - 1)
    flat = (idx[:, 0] * bins + idx[:, 1]) * bins + idx[:, 2]
    counts = np.bincount(flat, minlength=bins**3).astype(np.float64)
    return counts / counts.sum()


def image_to_tensor(img: PixelImage, side: int = 64) -> np.ndarray:
    """Resize to side x side; returns a (side, side, 3) float array in [0, 1]."""
    return resize_bilinear(img, side, side).values
