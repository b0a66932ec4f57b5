import colorsys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cellgrade import imaging, png
from cellgrade.errors import DecodeError
from cellgrade.imaging import (
    PixelImage,
    decode_image,
    extract_histogram_features,
    extract_raw_features,
    image_to_tensor,
    resize_bilinear,
)


def solid(rgb, h=4, w=4):
    return PixelImage(np.broadcast_to(np.asarray(rgb, dtype=np.float64), (h, w, 3)).copy())


def rgb_to_hsv(values):
    """(h, w, 3) hexcone (h, s, v) of (h, w, 3) RGB values, as the histogram bins them."""
    return np.stack(imaging._hsv_planes(values), axis=-1)


rgb_images = arrays(np.float64, (5, 6, 3),
                    elements=st.floats(0.0, 1.0, allow_nan=False, width=64))


# -- decode -----------------------------------------------------------------

def test_decode_single_red_pixel():
    data = png.encode_rgb8(np.array([[[255, 0, 0]]], dtype=np.uint8))
    img = decode_image(data)
    np.testing.assert_array_equal(img.values, [[[1.0, 0.0, 0.0]]])


def test_decode_all_black():
    data = png.encode_rgb8(np.zeros((2, 2, 3), dtype=np.uint8))
    img = decode_image(data)
    assert img.values.shape == (2, 2, 3)
    assert np.all(img.values == 0.0)


@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_decode_divides_pixels_exactly_as_float64(h, w, seed):
    pixels = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    pixels[0, 0] = (0, 255, 1)
    img = decode_image(png.encode_rgb8(pixels))
    assert img.values.dtype == np.float64
    assert img.values.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()


def test_decode_truncated_raises():
    data = png.encode_rgb8(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(DecodeError):
        decode_image(data[: len(data) // 2])


# -- resize -----------------------------------------------------------------

def test_resize_constant_image():
    out = resize_bilinear(solid((0.7, 0.7, 0.7), 50, 50), 32, 32)
    assert out.values.shape == (32, 32, 3)
    np.testing.assert_allclose(out.values, 0.7, atol=1e-6)


def test_resize_identity():
    rng = np.random.default_rng(2)
    img = PixelImage(rng.uniform(size=(9, 13, 3)))
    out = resize_bilinear(img, 13, 9)
    np.testing.assert_allclose(out.values, img.values, atol=1e-6)


def scalar_lerp_oracle(samples, out_n):
    """Straight-line interpolation at half-pixel centers, one value at a time."""
    src_n = len(samples)
    out = []
    for i in range(out_n):
        x = (i + 0.5) * (src_n / out_n) - 0.5
        x = min(max(x, 0.0), src_n - 1.0)
        lo = int(np.floor(x))
        hi = min(lo + 1, src_n - 1)
        out.append(samples[lo] + (x - lo) * (samples[hi] - samples[lo]))
    return out


def test_resize_2x1_to_4x1_matches_lerp_oracle():
    expected = scalar_lerp_oracle([0.0, 1.0], 4)
    assert expected == [0.0, 0.25, 0.75, 1.0]  # frozen from the oracle
    img = PixelImage(np.array([[[0.0] * 3, [1.0] * 3]]))
    out = resize_bilinear(img, 4, 1)
    np.testing.assert_allclose(out.values[0, :, 0], expected, atol=1e-12)


@given(rgb_images, st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_resize_stays_within_input_range(values, out_w, out_h):
    img = PixelImage(values)
    out = resize_bilinear(img, out_w, out_h)
    assert out.values.min() >= values.min() - 1e-12
    assert out.values.max() <= values.max() + 1e-12


def gather_resize(v, out_w, out_h):
    """The four-gather formula resize_bilinear replaced: both rows interpolated
    along x per output row, then mixed along y."""
    x0, x1, wx = imaging._axis_coords(v.shape[1], out_w)
    y0, y1, wy = imaging._axis_coords(v.shape[0], out_h)
    top = v[y0[:, None], x0[None, :]] * (1 - wx)[None, :, None] + v[y0[:, None], x1[None, :]] * wx[None, :, None]
    bot = v[y1[:, None], x0[None, :]] * (1 - wx)[None, :, None] + v[y1[:, None], x1[None, :]] * wx[None, :, None]
    return np.clip(top * (1 - wy)[:, None, None] + bot * wy[:, None, None], 0.0, 1.0)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
# cell sizes past the drawn range: corpus cells to the raw 32 px and the reference
# net's 64 px, and the synth tree's 64 px to 32 and to itself
@example(h=100, w=100, out_h=32, out_w=32, same_size=False, seed=1)
@example(h=100, w=150, out_h=32, out_w=32, same_size=False, seed=2)
@example(h=150, w=150, out_h=64, out_w=64, same_size=False, seed=3)
@example(h=64, w=64, out_h=32, out_w=32, same_size=False, seed=4)
@example(h=64, w=64, out_h=64, out_w=64, same_size=True, seed=5)
def test_resize_is_byte_identical_to_gather_formula(h, w, out_h, out_w, same_size, seed):
    if same_size:
        out_h, out_w = h, w
    v = np.random.default_rng(seed).uniform(size=(h, w, 3))
    out = resize_bilinear(PixelImage(v), out_w, out_h).values
    assert out.shape == (out_h, out_w, 3)
    assert out.tobytes() == gather_resize(v, out_w, out_h).tobytes()


def test_resize_rejects_bad_size():
    with pytest.raises(ValueError):
        resize_bilinear(solid((0, 0, 0)), 0, 4)


# -- rgb -> hsv -------------------------------------------------------------

@pytest.mark.parametrize("rgb,expected", [
    ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
    ((0.5, 0.5, 0.5), (0.0, 0.0, 0.5)),
    ((0.0, 1.0, 0.0), (1.0 / 3.0, 1.0, 1.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
])
def test_rgb_to_hsv_known_values(rgb, expected):
    hsv = rgb_to_hsv(np.array([[rgb]]))
    np.testing.assert_allclose(hsv[0, 0], expected, atol=1e-12)


@given(rgb_images)
@settings(max_examples=100, deadline=None)
def test_hsv_ranges_and_roundtrip(values):
    hsv = rgb_to_hsv(values)
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    assert np.all((h >= 0) & (h < 1)) and np.all((s >= 0) & (s <= 1)) and np.all((v >= 0) & (v <= 1))
    assert np.all(h[s == 0] == 0.0)
    back = np.array([colorsys.hsv_to_rgb(*px) for px in hsv.reshape(-1, 3)]).reshape(hsv.shape)
    chromatic = s > 0
    np.testing.assert_allclose(back[chromatic], values[chromatic], atol=1e-6)


def select_hsv(values):
    """The np.select form _hsv_planes replaced: every sector's hue built for every
    pixel, then picked by [grey, v == r, v == g, else]; returns the h, s, v planes."""
    r, g, b = values[..., 0], values[..., 1], values[..., 2]
    v = np.maximum(np.maximum(r, g), b)
    c = v - np.minimum(np.minimum(r, g), b)
    s = np.divide(c, v, out=np.zeros_like(v), where=v > 0)
    cs = np.where(c == 0, 1.0, c)
    h = np.select([c == 0, v == r, v == g],
                  [0.0, np.mod((g - b) / cs, 6.0), (b - r) / cs + 2.0], default=(r - g) / cs + 4.0) / 6.0
    return np.where(h >= 1.0, 0.0, h), s, v


def select_bins(values, bins):
    """Each pixel's flat bin from the select form, binned as (hsv * bins).astype(intp)."""
    hb, sb, vb = (np.minimum((x * bins).astype(np.intp), bins - 1) for x in select_hsv(values))
    return ((hb * bins + sb) * bins + vb).reshape(-1)


def select_histogram(values, bins):
    counts = np.bincount(select_bins(values, bins), minlength=bins**3).astype(np.float64)
    return counts / counts.sum()


def hue_ties(seed, n=4000):
    """Random [0, 1] pixels, then rows forced to r == g, g == b, r == b == max, grey,
    zero, one, the rounding edge's tiny red q < 0, a subnormal channel, a one channel,
    two zero channels and -0.0."""
    rng = np.random.default_rng(seed)
    px = rng.uniform(size=(n, 3))
    decoded = rng.random(n) < 0.5
    px[decoded] = np.round(px[decoded] * 255.0) / 255.0
    rows = np.array_split(rng.permutation(n), 12)
    px[rows[0], 1] = px[rows[0], 0]
    px[rows[1], 2] = px[rows[1], 1]
    px[rows[2], 2] = px[rows[2], 0] = np.maximum(px[rows[2], 0], px[rows[2], 1])
    px[rows[3]] = px[rows[3], :1]
    px[rows[4]] = 0.0
    px[rows[5]] = 1.0
    px[rows[6], 0], px[rows[6], 1] = 1.0, 0.0
    px[rows[6], 2] = 1e-17 * rng.random(rows[6].size)  # hue rounds to 6/6 and reads 0
    px[rows[7], rng.integers(0, 3, rows[7].size)] = 5e-324
    px[rows[8]] = -0.0
    px[rows[9], rng.integers(0, 3, rows[9].size)] = 1.0
    px[rows[10], 1] = px[rows[10], 2] = 0.0
    px[rows[11], rng.integers(0, 3, rows[11].size)] = -0.0
    return px.reshape(-1, 40, 3)


@pytest.mark.parametrize("seed", range(4))
def test_rgb_to_hsv_is_bitwise_the_select_form(seed):
    values = hue_ties(seed)
    assert rgb_to_hsv(values).tobytes() == np.stack(select_hsv(values), axis=-1).tobytes()


@pytest.mark.parametrize("bins", range(1, 17))
def test_histogram_is_bytewise_the_select_form(bins):
    for seed in range(3):
        values = hue_ties(seed)
        assert extract_histogram_features(PixelImage(values), bins).tobytes() == \
            select_histogram(values, bins).tobytes()


def test_bins_of_every_8bit_colour_are_the_select_forms():
    """All 2^24 decoded colours k/255 at the default 8 bins, 2^18 pixels at a time."""
    chunk = 1 << 18
    for lo in range(0, 1 << 24, chunk):
        rgb = np.arange(lo, lo + chunk)[:, None] >> np.array([16, 8, 0]) & 255
        values = (rgb / 255.0).reshape(chunk, 1, 3)
        assert np.array_equal(imaging._hsv_bins(values, 8), select_bins(values, 8)), lo


# -- features ---------------------------------------------------------------

def test_raw_features_zero_image():
    fv = extract_raw_features(solid((0, 0, 0), 32, 32))
    assert fv.shape == (3072,) and fv.dtype == np.float64
    assert np.all(fv == 0.0)


def test_raw_features_single_pixel_indexing():
    values = np.zeros((32, 32, 3))
    values[0, 0] = [1.0, 0.0, 0.0]
    fv = extract_raw_features(PixelImage(values))
    assert fv[0] == 1.0
    assert np.all(fv[1:] == 0.0)


@pytest.mark.parametrize("h,w", [(64, 64), (17, 33), (1, 1), (100, 40)])
def test_raw_features_always_3072(h, w):
    rng = np.random.default_rng(h * 100 + w)
    fv = extract_raw_features(PixelImage(rng.uniform(size=(h, w, 3))))
    assert fv.shape == (3072,)


def test_histogram_all_red():
    fv = extract_histogram_features(solid((1.0, 0.0, 0.0)), 8)
    # (h_bin, s_bin, v_bin) = (0, 7, 7) -> flat 0*64 + 7*8 + 7
    assert fv[63] == 1.0
    assert np.count_nonzero(fv) == 1


def test_histogram_half_red_half_green():
    values = np.zeros((2, 4, 3))
    values[0, :, 0] = 1.0
    values[1, :, 1] = 1.0
    fv = extract_histogram_features(PixelImage(values), 8)
    nonzero = np.flatnonzero(fv)
    assert len(nonzero) == 2
    np.testing.assert_array_equal(fv[nonzero], [0.5, 0.5])
    assert 63 in nonzero  # red: (0, 7, 7)
    assert (2 * 64 + 7 * 8 + 7) in nonzero  # green: h=1/3 -> bin 2


def tally_oracle(pixels, bins):
    """Per-pixel Python tally, independent of the vectorized implementation."""
    counts = [0] * bins**3
    for r, g, b in pixels:
        h, s, v = rgb_to_hsv(np.array([[[r, g, b]]]))[0, 0]
        hb = min(int(h * bins), bins - 1)
        sb = min(int(s * bins), bins - 1)
        vb = min(int(v * bins), bins - 1)
        counts[(hb * bins + sb) * bins + vb] += 1
    total = sum(counts)
    return np.array([c / total for c in counts])


def test_histogram_matches_tally_oracle():
    rng = np.random.default_rng(3)
    pixels = rng.uniform(size=(100, 3))
    img = PixelImage(pixels.reshape(10, 10, 3))
    fv = extract_histogram_features(img, 4)
    np.testing.assert_allclose(fv, tally_oracle(pixels, 4), atol=1e-12)


@given(rgb_images, st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_histogram_normalized_and_nonnegative(values, bins):
    fv = extract_histogram_features(PixelImage(values), bins)
    assert fv.shape == (bins**3,) and fv.dtype == np.float64
    assert np.all(fv >= 0)
    assert abs(fv.sum() - 1.0) < 1e-6


@pytest.mark.parametrize("bins", [0, imaging.MAX_BINS + 1, 10**6])
def test_histogram_bins_out_of_bounds_raise_before_counting(bins):
    """10**6 bins per channel would ask bincount for 10**18 counts."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"must be 1 to 16, got {bins}$"):
            extract_histogram_features(solid((0.2, 0.4, 0.6)), bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_histogram_of_an_empty_image_raises():
    with pytest.raises(ValueError, match="empty image"):
        extract_histogram_features(PixelImage(np.zeros((0, 4, 3))))


@given(rgb_images, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_histogram_permutation_invariance(values, pyrandom):
    img = PixelImage(values)
    flat = values.reshape(-1, 3).tolist()
    pyrandom.shuffle(flat)
    shuffled = PixelImage(np.array(flat).reshape(values.shape))
    a = extract_histogram_features(img, 8)
    b = extract_histogram_features(shuffled, 8)
    np.testing.assert_array_equal(a, b)


# -- tensors ----------------------------------------------------------------

def test_image_to_tensor_shapes():
    rng = np.random.default_rng(8)
    assert image_to_tensor(PixelImage(rng.uniform(size=(64, 64, 3))), 64).shape == (64, 64, 3)
    assert image_to_tensor(PixelImage(rng.uniform(size=(128, 128, 3))), 64).shape == (64, 64, 3)


def test_image_to_tensor_constant():
    t = image_to_tensor(solid((0.3, 0.6, 0.9), 20, 20), 16)
    np.testing.assert_allclose(t, np.broadcast_to([0.3, 0.6, 0.9], (16, 16, 3)), atol=1e-9)


def test_pixel_image_validation():
    with pytest.raises(ValueError):
        PixelImage(np.zeros((4, 4, 2)))
    with pytest.raises(ValueError):
        PixelImage(np.full((4, 4, 3), 1.5))


@pytest.mark.parametrize("channel", range(3))
def test_pixel_image_rejects_nan(channel):
    values = np.full((4, 4, 3), 0.5)
    values[1, 2, channel] = np.nan
    with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
        PixelImage(values)
    values[..., channel] = np.nan
    with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
        PixelImage(values)
