import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cellgrade import imaging, png
from cellgrade.errors import DecodeError
from cellgrade.imaging import (
    PixelImage,
    decode_image,
    extract_histogram_features,
    extract_raw_features,
    hsv_to_rgb,
    image_to_tensor,
    resize_bilinear,
    rgb_to_hsv,
)


def solid(rgb, h=4, w=4):
    return PixelImage(np.broadcast_to(np.asarray(rgb, dtype=np.float64), (h, w, 3)).copy())


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


def test_resize_rejects_bad_size():
    with pytest.raises(ValueError):
        resize_bilinear(solid((0, 0, 0)), 0, 4)


# -- rgb <-> hsv ------------------------------------------------------------

@pytest.mark.parametrize("rgb,expected", [
    ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
    ((0.5, 0.5, 0.5), (0.0, 0.0, 0.5)),
    ((0.0, 1.0, 0.0), (1.0 / 3.0, 1.0, 1.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
])
def test_rgb_to_hsv_known_values(rgb, expected):
    hsv = rgb_to_hsv(solid(rgb, 1, 1))
    np.testing.assert_allclose(hsv[0, 0], expected, atol=1e-12)


@given(rgb_images)
@settings(max_examples=100, deadline=None)
def test_hsv_ranges_and_roundtrip(values):
    img = PixelImage(values)
    hsv = rgb_to_hsv(img)
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    assert np.all((h >= 0) & (h < 1)) and np.all((s >= 0) & (s <= 1)) and np.all((v >= 0) & (v <= 1))
    assert np.all(h[s == 0] == 0.0)
    back = hsv_to_rgb(hsv)
    chromatic = s > 0
    np.testing.assert_allclose(back.values[chromatic], img.values[chromatic], atol=1e-6)


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
        h, s, v = rgb_to_hsv(PixelImage(np.array([[[r, g, b]]])))[0, 0]
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
