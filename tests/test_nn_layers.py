"""Layer-level forward semantics and gradient correctness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import cellgrade.nn as nn
from cellgrade.errors import ConfigError
from cellgrade.prng import SeededPrng

RNG = np.random.default_rng(2024)


def micro_net(*layers, input_shape=(6, 6, 3)):
    return nn.NetworkSpec(input_shape, tuple(layers))


def check_gradients(net, batch=3, sample_count=25, h=1e-5, tol=1e-4, seed=5):
    params = nn.init_params(net, seed, dtype=np.float64)
    rng = SeededPrng(seed + 1)
    x = rng.uniform((batch,) + tuple(net.input_shape))
    y = np.arange(batch) % 2
    report = nn.gradient_check(net, params, x, y, sample_count=sample_count, h=h, seed=seed + 2)
    assert report.max_rel_err < tol, report.per_layer
    return report


# -- conv -------------------------------------------------------------------

def test_conv_1x1_identity_kernel():
    x = RNG.uniform(size=(2, 4, 4, 1))
    kernel = np.ones((1, 1, 1, 1))
    y, _ = nn.conv2d_forward(x, kernel, np.zeros(1), (1, 1))
    np.testing.assert_array_equal(y, x)


def test_conv_full_window_sum():
    x = RNG.uniform(size=(1, 3, 3, 1))
    kernel = np.ones((3, 3, 1, 1))
    y, _ = nn.conv2d_forward(x, kernel, np.zeros(1), (1, 1))
    assert y.shape == (1, 1, 1, 1)
    np.testing.assert_allclose(y[0, 0, 0, 0], x.sum(), rtol=1e-12)


def test_conv_bias_add():
    x = np.zeros((1, 3, 3, 2))
    kernel = np.zeros((2, 2, 2, 3))
    y, _ = nn.conv2d_forward(x, kernel, np.array([1.0, 2.0, 3.0]), (1, 1))
    np.testing.assert_array_equal(y[0, 0, 0], [1.0, 2.0, 3.0])


def test_conv_gradients_vs_finite_differences():
    net = micro_net(nn.Conv2D(3, (3, 3), (1, 1)), nn.Flatten(), nn.Dense(2),
                    input_shape=(8, 8, 2))
    check_gradients(net)


def test_conv_strided_gradients():
    net = micro_net(nn.Conv2D(4, (3, 3), (2, 2)), nn.Flatten(), nn.Dense(2),
                    input_shape=(9, 9, 3))
    check_gradients(net)


def test_1x1_and_full_window_conv_gradients():
    """Behind a first conv, so the input gradient of each is checked too."""
    net = micro_net(nn.Conv2D(3, (3, 3), (1, 1)), nn.Relu(), nn.Conv2D(4, (1, 1), (1, 1)),
                    nn.Conv2D(2, (4, 4), (1, 1)), nn.Flatten(), nn.Dense(2))
    check_gradients(net)


# -- batch norm ---------------------------------------------------------------

def test_batch_norm_normalizes_in_train_mode():
    x = RNG.normal(loc=3.0, scale=2.0, size=(8, 5, 5, 4))
    gamma, beta = np.ones(4), np.zeros(4)
    y, _, _ = nn.batch_norm_forward_train(x, gamma, beta, np.zeros(4), np.ones(4), 1e-3, 0.99)
    mean = y.mean(axis=(0, 1, 2))
    var = y.var(axis=(0, 1, 2))
    assert np.all(np.abs(mean) < 1e-5)
    assert np.all(np.abs(var - 1.0) < 1e-3)


def test_batch_norm_eval_identity_statistics():
    x = RNG.normal(size=(4, 3, 3, 2))
    y = nn.batch_norm_forward_eval(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), 1e-3)
    np.testing.assert_allclose(y, x, atol=2e-3)


def test_batch_norm_updates_moving_statistics():
    x = RNG.normal(loc=5.0, size=(16, 2, 2, 1))
    _, _, (new_mean, new_var) = nn.batch_norm_forward_train(
        x, np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), 1e-3, 0.9)
    expected_mean = 0.9 * 0.0 + 0.1 * x.mean()
    expected_var = 0.9 * 1.0 + 0.1 * x.var()
    np.testing.assert_allclose(new_mean, [expected_mean], rtol=1e-6)
    np.testing.assert_allclose(new_var, [expected_var], rtol=1e-6)


def test_batch_norm_rejects_batch_of_one():
    with pytest.raises(ConfigError, match=">= 2"):
        nn.batch_norm_forward_train(np.zeros((1, 2, 2, 3)), np.ones(3), np.zeros(3),
                                    np.zeros(3), np.ones(3), 1e-3, 0.99)


def test_batch_norm_float32_stays_float32_and_within_3x_of_dy_in_memory():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=0.5, scale=2.0, size=(32, 30, 30, 16)).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, 16).astype(np.float32)
    beta = rng.normal(size=16).astype(np.float32)
    stats = (np.zeros(16, np.float32), np.ones(16, np.float32))
    y, cache, new_stats = nn.batch_norm_forward_train(x, gamma, beta, *stats, 1e-3, 0.9)
    dy = rng.normal(size=x.shape).astype(np.float32)
    tracemalloc.start()
    try:
        grads = nn.batch_norm_backward(dy, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * dy.nbytes, peak / dy.nbytes
    assert all(a.dtype == np.float32 for a in (y, *new_stats, *grads))
    # within float32 rounding of the same kernels run in float64
    y64, cache64, _ = nn.batch_norm_forward_train(*(a.astype(np.float64) for a in (x, gamma, beta)),
                                                  *stats, 1e-3, 0.9)
    grads64 = nn.batch_norm_backward(dy.astype(np.float64), cache64)
    assert np.abs(y - y64).max() < 1e-4
    for g, g64 in zip(grads, grads64):
        assert np.abs(g - g64).max() <= 1e-5 * max(1.0, np.abs(g64).max())


def test_batch_norm_gradients_vs_finite_differences():
    net = micro_net(nn.Conv2D(3, (3, 3)), nn.BatchNorm(3), nn.Flatten(), nn.Dense(2),
                    input_shape=(6, 6, 2))
    check_gradients(net, batch=4)


# -- dropout ------------------------------------------------------------------

def test_dropout_rate_zero_is_identity():
    x = RNG.uniform(size=(4, 7))
    rng = SeededPrng(1)
    y, mask = nn.Dropout(0.0).forward(x, {}, True, rng)
    assert y is x and mask is None
    assert rng.u64(1)[0] == SeededPrng(1).u64(1)[0]  # no mask was drawn
    g = RNG.uniform(size=x.shape)
    assert nn.Dropout(0.0).backward(g, mask)[0] is g


def test_dropout_eval_is_identity():
    x = RNG.uniform(size=(4, 7))
    y, mask = nn.Dropout(0.9).forward(x, {}, False, None)
    assert y is x and mask is None
    g = RNG.uniform(size=x.shape)
    assert nn.Dropout(0.9).backward(g, mask)[0] is g


def test_dropout_mean_preservation_and_reproducibility():
    x = np.ones((100, 100))
    layer = nn.Dropout(0.5)
    y, cache = layer.forward(x, {}, True, SeededPrng(77))
    assert abs(y.mean() - 1.0) < 0.05
    survivors = (cache > 0).mean()
    assert 0.45 < survivors < 0.55
    y2, cache2 = layer.forward(x, {}, True, SeededPrng(77))
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(cache, cache2)
    np.testing.assert_array_equal(layer.backward(x, cache)[0], y)  # same scaled mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5, 0.7])
def test_dropout_backward_is_bytewise_the_mask_formula(dtype, rate):
    """Backward multiplies by the cached scale; the mask formula it replaced is copied here."""
    shape = (3, 5, 5, 4)
    layer = nn.Dropout(rate)
    _, scale = layer.forward(RNG.normal(size=shape).astype(dtype), {}, True, SeededPrng(11))
    mask = SeededPrng(11).uniform(shape) >= rate  # the draw dropout_forward makes
    assert scale.dtype == dtype and np.array_equal(scale > 0, mask)
    r = RNG.normal(size=shape).astype(dtype)
    for g in (r, -np.abs(r), np.copysign(np.zeros(shape, dtype), r)):  # random, negative, ±0
        old = g * (mask.astype(g.dtype) / np.asarray(1.0 - rate, dtype=g.dtype))
        new = layer.backward(g, scale)[0]
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5])
def test_dropout_mask_from_raw_words_is_the_uniform_mask(rate):
    """The raw-word compare keeps exactly the units uniform() >= rate keeps, and
    consumes the same words: the next draw matches too."""
    shape = (4, 7, 7, 8)
    x = np.ones(shape, dtype=np.float32)
    for seed in range(20):
        rng, replay = SeededPrng(seed), SeededPrng(seed)
        _, scale = nn.dropout_forward(x, rate, rng)
        assert np.array_equal(scale > 0, replay.uniform(shape) >= rate), seed
        assert rng.next_u64() == replay.next_u64(), seed


# -- pooling ------------------------------------------------------------------

def test_pool_window_example():
    window = np.array([[1.0, 3.0], [2.0, 9.0]]).reshape(1, 2, 2, 1)
    y_max, _ = nn.max_pool_forward(window, (2, 2), (2, 2))
    assert y_max[0, 0, 0, 0] == 9.0


def test_pooling_constant_input():
    x = np.full((2, 4, 4, 3), 0.6)
    y_max, _ = nn.max_pool_forward(x, (2, 2), (2, 2))
    np.testing.assert_allclose(y_max, 0.6)


def test_max_pool_backward_routes_to_argmax():
    x = RNG.uniform(size=(2, 6, 6, 3))
    y, cache = nn.max_pool_forward(x, (2, 2), (2, 2))
    dy = RNG.uniform(size=y.shape)
    dx = nn.max_pool_backward(dy, cache)
    # gradient mass is conserved per window and lands only on the window max
    assert dx.sum() == pytest.approx(dy.sum(), rel=1e-12)
    nonzero = dx != 0
    assert nonzero.sum() <= dy.size
    for n in range(2):
        for c in range(3):
            for oh in range(3):
                for ow in range(3):
                    window = x[n, 2 * oh : 2 * oh + 2, 2 * ow : 2 * ow + 2, c]
                    grads = dx[n, 2 * oh : 2 * oh + 2, 2 * ow : 2 * ow + 2, c]
                    flat_arg = window.argmax()
                    assert grads.reshape(-1)[flat_arg] == dy[n, oh, ow, c]
                    assert np.count_nonzero(grads) == 1


def test_max_pool_tie_takes_first_in_window_order():
    x = np.zeros((1, 2, 2, 1))
    y, cache = nn.max_pool_forward(x, (2, 2), (2, 2))
    dx = nn.max_pool_backward(np.ones_like(y), cache)
    assert dx[0, 0, 0, 0] == 1.0
    assert dx.sum() == 1.0


def scatter_add_max_pool_backward(dy, cache):
    """The np.add.at formulation max_pool_backward replaced."""
    x_shape, arg, (ph, pw), (sh, sw) = cache
    n, oh, ow, c = dy.shape
    rows = (np.arange(oh) * sh)[None, :, None, None] + arg // pw
    cols = (np.arange(ow) * sw)[None, None, :, None] + arg % pw
    dx = np.zeros(x_shape, dtype=dy.dtype)
    np.add.at(dx, (np.arange(n)[:, None, None, None], rows, cols, np.arange(c)), dy)
    return dx


def windows(x, pool, stride):
    """(N, OH, OW, C, ph*pw) window values, each window in row-major order."""
    win = sliding_window_view(x, pool, axis=(1, 2))[:, :: stride[0], :: stride[1]]
    return win.reshape(*win.shape[:4], -1)


def window_view_max_pool(x, pool, stride):
    """The sliding-window argmax + take_along_axis formulation max_pool_forward replaced."""
    flat = windows(x, pool, stride)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def pool_case(data):
    """Pools and strides 1-3 (overlapping ones included), both float dtypes, and
    grids of 1-3 levels with random signs, so ties (0.0 against -0.0 too) are common."""
    ph, pw, sh, sw = (data.draw(st.integers(1, 3)) for _ in range(4))
    h, w = ph + data.draw(st.integers(0, 6)), pw + data.draw(st.integers(0, 6))
    n, c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    levels = data.draw(st.integers(1, 3))
    x = rng.integers(0, levels, size=(n, h, w, c)).astype(dtype)
    x *= rng.choice(np.array([-1, 1], dtype=dtype), size=x.shape)
    return x, (ph, pw), (sh, sw), rng


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_max_pool_backward_matches_scatter_add(data):
    check_max_pool_against_oracle(*pool_case(data))


def test_max_pool_over_256_offsets_matches_scatter_add():
    # 17 x 16 = 272 window offsets: arg no longer fits in uint8
    rng = np.random.default_rng(12)
    x = rng.integers(0, 3, size=(2, 21, 19, 3)).astype(np.float32)
    x *= rng.choice(np.array([-1, 1], dtype=np.float32), size=x.shape)
    check_max_pool_against_oracle(x, (17, 16), (2, 1), rng)


def check_max_pool_against_oracle(x, pool, stride, rng):
    (ph, pw), (sh, sw) = pool, stride
    dtype = x.dtype
    y, cache = nn.max_pool_forward(x, (ph, pw), (sh, sw))
    y_ref, arg_ref = window_view_max_pool(x, (ph, pw), (sh, sw))
    assert y.dtype == dtype and y.tobytes() == y_ref.tobytes()  # bytes: keeps -0.0 vs 0.0
    assert cache[1].dtype == np.min_scalar_type(ph * pw - 1)  # uint8 up to 256 offsets
    assert np.array_equal(cache[1], arg_ref)
    dy = rng.normal(size=y.shape).astype(dtype)
    dx = nn.max_pool_backward(dy, cache)
    expected = scatter_add_max_pool_backward(dy, cache)
    assert dx.dtype == dtype
    if sh >= ph and sw >= pw:  # windows do not overlap: one addition per position
        assert np.array_equal(dx, expected)
    else:
        np.testing.assert_allclose(dx, expected, rtol=1e-6, atol=1e-6)


# -- per-channel work at row width ---------------------------------------------

def bn_reference(x, dy, gamma, beta, moving_mean, moving_var, eps):
    """Batch norm's per-channel formulas over an (M, C) view, in float64:
    (y, dx, dgamma, dbeta, batch mean, batch variance, eval y)."""
    c = x.shape[-1]
    x2, dy2 = (a.astype(np.float64).reshape(-1, c) for a in (x, dy))
    gamma, beta, moving_mean, moving_var = (
        a.astype(np.float64) for a in (gamma, beta, moving_mean, moving_var))
    m = x2.shape[0]
    mu = x2.sum(axis=0) / m
    var = ((x2 - mu) ** 2).sum(axis=0) / m
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x2 - mu) * inv
    dbeta, dgamma = dy2.sum(axis=0), (dy2 * xhat).sum(axis=0)
    dx = (m * dy2 - dbeta - xhat * dgamma) * gamma * inv / m
    y_eval = gamma * (x2 - moving_mean) / np.sqrt(moving_var + eps) + beta
    return [a.reshape(x.shape) if a.ndim == 2 else a
            for a in (xhat * gamma + beta, dx, dgamma, dbeta, mu, var, y_eval)]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_batch_norm_row_kernels_match_float64_reference(data):
    """NHWC inputs (W = 1 and C = 1 included) and 2-D (N, C) inputs, in both
    float dtypes. Sums run in another order than the (M, C) reference, so the
    bound is set by the dtype: 5e-4 (float32) or 1e-10 (float64) of each
    output's magnitude, floored at 1."""
    n, c = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 5))
    shape = ((n, c) if data.draw(st.booleans())
             else (n, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), c))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 4), size=shape).astype(dtype)
    dy = rng.normal(size=shape).astype(dtype)
    gamma, beta, moving_mean = (rng.normal(size=c).astype(dtype) for _ in range(3))
    moving_var = rng.uniform(0.1, 4, size=c).astype(dtype)
    y, cache, (new_mean, new_var) = nn.batch_norm_forward_train(
        x, gamma, beta, moving_mean, moving_var, 1e-3, 0.9)
    dx, dgamma, dbeta = nn.batch_norm_backward(dy, cache)
    y_eval = nn.batch_norm_forward_eval(x, gamma, beta, moving_mean, moving_var, 1e-3)
    ref = bn_reference(x, dy, gamma, beta, moving_mean, moving_var, 1e-3)
    mu, var = ref[4:6]
    moving = [0.9 * moving_mean.astype(np.float64) + 0.1 * mu,
              0.9 * moving_var.astype(np.float64) + 0.1 * var]
    rtol = 5e-4 if dtype == np.float32 else 1e-10
    for got, want in zip((y, dx, dgamma, dbeta, new_mean, new_var, y_eval),
                         ref[:4] + moving + ref[6:]):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


def window_matrix(x, kh, kw, sh, sw):
    """The im2col matrix (N*OH*OW, kh*kw*C) as a fresh contiguous copy, as
    conv's GEMMs read it: a strided view may take another matmul path."""
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * x.shape[-1])


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_conv_bias_add_is_byte_equal_to_flat_matmul_plus_bias(data):
    kh, kw = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    sh, sw = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    h, w = kh + data.draw(st.integers(0, 4)), kw + data.draw(st.integers(0, 4))
    n, c, f = (data.draw(st.integers(1, 3)) for _ in range(3))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, h, w, c)).astype(dtype)
    kernel, bias = rng.normal(size=(kh, kw, c, f)).astype(dtype), rng.normal(size=f).astype(dtype)
    y, cache = nn.conv2d_forward(x, kernel, bias, (sh, sw))
    assert cache[1] is x and cache[2] is kernel  # the input, not its windows
    flat = window_matrix(x, kh, kw, sh, sw)
    buf = np.empty((n, *y.shape[1:3], kh, kw, c), dtype=dtype)
    assert np.array_equal(flat, nn._im2col(x, kh, kw, sh, sw, buf).reshape(flat.shape))
    expected = flat @ kernel.reshape(-1, f) + bias
    assert y.dtype == dtype and y.tobytes() == expected.tobytes()


# reference layers 3 and 6: (input shape, kernel shape, stride)
REFERENCE_CONVS = {3: ((31, 31, 64), (3, 3, 64, 128), (2, 2)),
                   6: ((15, 15, 128), (3, 3, 128, 256), (1, 1))}


def reference_conv_case(layer, dtype, n=7):
    in_shape, k_shape, stride = REFERENCE_CONVS[layer]
    rng = np.random.default_rng(layer)
    x = rng.normal(size=(n, *in_shape)).astype(dtype)
    kernel = rng.normal(size=k_shape).astype(dtype)
    bias = rng.normal(size=k_shape[-1]).astype(dtype)
    return x, kernel, bias, stride


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", [3, 6])
def test_conv_forward_chunks_whole_images(monkeypatch, layer, dtype):
    """Each chunk of images is its own im2col GEMM plus bias, byte for byte;
    chunk sizes agree to rounding (GEMMs of different heights may round
    differently on some BLAS cores)."""
    x, kernel, bias, (sh, sw) = reference_conv_case(layer, dtype)
    kh, kw, c, f = kernel.shape
    oh, ow = nn._window_shape(x.shape[1:], (kh, kw), (sh, sw))
    per_image = oh * ow * kh * kw * c
    outputs = {}
    for images, chunk in ((1, per_image), (3, 4 * per_image - 1), (7, 7 * per_image)):
        monkeypatch.setattr(nn, "_CONV_CHUNK", chunk)
        y, _ = nn.conv2d_forward(x, kernel, bias, (sh, sw))
        for lo in range(0, len(x), images):
            win = window_matrix(x[lo : lo + images], kh, kw, sh, sw)
            expected = (win @ kernel.reshape(-1, f) + bias).reshape(-1, oh, ow, f)
            assert y.dtype == dtype and y[lo : lo + images].tobytes() == expected.tobytes()
        outputs[images] = y
    rtol = 1e-5 if dtype == np.float32 else 1e-12
    for images in (1, 3):
        assert np.allclose(outputs[images], outputs[7], rtol=rtol,
                           atol=rtol * np.abs(outputs[7]).max())


# Convs whose strided window view of x is already C-contiguous, so a window
# "copy" that skips contiguous input would alias x: (input shape, kernel shape, stride)
ALIASING_CONVS = {"1x1": ((5, 5, 3), (1, 1, 3, 4), (1, 1)),
                  "full-window": ((4, 4, 3), (4, 4, 3, 2), (1, 1))}


def aliasing_conv_case(name, dtype, n=3):
    in_shape, k_shape, stride = ALIASING_CONVS[name]
    rng = np.random.default_rng(len(name))
    return (rng.normal(size=(n, *in_shape)).astype(dtype),
            rng.normal(size=k_shape).astype(dtype), rng.normal(size=k_shape[-1]).astype(dtype),
            stride)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", [3, 6, "1x1", "full-window"])
def test_conv_backward_is_the_full_window_formula(case, dtype):
    """Backward rebuilds the windows from the cached input; its gradients are
    those of the whole batch's window matrix, byte for byte, and x is untouched."""
    make = reference_conv_case if case in REFERENCE_CONVS else aliasing_conv_case
    x, kernel, bias, (sh, sw) = make(case, dtype, n=3)
    x_bytes = x.tobytes()
    kh, kw, c, f = kernel.shape
    y, cache = nn.conv2d_forward(x, kernel, bias, (sh, sw))
    assert cache[1] is x and cache[2] is kernel
    dy = np.random.default_rng(kh + c).normal(size=y.shape).astype(dtype)
    dx, dkernel, dbias = nn.conv2d_backward(dy, cache)
    assert x.tobytes() == x_bytes
    flat = window_matrix(x, kh, kw, sh, sw)
    dy_flat = dy.reshape(-1, f)
    dcols = (dy_flat @ kernel.reshape(-1, f).T).reshape(*y.shape[:3], kh, kw, c)
    expected = (nn._col2im(dcols, x.shape, sh, sw), (flat.T @ dy_flat).reshape(kernel.shape),
                nn._fold(nn._rows(dy)[0].sum(axis=0), f))
    for got, want in zip((dx, dkernel, dbias), expected):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_eval_max_pool_and_relu_keep_no_cache(data):
    x, pool, stride, _ = pool_case(data)
    y_train, cache = nn.max_pool_forward(x, pool, stride, train=True)
    y_eval, none = nn.max_pool_forward(x, pool, stride, train=False)
    assert cache is not None and none is None
    assert y_eval.dtype == x.dtype and y_eval.tobytes() == y_train.tobytes()  # keeps -0.0 vs 0.0
    layer = nn.MaxPool(pool, stride)
    assert layer.forward(x, {}, False, None)[1] is None
    assert layer.forward(x, {}, True, None)[1][1].tobytes() == cache[1].tobytes()
    relu_eval, relu_train = (nn.Relu().forward(x, {}, train, None) for train in (False, True))
    assert relu_eval[1] is None and np.array_equal(relu_train[1], x > 0)
    assert relu_eval[0].tobytes() == relu_train[0].tobytes()


def test_pool_gradients_vs_finite_differences():
    net = micro_net(nn.Conv2D(2, (3, 3)), nn.Relu(), nn.MaxPool((2, 2), (2, 2)),
                    nn.MaxPool((2, 2), (1, 1)), nn.Flatten(), nn.Dense(2),
                    input_shape=(8, 8, 2))
    check_gradients(net)


# -- dense / softmax ----------------------------------------------------------

def test_dense_identity_weights():
    x = RNG.uniform(size=(3, 4))
    y, _ = nn.dense_forward(x, np.eye(4), np.zeros(4))
    np.testing.assert_array_equal(y, x)


def test_dense_zero_weights_bias_broadcast():
    x = RNG.uniform(size=(5, 3))
    y, _ = nn.dense_forward(x, np.zeros((3, 2)), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(y, np.tile([1.0, 2.0], (5, 1)))


def test_dense_gradients_vs_finite_differences():
    net = nn.NetworkSpec((8,), (nn.Dense(3), nn.Relu(), nn.Dense(2)))
    params = nn.init_params(net, 3, dtype=np.float64)
    x = SeededPrng(4).uniform((4, 8))
    y = np.array([0, 1, 0, 1])
    report = nn.gradient_check(net, params, x, y, sample_count=25, h=1e-5)
    assert report.max_rel_err < 1e-4


def test_linear_network_gradients_are_nearly_exact():
    net = nn.NetworkSpec((6,), (nn.Dense(4), nn.Dense(2)))
    params = nn.init_params(net, 9, dtype=np.float64)
    x = SeededPrng(10).uniform((3, 6))
    y = np.array([0, 1, 1])
    report = nn.gradient_check(net, params, x, y, sample_count=24, h=1e-5)
    assert report.max_rel_err < 1e-8


def test_softmax_symmetric_logits():
    loss, probs, _ = nn.softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])
    assert loss == pytest.approx(np.log(2), rel=1e-9)


def test_softmax_confident_correct():
    loss, _, _ = nn.softmax_cross_entropy(np.array([[30.0, -30.0]]), np.array([0]))
    assert loss < 1e-6


def test_softmax_shift_invariance():
    logits = RNG.normal(size=(6, 2))
    labels = np.array([0, 1, 0, 1, 1, 0])
    loss_a, probs_a, _ = nn.softmax_cross_entropy(logits, labels)
    loss_b, probs_b, _ = nn.softmax_cross_entropy(logits + 100.0, labels)
    assert abs(loss_a - loss_b) < 1e-6
    np.testing.assert_allclose(probs_a, probs_b, atol=1e-6)


def test_softmax_rows_sum_to_one():
    logits = RNG.normal(size=(50, 2)) * 10
    _, probs, _ = nn.softmax_cross_entropy(logits, np.zeros(50, dtype=int))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_gradient_formula():
    logits = RNG.normal(size=(4, 2))
    labels = np.array([0, 1, 1, 0])
    _, probs, grad = nn.softmax_cross_entropy(logits, labels)
    onehot = np.eye(2)[labels]
    np.testing.assert_allclose(grad, (probs - onehot) / 4, rtol=1e-12)


# -- end-to-end gradient check and fault injection ----------------------------

def test_end_to_end_reduced_style_network_gradients():
    net = micro_net(
        nn.Conv2D(4, (3, 3), (1, 1)), nn.BatchNorm(4), nn.Relu(),
        nn.Conv2D(6, (3, 3), (2, 2)), nn.Relu(), nn.Dropout(0.25),
        nn.MaxPool((2, 2), (1, 1)), nn.Flatten(),
        nn.Dense(8), nn.Relu(), nn.Dropout(0.4), nn.Dense(2),
        input_shape=(10, 10, 3),
    )
    # seed chosen so no sampled perturbation straddles a ReLU/argmax kink at this h
    report = check_gradients(net, batch=4, sample_count=20, h=1e-4, tol=1e-4, seed=6)
    assert len(report.per_layer) == 5  # two convs, one BN, two dense layers


def test_first_layer_skips_only_its_input_gradient(monkeypatch):
    net = nn.reduced_network()
    params = nn.init_params(net, 3)
    x = SeededPrng(4).uniform((4, 32, 32, 3)).astype(np.float32)
    logits, cache = nn.network_forward(net, params, x, True, SeededPrng(5))
    _, _, dlogits = nn.softmax_cross_entropy(logits, np.array([0, 1, 1, 0]))
    col2im_calls = []
    col2im = nn._col2im

    def counting_col2im(dcols, x_shape, sh, sw):
        col2im_calls.append(x_shape)
        return col2im(dcols, x_shape, sh, sw)

    monkeypatch.setattr(nn, "_col2im", counting_col2im)
    grads = dict(nn.network_backward(net, list(cache), dlogits))  # a copy: backward empties it
    assert col2im_calls == [(4, 14, 14, 32), (4, 30, 30, 16)]  # layers 7 and 3, not 0
    g = dlogits
    for lay, layer_cache in zip(net.layers[:0:-1], cache[:0:-1]):
        g = lay.backward(g, layer_cache)[0]
    dx, dkernel, dbias = nn.conv2d_backward(g, cache[0])
    assert dx.shape == x.shape
    assert np.array_equal(grads[0]["kernel"], dkernel)
    assert np.array_equal(grads[0]["bias"], dbias)
    assert nn.conv2d_backward(g, cache[0], input_grad=False)[0] is None


@pytest.mark.parametrize("first,input_shape", [
    (nn.Conv2D(4, (3, 3)), (6, 6, 3)), (nn.BatchNorm(3), (6, 6, 3)), (nn.Dense(5), (7,)),
], ids=["conv2d", "batch_norm", "dense"])
def test_param_backward_is_backward_without_its_input_gradient(first, input_shape):
    tail = (nn.Dense(2),) if first.kind == "dense" else (nn.Flatten(), nn.Dense(2))
    net = micro_net(first, nn.Relu(), *tail, input_shape=input_shape)
    params = nn.init_params(net, 8)
    x = SeededPrng(9).uniform((4, *input_shape)).astype(np.float32)
    logits, caches = nn.network_forward(net, params, x, True, SeededPrng(10))
    g = nn.softmax_cross_entropy(logits, np.array([0, 1, 1, 0]))[2]
    for lay, cache in zip(net.layers[:0:-1], caches[:0:-1]):
        g = lay.backward(g, cache)[0]
    got, want = first.param_backward(g, caches[0]), first.backward(g, caches[0])
    assert got[0] is None and want[0].shape == x.shape and len(got) == len(want) == 3
    for a, b in zip(got[1:], want[1:]):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_gradient_check_requires_float64():
    net = nn.NetworkSpec((4,), (nn.Dense(2),))
    params = nn.init_params(net, 0, dtype=np.float32)
    with pytest.raises(ConfigError, match="float64"):
        nn.gradient_check(net, params, np.zeros((2, 4)), np.array([0, 1]))


def test_gradient_check_catches_transposed_dense_backward(monkeypatch):
    """Sensitivity: a deliberately wrong backward must be flagged loudly."""

    def bad_dense_backward(dy, cache):
        x, weights = cache
        return dy @ weights.T, (x.T @ dy).T.reshape(weights.shape), dy.sum(axis=0)

    monkeypatch.setattr(nn, "dense_backward", bad_dense_backward)
    net = nn.NetworkSpec((5,), (nn.Dense(5), nn.Relu(), nn.Dense(2)))
    params = nn.init_params(net, 21, dtype=np.float64)
    x = SeededPrng(22).uniform((4, 5))
    y = np.array([0, 1, 0, 1])
    report = nn.gradient_check(net, params, x, y, sample_count=25, h=1e-5, seed=1)
    assert report.max_rel_err > 1e-2


def test_gradient_check_flags_faulty_dense_backward_in_every_kind_network(monkeypatch):
    """The fault injection of demos/04_gradient_check.py: the layer records call
    their kernels through the nn module, so a replaced `nn.dense_backward` must
    reach the dense layers (and only them) of a network holding every kind."""
    net = micro_net(
        nn.Conv2D(4, (3, 3), (1, 1)), nn.BatchNorm(4), nn.Relu(),
        nn.Conv2D(6, (3, 3), (2, 2)), nn.Relu(), nn.Dropout(0.25),
        nn.MaxPool((2, 2), (1, 1)), nn.MaxPool((2, 2), (1, 1)), nn.Flatten(),
        nn.Dense(8), nn.Relu(), nn.Dropout(0.4), nn.Dense(2),
        input_shape=(10, 10, 3),
    )
    params = nn.init_params(net, seed=6, dtype=np.float64)
    x = SeededPrng(7).uniform((4, 10, 10, 3))
    y = np.arange(4) % 2
    good = nn.gradient_check(net, params, x, y, sample_count=20, h=1e-5, seed=8)
    assert good.max_rel_err < 1e-4

    def transposed_dense_backward(dy, cache):
        x, weights = cache
        return dy @ weights.T, (x.T @ dy).T.reshape(weights.shape), dy.sum(axis=0)

    monkeypatch.setattr(nn, "dense_backward", transposed_dense_backward)
    bad = nn.gradient_check(net, params, x, y, sample_count=20, h=1e-5, seed=8)
    assert bad.max_rel_err > 1e-2
    assert {i for i, (_, err) in bad.per_layer.items() if err > 1e-2} == {9, 12}
