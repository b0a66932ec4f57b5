"""The reference architecture's shape and parameter table, held exactly."""

import hashlib

import numpy as np
import pytest

from cellgrade import nn
from cellgrade.errors import ShapeError
from cellgrade.prng import SeededPrng

# Frozen audit table for the stock 64x64x3 network: rows are the layers that
# appear in a framework-style summary (activations omitted), as
# (kind, output shape, parameter count).
REFERENCE_TABLE = [
    ("conv2d", (31, 31, 64), 1792),
    ("batch_norm", (31, 31, 64), 256),
    ("conv2d", (15, 15, 128), 73856),
    ("dropout", (15, 15, 128), 0),
    ("conv2d", (13, 13, 256), 295168),
    ("max_pool", (6, 6, 256), 0),
    ("conv2d", (4, 4, 1024), 2360320),
    ("dropout", (4, 4, 1024), 0),
    ("conv2d", (2, 2, 512), 4719104),
    ("dropout", (2, 2, 512), 0),
    ("flatten", (2048,), 0),
    ("dense", (256,), 524544),
    ("dropout", (256,), 0),
    ("dense", (2,), 514),
]

TOTAL, TRAINABLE, NON_TRAINABLE = 7_975_554, 7_975_426, 128


def test_reference_network_layer_table():
    net = nn.reference_network()
    rows = [(kind, shape, count) for kind, shape, count in nn.summarize(net) if kind != "relu"]
    assert rows == REFERENCE_TABLE


def test_reference_network_totals():
    assert nn.count_params(nn.reference_network()) == (TOTAL, TRAINABLE, NON_TRAINABLE)


def test_kernel_and_stride_recovery_equations():
    """The conv hyperparameters are pinned by params = f*(kh*kw*c_in + 1) and
    out = floor((in - k)/s) + 1; check both hold for every conv layer."""
    net = nn.reference_network()
    shapes = nn.infer_shapes(net)
    counts = nn.layer_param_counts(net)
    in_shape = net.input_shape
    for i, lay in enumerate(net.layers):
        if isinstance(lay, nn.Conv2D):
            kh, kw = lay.kernel
            sh, sw = lay.stride
            assert counts[i] == lay.filters * (kh * kw * in_shape[-1] + 1)
            assert shapes[i][0] == (in_shape[0] - kh) // sh + 1
            assert shapes[i][1] == (in_shape[1] - kw) // sw + 1
        in_shape = shapes[i]
    # first layer specifically: 64*(3*3*3+1) = 1792 and floor((64-3)/2)+1 = 31
    assert 64 * (3 * 3 * 3 + 1) == 1792
    assert (64 - 3) // 2 + 1 == 31


def test_first_conv_count():
    assert nn.layer_param_counts(nn.reference_network())[0] == 1792


def test_dense_2048_to_256_count():
    net = nn.NetworkSpec((2, 2, 512), (nn.Flatten(), nn.Dense(256)))
    assert nn.count_params(net) == (524544, 524544, 0)


def test_max_pool_shape_example():
    net = nn.NetworkSpec((13, 13, 256), (nn.MaxPool((2, 2), (2, 2)),))
    assert nn.infer_shapes(net) == [(6, 6, 256)]


def test_flatten_shape_example():
    net = nn.NetworkSpec((2, 2, 512), (nn.Flatten(),))
    assert nn.infer_shapes(net) == [(2048,)]


def test_kernel_exceeding_input_names_layer():
    net = nn.NetworkSpec((4, 4, 3), (nn.Conv2D(8, (5, 5)),))
    with pytest.raises(ShapeError, match="layer 0"):
        nn.infer_shapes(net)


def test_batch_norm_channel_mismatch():
    net = nn.NetworkSpec((4, 4, 3), (nn.BatchNorm(7),))
    with pytest.raises(ShapeError, match="batch_norm"):
        nn.infer_shapes(net)


def test_dense_needs_flat_input():
    net = nn.NetworkSpec((4, 4, 3), (nn.Dense(5),))
    with pytest.raises(ShapeError, match="flat"):
        nn.infer_shapes(net)


def test_reduced_network_is_valid_and_small():
    net = nn.reduced_network()
    shapes = nn.infer_shapes(net)
    assert shapes[-1] == (2,)
    total, trainable, non_trainable = nn.count_params(net)
    assert (total, trainable, non_trainable) == (171_682, 171_458, 224)
    assert "171,682 parameters, 224 non-trainable" in nn.reduced_network.__doc__
    assert non_trainable == sum(2 * lay.channels for lay in net.layers
                                if isinstance(lay, nn.BatchNorm))


def test_param_shapes_match_init():
    net = nn.reduced_network()
    params = nn.init_params(net, 0)
    for expected, actual in zip(nn.param_shapes(net), params.layers):
        assert {k: v.shape for k, v in actual.items()} == {k: tuple(s) for k, s in expected.items()}


EVERY_KIND = nn.NetworkSpec((10, 10, 3), (
    nn.Conv2D(4, (3, 3), (1, 1)), nn.BatchNorm(4), nn.Relu(),
    nn.Conv2D(6, (3, 3), (2, 2)), nn.Relu(), nn.Dropout(0.25),
    nn.MaxPool((2, 2), (1, 1)), nn.MaxPool((2, 2), (1, 1)), nn.Flatten(),
    nn.Dense(8), nn.Relu(), nn.Dropout(0.4), nn.Dense(2),
))


# 1x1 and full-window convs behind a first conv: their strided window views of
# the input are already C-contiguous.
ALIASING_CONVS = nn.NetworkSpec((6, 6, 3), (
    nn.Conv2D(3, (3, 3), (1, 1)), nn.Relu(), nn.Conv2D(4, (1, 1), (1, 1)),
    nn.Conv2D(2, (4, 4), (1, 1)), nn.Flatten(), nn.Dense(2),
))


@pytest.mark.parametrize("net", [EVERY_KIND, ALIASING_CONVS], ids=["every-kind", "aliasing-convs"])
def test_no_layer_writes_into_its_input(net):
    """A conv's backward rebuilds its windows from the input it cached, so no
    layer's forward or backward may change the bytes of a layer's input."""
    params = nn.init_params(net, 0)
    h = SeededPrng(1).uniform((4, *net.input_shape)).astype(np.float32)
    rng, inputs, caches = SeededPrng(2), [], []
    for lay, p in zip(net.layers, params.layers):
        inputs.append((lay.kind, h, h.tobytes()))
        h, cache = lay.forward(h, p, True, rng)
        caches.append(cache)
    _, _, dlogits = nn.softmax_cross_entropy(h, np.arange(4) % 2)
    for _ in nn.network_backward(net, params, caches, dlogits):
        pass
    for kind, x, before in inputs:
        assert x.tobytes() == before, kind


@pytest.mark.parametrize("net, dtype, digest", [
    (nn.reduced_network(), np.float32,
     "da273410daa0442e27f0f4900ce188e5ba8d2696295abc97ea34295ca25e4021"),
    (EVERY_KIND, np.float32, "5ead3b58487de6fcb5653eeab03fe4ecf3b73d601bd99766238b42ba09d5376b"),
    (EVERY_KIND, np.float64, "48cbcd7251e899bad0b34eaa883521f39f39660a27db20a6cb3ff90d2ed7107b"),
], ids=["reduced-f32", "every-kind-f32", "every-kind-f64"])
def test_init_params_golden_bytes(net, dtype, digest):
    """Initial weights are pinned across versions, not only across reruns.

    Init is the seeded PRNG plus element-wise arithmetic (no matrix product),
    so these bytes hold on every platform.
    """
    params = nn.init_params(net, 0, dtype=dtype)
    h = hashlib.sha256()
    for layer in params.layers:
        for key in sorted(layer):
            h.update(layer[key].tobytes())
    assert h.hexdigest() == digest
