"""Minimal CNN engine: NHWC tensors, hand-derived backprop, Adam.

Layer types: valid-padding convolution, batch normalization, inverted
dropout, max pooling, flatten, dense, ReLU, and a softmax
cross-entropy head. Convolution is cross-correlation (no kernel flip) over
im2col windows, built in chunks of whole images; a conv caches its input, not
its windows, and backward rebuilds them (arXiv 1604.06174), so no layer may
write into its input: each writes only arrays it made. Pooling loops over
window offsets, one strided slice each.
Tensors are plain C-order numpy arrays; float32 for training, float64 for
gradient checking. Every kernel computes in its input's dtype, so a float32
training step runs in float32 end to end. Per-channel broadcasts and
reductions (batch norm, conv bias) run on an (N*H, W*C) row view, each channel
vector tiled W times, so numpy's inner loop spans a whole row, not one pixel's
C values. In eval mode batch norm is the fixed per-channel affine map x*s + t
of its moving statistics.

A network is a NetworkSpec (ordered layer descriptions); its weights live in
a separate ParamState. Forward passes are pure: every layer returns (y,
cache), a train-mode batch norm's cache holds its pending moving statistics
beside what its backward reads, and the training loop commits them after
the Adam step; eval passes keep no cache. Backward is a generator that hands
each layer's gradients, last layer first, to adam_step as soon as they
exist and drops that layer's cache, so a training step holds one layer's
gradients at a time (the fused update of LOMO, arXiv 2306.09782). A
ParamState belongs to one training loop at a time; evaluation against a
snapshot of it is safe from any number of threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError
from .prng import SeededPrng


# --------------------------------------------------------------------------
# Layer and network specifications
# --------------------------------------------------------------------------
#
# Each layer spec is also the record of its kind's rules: `trainable` names
# its trainable tensors in gradient order; `out_shape` and `param_shapes` map
# an input shape (batch dimension omitted) to the output and parameter shapes;
# `forward(h, p, train, rng)` returns (y, cache) in both modes,
# `backward(g, cache)` returns (dx, *parameter gradients) and
# `param_backward(g, cache)` the same with dx None. Kernels are called
# by module name at call time, so a replaced module attribute reaches every
# network. Other attributes are ClassVars: canonical_json serializes fields.

class _Layer:
    """Defaults for the records: shape-preserving, no parameters."""

    trainable: ClassVar[tuple[str, ...]] = ()

    def out_shape(self, in_shape):
        return in_shape

    def param_shapes(self, in_shape):
        return {}

    def param_backward(self, g, cache):
        """(None, *parameter gradients), for a first layer whose input gradient is unused."""
        return None, *self.backward(g, cache)[1:]


def _window_shape(in_shape, window, stride):
    """Valid padding: (OH, OW), each floor((in - window) / stride) + 1."""
    if len(in_shape) != 3:
        raise ShapeError(f"needs a (H, W, C) input, got {in_shape}")
    h, w, _ = in_shape
    wh, ww = window
    if h < wh or w < ww:
        raise ShapeError(f"window {wh}x{ww} exceeds input {h}x{w}")
    sh, sw = stride
    return (h - wh) // sh + 1, (w - ww) // sw + 1


@dataclass(frozen=True)
class Conv2D(_Layer):
    """Valid-padding cross-correlation with bias."""

    kind: ClassVar[str] = "conv2d"
    trainable: ClassVar[tuple[str, ...]] = ("kernel", "bias")
    filters: int
    kernel: tuple[int, int] = (3, 3)
    stride: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if self.filters < 1 or min(self.kernel) < 1 or min(self.stride) < 1:
            raise ConfigError(f"conv2d sizes must be >= 1: {self}")

    def out_shape(self, in_shape):
        return (*_window_shape(in_shape, self.kernel, self.stride), self.filters)

    def param_shapes(self, in_shape):
        return {"kernel": (*self.kernel, in_shape[-1], self.filters), "bias": (self.filters,)}

    def forward(self, h, p, train, rng):
        return conv2d_forward(h, p["kernel"], p["bias"], self.stride)

    def backward(self, g, cache):
        return conv2d_backward(g, cache)

    def param_backward(self, g, cache):
        return conv2d_backward(g, cache, input_grad=False)


@dataclass(frozen=True)
class BatchNorm(_Layer):
    kind: ClassVar[str] = "batch_norm"
    trainable: ClassVar[tuple[str, ...]] = ("gamma", "beta")
    channels: int
    epsilon: float = 1e-3
    momentum: float = 0.99

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"batch_norm needs channels >= 1: {self}")

    def out_shape(self, in_shape):
        if self.channels != in_shape[-1]:
            raise ShapeError(f"{self.channels} channels vs input {in_shape}")
        return in_shape

    def param_shapes(self, in_shape):
        return dict.fromkeys(("gamma", "beta", "moving_mean", "moving_var"), (self.channels,))

    def forward(self, h, p, train, rng):
        args = (h, p["gamma"], p["beta"], p["moving_mean"], p["moving_var"], self.epsilon)
        if not train:
            return batch_norm_forward_eval(*args), None
        y, cache, pending = batch_norm_forward_train(*args, self.momentum)
        return y, (cache, pending)  # pending: the (new_mean, new_var) to commit

    def backward(self, g, cache):
        return batch_norm_backward(g, cache[0])


@dataclass(frozen=True)
class Dropout(_Layer):
    kind: ClassVar[str] = "dropout"
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.rate}")

    def forward(self, h, p, train, rng):
        if train and self.rate > 0.0:
            return dropout_forward(h, self.rate, rng)
        return h, None

    def backward(self, g, scale):
        return (g if scale is None else g * scale,)


@dataclass(frozen=True)
class MaxPool(_Layer):
    kind: ClassVar[str] = "max_pool"
    pool: tuple[int, int] = (2, 2)
    stride: tuple[int, int] = (2, 2)

    def __post_init__(self):
        if min(self.pool) < 1 or min(self.stride) < 1:
            raise ConfigError(f"max_pool sizes must be >= 1: {self}")

    def out_shape(self, in_shape):
        return (*_window_shape(in_shape, self.pool, self.stride), in_shape[-1])

    def forward(self, h, p, train, rng):
        return max_pool_forward(h, self.pool, self.stride, train)

    def backward(self, g, cache):
        return (max_pool_backward(g, cache),)


@dataclass(frozen=True)
class Flatten(_Layer):
    kind: ClassVar[str] = "flatten"

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def forward(self, h, p, train, rng):
        return h.reshape(h.shape[0], -1), h.shape

    def backward(self, g, in_shape):
        return (g.reshape(in_shape),)


@dataclass(frozen=True)
class Relu(_Layer):
    kind: ClassVar[str] = "relu"

    def forward(self, h, p, train, rng):
        return np.maximum(h, 0), (h > 0 if train else None)

    def backward(self, g, positive):
        return (g * positive,)


@dataclass(frozen=True)
class Dense(_Layer):
    kind: ClassVar[str] = "dense"
    trainable: ClassVar[tuple[str, ...]] = ("weights", "bias")
    units: int

    def __post_init__(self):
        if self.units < 1:
            raise ConfigError(f"dense needs units >= 1: {self}")

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeError(f"needs a flat input, got {in_shape}")
        return (self.units,)

    def param_shapes(self, in_shape):
        return {"weights": (in_shape[0], self.units), "bias": (self.units,)}

    def forward(self, h, p, train, rng):
        return dense_forward(h, p["weights"], p["bias"])

    def backward(self, g, cache):
        return dense_backward(g, cache)


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, int, int]
    layers: tuple[_Layer, ...]

    def canonical_json(self) -> str:
        """Stable serialization used for checkpoint digests."""
        desc = {
            "input_shape": list(self.input_shape),
            "layers": [
                {"kind": lay.kind, **{k: list(v) if isinstance(v, tuple) else v
                                      for k, v in vars(lay).items()}}
                for lay in self.layers
            ],
        }
        return json.dumps(desc, sort_keys=True, separators=(",", ":"))


def infer_shapes(net: NetworkSpec) -> list[tuple[int, ...]]:
    """Per-layer output shapes (batch dimension omitted)."""
    shape = tuple(net.input_shape)
    out = []
    for i, lay in enumerate(net.layers):
        try:
            shape = lay.out_shape(shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {i} ({lay.kind}): {exc}") from None
        out.append(shape)
    return out


def param_shapes(net: NetworkSpec) -> list[dict[str, tuple[int, ...]]]:
    """Expected parameter tensor shapes per layer, in checkpoint order."""
    in_shapes = [tuple(net.input_shape), *infer_shapes(net)]
    return [lay.param_shapes(shape) for lay, shape in zip(net.layers, in_shapes)]


def layer_param_counts(net: NetworkSpec) -> list[int]:
    """Parameter tensor sizes per layer (trainable plus non-trainable)."""
    return [sum(math.prod(s) for s in shapes.values()) for shapes in param_shapes(net)]


def count_params(net: NetworkSpec) -> tuple[int, int, int]:
    """(total, trainable, non_trainable) parameter counts."""
    total = sum(layer_param_counts(net))
    trainable = sum(math.prod(shapes[k]) for lay, shapes in zip(net.layers, param_shapes(net))
                    for k in lay.trainable)
    return total, trainable, total - trainable


def summarize(net: NetworkSpec) -> list[tuple[str, tuple[int, ...], int]]:
    """(kind, output_shape, param_count) rows, one per layer."""
    return list(zip([lay.kind for lay in net.layers], infer_shapes(net),
                    layer_param_counts(net)))


def reference_network() -> NetworkSpec:
    """The stock 64x64x3 architecture: 7,975,554 parameters (7,975,426 trainable)."""
    return NetworkSpec(
        input_shape=(64, 64, 3),
        layers=(
            Conv2D(64, (3, 3), (2, 2)),
            BatchNorm(64),
            Relu(),
            Conv2D(128, (3, 3), (2, 2)),
            Relu(),
            Dropout(0.25),
            Conv2D(256, (3, 3), (1, 1)),
            Relu(),
            MaxPool((2, 2), (2, 2)),
            Conv2D(1024, (3, 3), (1, 1)),
            Relu(),
            Dropout(0.25),
            Conv2D(512, (3, 3), (1, 1)),
            Relu(),
            Dropout(0.25),
            Flatten(),
            Dense(256),
            Relu(),
            Dropout(0.5),
            Dense(2),
        ),
    )


def reduced_network() -> NetworkSpec:
    """Desk-scale 32x32x3 preset, same layer types: 171,682 parameters, 224 non-trainable.

    Every convolution is batch-normalized with momentum 0.9 so the moving
    statistics settle within the short runs this preset is meant for.
    """
    mom = 0.9
    return NetworkSpec(
        input_shape=(32, 32, 3),
        layers=(
            Conv2D(16, (3, 3), (1, 1)),
            BatchNorm(16, momentum=mom),
            Relu(),
            Conv2D(32, (3, 3), (2, 2)),
            BatchNorm(32, momentum=mom),
            Relu(),
            Dropout(0.1),
            Conv2D(64, (3, 3), (1, 1)),
            BatchNorm(64, momentum=mom),
            Relu(),
            MaxPool((2, 2), (2, 2)),
            Flatten(),
            Dense(64),
            Relu(),
            Dropout(0.25),
            Dense(2),
        ),
    )


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

@dataclass
class ParamState:
    """Per-layer parameter tensors plus Adam moment buffers and step count."""

    layers: list[dict[str, np.ndarray]]
    adam_m: list[dict[str, np.ndarray]]
    adam_v: list[dict[str, np.ndarray]]
    step: int = 0

    @property
    def dtype(self):
        return next((v.dtype for d in self.layers for v in d.values()), np.dtype(np.float32))


def init_params(net: NetworkSpec, seed: int, dtype=np.float32) -> ParamState:
    """Glorot-uniform kernels/weights, zero biases, identity batch-norm."""
    rng = SeededPrng(int(seed))
    layers, adam_m, adam_v = [], [], []
    for lay, shapes in zip(net.layers, param_shapes(net)):
        p = {k: _init_tensor(k, shape, rng, dtype) for k, shape in shapes.items()}
        layers.append(p)
        adam_m.append({k: np.zeros_like(p[k]) for k in lay.trainable})
        adam_v.append({k: np.zeros_like(p[k]) for k in lay.trainable})
    return ParamState(layers, adam_m, adam_v)


def _init_tensor(name: str, shape: tuple[int, ...], rng: SeededPrng, dtype) -> np.ndarray:
    if name in ("kernel", "weights"):
        # Glorot uniform; a conv kernel's window counts toward both fans.
        fan_in, fan_out = math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return ((rng.uniform(shape) * 2 - 1) * limit).astype(dtype)
    return np.full(shape, 1.0 if name in ("gamma", "moving_var") else 0.0, dtype=dtype)


# --------------------------------------------------------------------------
# Layer forward/backward primitives
# --------------------------------------------------------------------------

def _offsets(window, stride, out_hw):
    """For each window offset (i, j), in row-major order, the strided NHWC slice
    holding element (i, j) of every window: shape (N, OH, OW, C)."""
    (wh, ww), (sh, sw), (oh, ow) = window, stride, out_hw
    for i in range(wh):
        for j in range(ww):
            yield np.s_[:, i : i + sh * oh : sh, j : j + sw * ow : sw, :]


def _im2col(x: np.ndarray, wh: int, ww: int, sh: int, sw: int, out: np.ndarray) -> np.ndarray:
    """Copy strided windows into out, (N, OH, OW, wh, ww, C), and return it.
    Convolution alone needs them."""
    win = sliding_window_view(x, (wh, ww), axis=(1, 2))  # N, H', W', C, wh, ww
    out[...] = win[:, ::sh, ::sw].transpose(0, 1, 2, 4, 5, 3)
    return out


def _col2im(dcols: np.ndarray, x_shape, sh: int, sw: int) -> np.ndarray:
    """Scatter-add window gradients (N, OH, OW, wh, ww, C) onto the input."""
    n, oh, ow, wh, ww, c = dcols.shape
    per_offset = dcols.reshape(n, oh, ow, wh * ww, c)
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    for k, win in enumerate(_offsets((wh, ww), (sh, sw), (oh, ow))):
        dx[win] += per_offset[:, :, :, k]
    return dx


def _rows(x, *channel_vectors):
    """x viewed as (N*H, W*C) rows, and each channel vector tiled W times to
    one row's width; a 2-D (N, C) x stays as it is."""
    w = x.shape[-2] if x.ndim > 2 else 1
    return x.reshape(-1, w * x.shape[-1]), *(np.tile(v, w) for v in channel_vectors)


def _fold(col_sums, c: int):
    """Per-channel sums of a _rows view's column sums."""
    return col_sums.reshape(-1, c).sum(axis=0)


_CONV_CHUNK = 1 << 21  # window elements per forward chunk of whole images (at least one)


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   stride: tuple[int, int]):
    """Valid cross-correlation of (N,H,W,C) with kernel (kh,kw,C,F) plus bias.

    Windows are copied into one buffer and multiplied into y's rows in chunks
    of whole images, _CONV_CHUNK elements or one image. The cache holds x itself.
    """
    n, c = x.shape[0], x.shape[-1]
    kh, kw, kc, f = kernel.shape
    if kc != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {kc}")
    oh, ow = _window_shape(x.shape[1:], (kh, kw), stride)
    step = max(1, _CONV_CHUNK // (oh * ow * kh * kw * c))  # whole images per chunk
    kmat = kernel.reshape(kh * kw * c, f)
    buf = np.empty((min(n, step), oh, ow, kh, kw, c), dtype=x.dtype)
    y = np.empty((n, oh, ow, f), dtype=np.result_type(x, kernel))
    for lo in range(0, n, step):
        win = _im2col(x[lo : lo + step], kh, kw, *stride, buf[: n - lo])
        np.matmul(win.reshape(-1, len(kmat)), kmat, out=y[lo : lo + step].reshape(-1, f))
    rows, tiled_bias = _rows(y, bias)
    rows += tiled_bias  # in place: y's rows are a view
    return y, (x.shape, x, kernel, stride, (oh, ow))


def conv2d_backward(dy: np.ndarray, cache, *, input_grad: bool = True):
    """Exact gradients: (dx, dkernel, dbias); dx is None when not input_grad.
    Rebuilds the whole batch's windows from x, then overwrites them with dcols."""
    x_shape, x, kernel, (sh, sw), (oh, ow) = cache
    n, h, w, c = x_shape
    kh, kw, _, f = kernel.shape
    buf = np.empty((n, oh, ow, kh, kw, c), dtype=x.dtype)  # its own: dcols overwrite it
    flat = _im2col(x, kh, kw, sh, sw, buf).reshape(n * oh * ow, kh * kw * c)
    dy_flat = dy.reshape(n * oh * ow, f)
    dkernel = (flat.T @ dy_flat).reshape(kernel.shape)
    dbias = _fold(_rows(dy)[0].sum(axis=0), f)
    if not input_grad:
        return None, dkernel, dbias
    dcols = np.matmul(dy_flat, kernel.reshape(kh * kw * c, f).T, out=flat)
    return _col2im(dcols.reshape(n, oh, ow, kh, kw, c), x_shape, sh, sw), dkernel, dbias


def batch_norm_forward_train(x, gamma, beta, moving_mean, moving_var, epsilon, momentum):
    """Normalize by batch statistics; returns (y, cache, (new_mean, new_var)).

    Moving statistics are returned, not written: moving <- momentum * moving
    + (1 - momentum) * batch, with the biased batch variance. Statistics are
    column sums over the _rows view of x, folded per channel, in x's dtype.
    """
    if x.shape[0] < 2:
        raise ConfigError(f"batch_norm train mode needs batch size >= 2, got {x.shape[0]}")
    c = x.shape[-1]
    m = x.dtype.type(x.size // c)
    rows, = _rows(x)
    mu = _fold(rows.sum(axis=0), c) / m
    xhat = rows - _rows(x, mu)[1]  # centred here, scaled in place below
    var = _fold(np.einsum("ij,ij->j", xhat, xhat), c) / m
    inv = 1.0 / np.sqrt(var + np.asarray(epsilon, dtype=x.dtype))
    _, inv_t, gamma_t, beta_t = _rows(x, inv, gamma, beta)
    xhat *= inv_t
    y = xhat * gamma_t
    y += beta_t
    mom = np.asarray(momentum, dtype=x.dtype)
    new_mean = mom * moving_mean + (1 - mom) * mu.astype(moving_mean.dtype)
    new_var = mom * moving_var + (1 - mom) * var.astype(moving_var.dtype)
    return y.reshape(x.shape), (xhat, inv_t * gamma_t), (new_mean, new_var)


def batch_norm_forward_eval(x, gamma, beta, moving_mean, moving_var, epsilon):
    """The per-channel affine map x*s + t, s = gamma / sqrt(moving_var + eps)
    and t = beta - moving_mean*s: moving statistics fix it (arXiv 1502.03167, 3.1)."""
    s = gamma / np.sqrt(moving_var + np.asarray(epsilon, dtype=x.dtype))
    rows, s_t, t_t = _rows(x, s, beta - moving_mean * s)
    y = rows * s_t
    y += t_t
    return y.reshape(x.shape)


def batch_norm_backward(dy, cache):
    """Batch-norm gradient through the batch statistics, on the _rows view:
    dx = (m * dy - dbeta - xhat * dgamma) * gamma * inv / m."""
    xhat, scale = cache  # scale: gamma * inv, tiled to xhat's row width
    c = dy.shape[-1]
    rows = dy.reshape(xhat.shape)
    m = dy.dtype.type(dy.size // c)
    dbeta = _fold(rows.sum(axis=0), c)
    dgamma = _fold(np.einsum("ij,ij->j", rows, xhat), c)
    _, dbeta_t, dgamma_t = _rows(dy, dbeta, dgamma)
    dx = rows * m
    dx -= dbeta_t
    dx -= xhat * dgamma_t
    dx *= scale / m
    return dx.reshape(dy.shape), dgamma, dbeta


def dropout_forward(x, rate: float, rng: SeededPrng | None):
    """Inverted dropout (train mode): survivors scaled by 1/(1-rate); that scale is the cache."""
    if rng is None:
        raise ConfigError("train-mode dropout needs a SeededPrng")
    # uniform() is (w >> 11) * 2^-53, so uniform() >= rate exactly when the raw
    # word w >= ceil(rate * 2^53) << 11: the same mask from the same words
    mask = rng.u64(x.size).reshape(x.shape) >= np.uint64(math.ceil(rate * 2.0**53) << 11)
    scale = mask.astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * scale, scale


def max_pool_forward(x, pool: tuple[int, int], stride: tuple[int, int], train: bool = True):
    """Per-window maximum, one window offset at a time. In train mode the cache
    holds each maximum's offset k = i*pw + j, in the smallest unsigned dtype
    that holds ph*pw - 1, ties keeping the first position in row-major order;
    eval mode keeps no cache."""
    offsets = _offsets(pool, stride, _window_shape(x.shape[1:], pool, stride))
    y = x[next(offsets)].copy()
    if train:
        arg = np.zeros(y.shape, dtype=np.min_scalar_type(pool[0] * pool[1] - 1))
        gt = np.empty(y.shape, dtype=bool)
    for k, win in enumerate(offsets, start=1):
        view = x[win]
        if train:  # k grows with the offset, so a strict gain moves arg to k
            np.greater(view, y, out=gt)
            np.maximum(arg, gt * arg.dtype.type(k), out=arg)
        np.maximum(view, y, out=y)  # on 0.0 vs -0.0, numpy returns the second operand: y
    return y, ((x.shape, arg, pool, stride) if train else None)


def max_pool_backward(dy, cache):
    """Routes each upstream gradient to its window's argmax position, one
    window offset at a time."""
    x_shape, arg, pool, stride = cache
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for k, win in enumerate(_offsets(pool, stride, dy.shape[1:3])):
        dx[win] += np.where(arg == k, dy, 0)
    return dx


def dense_forward(x, weights, bias):
    if x.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(f"dense: input {x.shape} does not match weights {weights.shape}")
    return x @ weights + bias, (x, weights)


def dense_backward(dy, cache):
    x, weights = cache
    return dy @ weights.T, x.T @ dy, dy.sum(axis=0)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Row-wise stable softmax + mean NLL; returns (loss, probabilities, dlogits).

    Probabilities are clamped to >= 1e-7 inside the log only; the gradient is
    (probabilities - one_hot) / N.
    """
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-7))))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, probs, (grad / n).astype(logits.dtype, copy=False)


_ADAM_BLOCK = 1 << 15  # elements per Adam block; a block of its six arrays stays in L2
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-7  # b1, b2 and eps below


def adam_step(params: ParamState, grads, lr: float = 1e-3) -> None:
    """One bias-corrected Adam update over every trainable tensor, in place.

    grads is an iterable of (layer index, {key: gradient}) pairs in any layer
    order, such as network_backward's generator: each layer is updated as
    its pair arrives and its gradients are dropped before the next is drawn.
    The step count t moves once per call. Each tensor is walked in blocks of
    _ADAM_BLOCK elements so the temporaries stay in cache. Per element the
    operations and their order are those of
        m <- b1*m + (1-b1)*g;  v <- b2*v + ((1-b2)*g)*g
        p <- p - (lr * (m/c1)) / (sqrt(v/c2) + eps)
    with c1 = 1 - b1^t and c2 = 1 - b2^t, all in the parameter's dtype.
    Batch-norm moving statistics are not trainable and are never touched.
    """
    params.step += 1
    for i, layer_grads in grads:
        _adam_layer(params.layers[i], params.adam_m[i], params.adam_v[i], layer_grads,
                    params.step, lr)
        del layer_grads  # else it lives on while the next pair is computed


def _adam_layer(p, m, v, grads, t: int, lr: float) -> None:
    """adam_step's update of one layer's tensors at step t."""
    for key, grad in grads.items():
        if grad.shape != p[key].shape:
            raise ShapeError(f"adam_step: grad {grad.shape} vs param {p[key].shape} for {key!r}")
        dt = p[key].dtype
        b1, b2 = np.asarray(_ADAM_BETA1, dt), np.asarray(_ADAM_BETA2, dt)
        k1, k2 = 1 - b1, 1 - b2
        c1, c2 = np.asarray(1.0 - _ADAM_BETA1**t, dt), np.asarray(1.0 - _ADAM_BETA2**t, dt)
        lr_dt, eps_dt = np.asarray(lr, dt), np.asarray(_ADAM_EPS, dt)
        tensors = (p[key], m[key], v[key])
        pf, mf, vf = flats = [a.reshape(-1) for a in tensors]  # copies if not contiguous
        gf = grad.reshape(-1)
        buf_a, buf_b = np.empty((2, min(gf.size, _ADAM_BLOCK)), dt)
        for lo in range(0, gf.size, _ADAM_BLOCK):
            blk = slice(lo, lo + _ADAM_BLOCK)
            gb, pb, mb, vb = gf[blk], pf[blk], mf[blk], vf[blk]
            a, b = buf_a[: gb.size], buf_b[: gb.size]
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, k1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, k2, out=a)
            np.multiply(a, gb, out=a)
            np.add(vb, a, out=vb)
            np.divide(mb, c1, out=a)
            np.multiply(a, lr_dt, out=a)
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps_dt, out=b)
            np.divide(a, b, out=a)
            np.subtract(pb, a, out=pb)
        for tensor, flat in zip(tensors, flats):
            if not np.may_share_memory(tensor, flat):
                tensor[...] = flat.reshape(tensor.shape)


# --------------------------------------------------------------------------
# Whole-network forward/backward and training
# --------------------------------------------------------------------------

def network_forward(net: NetworkSpec, params: ParamState, batch: np.ndarray,
                    train: bool = False, rng: SeededPrng | None = None):
    """Apply all layers in order; returns (logits, caches).

    A train pass uses batch statistics and live dropout (drawing masks from
    rng) and keeps each layer's cache, one list entry per layer; an eval pass
    uses moving statistics and identity dropout and keeps none (caches is
    empty), so no layer's intermediates outlive the next.
    """
    expected = tuple(net.input_shape)
    if batch.shape[1:] != expected:
        raise ShapeError(f"batch shape {batch.shape[1:]} does not match input {expected}")
    h = batch.astype(params.dtype, copy=False)
    caches = []
    for lay, p in zip(net.layers, params.layers):
        h, cache = lay.forward(h, p, train, rng)
        if train:
            caches.append(cache)
    return h, caches


def network_backward(net: NetworkSpec, caches: list, dlogits: np.ndarray):
    """Backpropagate dlogits through train-mode caches, yielding (layer index,
    {key: gradient}) for every layer, from the last layer to the first.

    Once layer i's backward has run, caches[i] is dropped: a batch norm's
    entry keeps only its pending statistics, as (None, (new_mean, new_var))
    for commit_bn_updates, and every other entry becomes None. Nothing reads
    the input gradient of layer 0, so that layer computes its parameter
    gradients alone.
    """
    g = dlogits
    for i in reversed(range(len(net.layers))):
        lay = net.layers[i]
        g, *param_grads = (lay.backward if i else lay.param_backward)(g, caches[i])
        caches[i] = (None, caches[i][1]) if lay.kind == "batch_norm" else None
        yield i, dict(zip(lay.trainable, param_grads))
        del param_grads  # else this layer's gradients live on through the next backward


def commit_bn_updates(net: NetworkSpec, params: ParamState, caches: list) -> None:
    """Write each batch-norm layer's pending (mean, var) from its train-mode cache entry."""
    for lay, p, cache in zip(net.layers, params.layers, caches):
        if lay.kind == "batch_norm":
            p["moving_mean"], p["moving_var"] = cache[1]


def _check_data(what: str, net: NetworkSpec, x: np.ndarray, y: np.ndarray) -> None:
    """Reject an empty dataset and labels that are not one class index per sample."""
    if x.shape[0] == 0:
        raise ConfigError(f"{what} needs a non-empty dataset")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"{what}: labels shape {y.shape} does not match N={x.shape[0]}")
    classes = infer_shapes(net)[-1][-1]  # the network's output width
    bad = y[~np.isin(y, np.arange(classes))] if y.dtype.kind in "iu" else y
    if bad.size:
        raise ConfigError(f"{what}: labels must be integers in [0, {classes}), got {bad[0].item()!r}")


def check_batch_size(net: NetworkSpec, batch_size: int, n: int | None = None) -> None:
    """Reject a batch size below 1 or one that would hand batch norm a batch of
    one sample: every batch at batch_size 1 and, given n samples, a trailing one."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if any(lay.kind == "batch_norm" for lay in net.layers) and 1 in (batch_size, (n or 0) % batch_size):
        over = "" if n is None else f" over {n} training samples"
        raise ConfigError(
            f"batch_size {batch_size}{over} makes "
            f"{'batches' if batch_size == 1 else 'a trailing batch'} of 1 sample, "
            "which batch normalization cannot train on"
        )


def train_epoch(net: NetworkSpec, params: ParamState, x: np.ndarray, y: np.ndarray,
                batch_size: int, rng: SeededPrng, lr: float = 1e-3) -> None:
    """One seeded-shuffle pass: forward, loss, backward, Adam and the
    batch-norm commit per batch, updating params in place."""
    _check_data("train_epoch", net, x, y)
    n = x.shape[0]
    check_batch_size(net, batch_size, n)
    order = rng.permutation(n)
    for idx in (order[lo : lo + batch_size] for lo in range(0, n, batch_size)):
        logits, caches = network_forward(net, params, x[idx], True, rng)
        _, _, dlogits = softmax_cross_entropy(logits, y[idx])
        # each layer's parameters move as soon as its gradients exist
        adam_step(params, network_backward(net, caches, dlogits), lr)
        commit_bn_updates(net, params, caches)


def evaluate(net: NetworkSpec, params: ParamState, x: np.ndarray, y: np.ndarray,
             batch_size: int = 64):
    """Eval-mode loss, accuracy, and predicted labels over a whole dataset."""
    _check_data("evaluate", net, x, y)
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = x.shape[0]
    loss_sum, preds = 0.0, []
    for lo in range(0, n, batch_size):
        xb, yb = x[lo : lo + batch_size], y[lo : lo + batch_size]
        logits, _ = network_forward(net, params, xb)
        loss, probs, _ = softmax_cross_entropy(logits, yb)
        loss_sum += loss * xb.shape[0]
        preds.append(probs.argmax(axis=1))
    preds = np.concatenate(preds)
    return loss_sum / n, float(np.mean(preds == y)), preds


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckReport:
    per_layer: dict[int, tuple[str, float]]  # layer index -> (kind/key, max rel err)
    max_rel_err: float


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / (scale if scale >= 1e-8 else 1.0)


def gradient_check(net: NetworkSpec, params: ParamState, x: np.ndarray, y: np.ndarray,
                   sample_count: int = 20, h: float = 1e-4, seed: int = 0) -> GradCheckReport:
    """Central finite differences vs analytic gradients on sampled parameters.

    Requires float64 parameters. Each loss evaluation replays SeededPrng(seed)
    and so redraws the analytic pass's dropout masks (dropout is a forward
    pass's only draw), and moving-statistic updates are discarded, so both
    sides differentiate the same deterministic function (batch statistics are
    recomputed from each perturbed input as usual).
    """
    if params.dtype != np.float64:
        raise ConfigError(f"gradient_check needs float64 parameters, got {params.dtype}")
    rng = SeededPrng(seed)
    logits, caches = network_forward(net, params, x, True, rng)
    _, _, dlogits = softmax_cross_entropy(logits, y)
    analytic = dict(network_backward(net, caches, dlogits))

    def loss_at() -> float:
        logits, _ = network_forward(net, params, x, True, SeededPrng(seed))
        loss, _, _ = softmax_cross_entropy(logits, y)
        return loss

    per_layer: dict[int, tuple[str, float]] = {}
    worst = 0.0
    for i, lay in enumerate(net.layers):
        layer_worst = 0.0
        for key in lay.trainable:
            tensor = params.layers[i][key]
            flat = tensor.reshape(-1)
            picks = rng.permutation(flat.size)[: min(sample_count, flat.size)]
            for j in picks:
                orig = flat[j]
                flat[j] = orig + h
                up = loss_at()
                flat[j] = orig - h
                down = loss_at()
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                err = _rel_err(float(analytic[i][key].reshape(-1)[j]), numeric)
                layer_worst = max(layer_worst, err)
        if lay.trainable:
            per_layer[i] = (lay.kind, layer_worst)
            worst = max(worst, layer_worst)
    return GradCheckReport(per_layer, worst)
