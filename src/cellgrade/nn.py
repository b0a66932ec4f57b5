"""Minimal CNN engine: NHWC tensors, hand-derived backprop, Adam.

Layer types: valid-padding convolution, batch normalization, inverted
dropout, max/average pooling, flatten, dense, ReLU, and a softmax
cross-entropy head. Convolution is cross-correlation (no kernel flip) over
im2col windows; pooling loops over window offsets, one strided slice each.
Tensors are plain C-order numpy arrays; float32 for training, float64 for
gradient checking. Every kernel computes in its input's dtype, so a float32
training step runs in float32 end to end. Per-channel broadcasts and
reductions (batch norm, conv bias) run on an (N*H, W*C) row view, each channel
vector tiled W times, so numpy's inner loop spans a whole row, not one pixel's
C values. In eval mode batch norm is the fixed per-channel affine map x*s + t
of its moving statistics.

A network is a NetworkSpec (ordered layer descriptions); its weights live in
a separate ParamState. Forward passes are pure: train-mode batch-norm
returns its moving-statistic updates in the cache instead of mutating
anything, and the training loop commits them; eval passes keep no cache. A
ParamState belongs to one training loop at a time; evaluation against a
snapshot of it is safe from any number of threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
# `forward(h, p, train, rng)` returns (y, cache[, batch-norm updates]),
# `backward(g, cache)` returns (dx, *parameter gradients) and
# `param_backward(g, cache)` the parameter gradients alone. Kernels are called
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
        """Parameter gradients alone, for a first layer whose input gradient is unused."""
        return self.backward(g, cache)[1:]


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
        return conv2d_backward(g, cache, input_grad=False)[1:]


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
        if train:
            return batch_norm_forward_train(*args, self.momentum)
        return batch_norm_forward_eval(*args), None

    def backward(self, g, cache):
        return batch_norm_backward(g, cache)


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

    def backward(self, g, mask):
        return (g if mask is None else dropout_backward(g, mask, self.rate),)


@dataclass(frozen=True)
class _Pool(_Layer):
    pool: tuple[int, int] = (2, 2)
    stride: tuple[int, int] = (2, 2)

    def __post_init__(self):
        if min(self.pool) < 1 or min(self.stride) < 1:
            raise ConfigError(f"{self.kind} sizes must be >= 1: {self}")

    def out_shape(self, in_shape):
        return (*_window_shape(in_shape, self.pool, self.stride), in_shape[-1])


@dataclass(frozen=True)
class MaxPool(_Pool):
    kind: ClassVar[str] = "max_pool"

    def forward(self, h, p, train, rng):
        return max_pool_forward(h, self.pool, self.stride, train)

    def backward(self, g, cache):
        return (max_pool_backward(g, cache),)


@dataclass(frozen=True)
class AvgPool(_Pool):
    kind: ClassVar[str] = "avg_pool"

    def forward(self, h, p, train, rng):
        return avg_pool_forward(h, self.pool, self.stride)

    def backward(self, g, cache):
        return (avg_pool_backward(g, cache),)


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


LayerSpec = Conv2D | BatchNorm | Dropout | MaxPool | AvgPool | Flatten | Relu | Dense


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

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


def reference_network(dropout_rates: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.5),
                      ) -> NetworkSpec:
    """The stock 64x64x3 architecture: 7,975,554 parameters (7,975,426 trainable)."""
    r1, r2, r3, r4 = dropout_rates
    return NetworkSpec(
        input_shape=(64, 64, 3),
        layers=(
            Conv2D(64, (3, 3), (2, 2)),
            BatchNorm(64),
            Relu(),
            Conv2D(128, (3, 3), (2, 2)),
            Relu(),
            Dropout(r1),
            Conv2D(256, (3, 3), (1, 1)),
            Relu(),
            MaxPool((2, 2), (2, 2)),
            Conv2D(1024, (3, 3), (1, 1)),
            Relu(),
            Dropout(r2),
            Conv2D(512, (3, 3), (1, 1)),
            Relu(),
            Dropout(r3),
            Flatten(),
            Dense(256),
            Relu(),
            Dropout(r4),
            Dense(2),
        ),
    )


def reduced_network(dropout_rates: tuple[float, float] = (0.1, 0.25)) -> NetworkSpec:
    """Desk-scale 32x32x3 preset with the same layer types (~160k parameters).

    Every convolution is batch-normalized with momentum 0.9 so the moving
    statistics settle within the short runs this preset is meant for.
    """
    r1, r2 = dropout_rates
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
            Dropout(r1),
            Conv2D(64, (3, 3), (1, 1)),
            BatchNorm(64, momentum=mom),
            Relu(),
            MaxPool((2, 2), (2, 2)),
            Flatten(),
            Dense(64),
            Relu(),
            Dropout(r2),
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
        for d in self.layers:
            for v in d.values():
                return v.dtype
        return np.dtype(np.float32)


def init_params(net: NetworkSpec, seed: int | SeededPrng, dtype=np.float32) -> ParamState:
    """Glorot-uniform kernels/weights, zero biases, identity batch-norm."""
    rng = seed if isinstance(seed, SeededPrng) else SeededPrng(int(seed))
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


def _im2col(x: np.ndarray, wh: int, ww: int, sh: int, sw: int) -> np.ndarray:
    """Copy out strided windows: (N, OH, OW, wh, ww, C). Convolution alone needs them."""
    win = sliding_window_view(x, (wh, ww), axis=(1, 2))  # N, H', W', C, wh, ww
    win = win[:, ::sh, ::sw]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))


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


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   stride: tuple[int, int]):
    """Valid cross-correlation of (N,H,W,C) with kernel (kh,kw,C,F) plus bias."""
    n, c = x.shape[0], x.shape[-1]
    kh, kw, kc, f = kernel.shape
    if kc != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {kc}")
    oh, ow = _window_shape(x.shape[1:], (kh, kw), stride)
    flat = _im2col(x, kh, kw, *stride).reshape(n * oh * ow, kh * kw * c)
    y = (flat @ kernel.reshape(kh * kw * c, f)).reshape(n, oh, ow, f)
    rows, tiled_bias = _rows(y, bias)
    rows += tiled_bias  # in place: y's rows are a view
    return y, (x.shape, flat, kernel, stride, (oh, ow))


def conv2d_backward(dy: np.ndarray, cache, *, input_grad: bool = True):
    """Exact gradients: (dx, dkernel, dbias); dx is None when not input_grad."""
    x_shape, flat, kernel, (sh, sw), (oh, ow) = cache
    n, h, w, c = x_shape
    kh, kw, _, f = kernel.shape
    dy_flat = dy.reshape(n * oh * ow, f)
    dkernel = (flat.T @ dy_flat).reshape(kernel.shape)
    dbias = _fold(_rows(dy)[0].sum(axis=0), f)
    if not input_grad:
        return None, dkernel, dbias
    dcols = (dy_flat @ kernel.reshape(kh * kw * c, f).T).reshape(n, oh, ow, kh, kw, c)
    return _col2im(dcols, x_shape, sh, sw), dkernel, dbias


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
    """Inverted dropout, survivors scaled by 1/(1-rate): a Dropout layer in train mode."""
    if rng is None:
        raise ConfigError("train-mode dropout needs a SeededPrng")
    mask = rng.uniform(x.shape) >= rate
    y = x * (mask.astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype))
    return y, mask


def dropout_backward(dy, mask, rate: float):
    return dy * (mask.astype(dy.dtype) / np.asarray(1.0 - rate, dtype=dy.dtype))


def max_pool_forward(x, pool: tuple[int, int], stride: tuple[int, int], train: bool = True):
    """Per-window maximum, one window offset at a time. In train mode the cache
    holds each maximum's offset k = i*pw + j, ties keeping the first position
    in row-major order; eval mode keeps no cache."""
    offsets = _offsets(pool, stride, _window_shape(x.shape[1:], pool, stride))
    y = x[next(offsets)].copy()
    arg = np.zeros(y.shape, dtype=np.intp) if train else None
    for k, win in enumerate(offsets, start=1):
        view = x[win]
        if train:
            arg = np.where(view > y, k, arg)
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


def avg_pool_forward(x, pool: tuple[int, int], stride: tuple[int, int]):
    """Per-window mean: 0 plus each window offset's slice in row-major order."""
    offsets = _offsets(pool, stride, _window_shape(x.shape[1:], pool, stride))
    y = sum(x[win] for win in offsets) / np.asarray(pool[0] * pool[1], dtype=x.dtype)
    return y, (x.shape, pool, stride)


def avg_pool_backward(dy, cache):
    x_shape, pool, stride = cache
    share = dy / np.asarray(pool[0] * pool[1], dtype=dy.dtype)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for win in _offsets(pool, stride, dy.shape[1:3]):
        dx[win] += share
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


def adam_step(params: ParamState, grads: list[dict[str, np.ndarray]],
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-7) -> ParamState:
    """One bias-corrected Adam update over every trainable tensor, in place.

    Each tensor is walked in blocks of _ADAM_BLOCK elements so the temporaries
    stay in cache. Per element the operations and their order are those of
        m <- b1*m + (1-b1)*g;  v <- b2*v + ((1-b2)*g)*g
        p <- p - (lr * (m/c1)) / (sqrt(v/c2) + eps)
    with c1 = 1 - b1^t and c2 = 1 - b2^t, all in the parameter's dtype.
    Batch-norm moving statistics are not trainable and are never touched.
    """
    params.step += 1
    t = params.step
    for p, m, v, g in zip(params.layers, params.adam_m, params.adam_v, grads):
        for key, grad in g.items():
            if grad.shape != p[key].shape:
                raise ShapeError(f"adam_step: grad {grad.shape} vs param {p[key].shape} for {key!r}")
            dt = p[key].dtype
            b1, b2 = np.asarray(beta1, dt), np.asarray(beta2, dt)
            k1, k2 = 1 - b1, 1 - b2
            c1, c2 = np.asarray(1.0 - beta1**t, dt), np.asarray(1.0 - beta2**t, dt)
            lr_dt, eps_dt = np.asarray(lr, dt), np.asarray(eps, dt)
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
    return params


# --------------------------------------------------------------------------
# Whole-network forward/backward and training
# --------------------------------------------------------------------------

@dataclass
class ForwardCache:
    """What backward needs from a train-mode pass: per-layer entries, pending BN updates."""

    layers: list = field(default_factory=list)
    bn_updates: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)


def network_forward(net: NetworkSpec, params: ParamState, batch: np.ndarray,
                    mode: str = "eval", rng: SeededPrng | None = None):
    """Apply all layers in order; returns (logits, ForwardCache).

    mode "train" uses batch statistics and live dropout (drawing masks from
    rng) and fills the cache; mode "eval" uses moving statistics and identity
    dropout and keeps no cache, so no layer's intermediates outlive the next.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    expected = tuple(net.input_shape)
    if batch.shape[1:] != expected:
        raise ShapeError(f"batch shape {batch.shape[1:]} does not match input {expected}")
    h = batch.astype(params.dtype, copy=False)
    cache = ForwardCache()
    for i, (lay, p) in enumerate(zip(net.layers, params.layers)):
        h, layer_cache, *bn_update = lay.forward(h, p, mode == "train", rng)
        if mode == "train":
            cache.layers.append(layer_cache)
            cache.bn_updates.extend((i, *upd) for upd in bn_update)
    return h, cache


def network_backward(net: NetworkSpec, params: ParamState, cache: ForwardCache,
                     dlogits: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Backpropagate dlogits through a train-mode cache; returns per-layer grads.

    Nothing reads the input gradient of layer 0, so that layer computes its
    parameter gradients alone.
    """
    grads: list[dict[str, np.ndarray]] = []
    g = dlogits
    for i in reversed(range(len(net.layers))):
        lay, layer_cache = net.layers[i], cache.layers[i]
        if i:
            g, *param_grads = lay.backward(g, layer_cache)
        else:
            param_grads = lay.param_backward(g, layer_cache)
        grads.append(dict(zip(lay.trainable, param_grads)))
    return grads[::-1]


def commit_bn_updates(params: ParamState, cache: ForwardCache) -> None:
    for i, new_mean, new_var in cache.bn_updates:
        params.layers[i]["moving_mean"] = new_mean
        params.layers[i]["moving_var"] = new_var


def check_batch_size(net: NetworkSpec, n: int, batch_size: int) -> None:
    """Reject a batch size that would hand batch norm a batch of one sample."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if any(lay.kind == "batch_norm" for lay in net.layers) and 1 in (batch_size, n % batch_size):
        raise ConfigError(
            f"batch_size {batch_size} over {n} training samples makes "
            f"{'batches' if batch_size == 1 else 'a trailing batch'} of 1 sample, "
            "which batch normalization cannot train on"
        )


def train_epoch(net: NetworkSpec, params: ParamState, x: np.ndarray, y: np.ndarray,
                batch_size: int, rng: SeededPrng, lr: float = 1e-3,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-7):
    """One seeded-shuffle pass: forward, loss, backward, Adam per batch.

    Returns (params, mean train loss, train accuracy), both metrics
    accumulated from the train-mode forward passes.
    """
    n = x.shape[0]
    if n == 0:
        raise ConfigError("train_epoch needs a non-empty dataset")
    check_batch_size(net, n, batch_size)
    loss_sum, correct = 0.0, 0
    order = rng.permutation(n)
    for idx in (order[lo : lo + batch_size] for lo in range(0, n, batch_size)):
        xb, yb = x[idx], y[idx]
        logits, cache = network_forward(net, params, xb, "train", rng)
        loss, probs, dlogits = softmax_cross_entropy(logits, yb)
        grads = network_backward(net, params, cache, dlogits)
        adam_step(params, grads, lr, beta1, beta2, eps)
        commit_bn_updates(params, cache)
        loss_sum += loss * len(idx)
        correct += int(np.sum(probs.argmax(axis=1) == yb))
    return params, loss_sum / n, correct / n


def evaluate(net: NetworkSpec, params: ParamState, x: np.ndarray, y: np.ndarray,
             batch_size: int = 64):
    """Eval-mode loss, accuracy, and predicted labels over a whole dataset."""
    n = x.shape[0]
    if n == 0:
        raise ConfigError("evaluate needs a non-empty dataset")
    loss_sum, preds = 0.0, []
    for lo in range(0, n, batch_size):
        xb, yb = x[lo : lo + batch_size], y[lo : lo + batch_size]
        logits, _ = network_forward(net, params, xb, "eval")
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
    if scale < 1e-8:
        return abs(a - b)
    return abs(a - b) / scale


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
    logits, cache = network_forward(net, params, x, "train", rng)
    _, _, dlogits = softmax_cross_entropy(logits, y)
    analytic = network_backward(net, params, cache, dlogits)

    def loss_at() -> float:
        logits, _ = network_forward(net, params, x, "train", SeededPrng(seed))
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
