import copy
import tracemalloc

import numpy as np
import pytest

import cellgrade.nn as nn
from cellgrade.errors import ConfigError, ShapeError
from cellgrade.prng import SeededPrng


def tiny_net():
    return nn.NetworkSpec((4, 4, 2), (
        nn.Conv2D(3, (3, 3)), nn.Relu(), nn.Flatten(), nn.Dense(2)))


def clone(params):
    return copy.deepcopy(params)


def params_equal(a, b):
    for la, lb in zip(a.layers, b.layers):
        for k in la:
            if not np.array_equal(la[k], lb[k]):
                return False
    return a.step == b.step


# -- adam ---------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params_unchanged():
    net = tiny_net()
    params = nn.init_params(net, 0)
    before = clone(params)
    grads = [{k: np.zeros_like(v) for k, v in layer.items()} for layer in params.layers]
    nn.adam_step(params, enumerate(grads), lr=0.1)
    assert params.step == 1
    for la, lb in zip(params.layers, before.layers):
        for k in la:
            np.testing.assert_array_equal(la[k], lb[k])


def test_adam_first_step_magnitude_is_lr():
    net = nn.NetworkSpec((1,), (nn.Dense(1),))
    params = nn.init_params(net, 1, dtype=np.float64)
    w0 = params.layers[0]["weights"].copy()
    grads = [{"weights": np.ones((1, 1)), "bias": np.zeros(1)}]
    nn.adam_step(params, enumerate(grads), lr=0.01)
    delta = (w0 - params.layers[0]["weights"]).item()
    assert delta == pytest.approx(0.01, rel=1e-5)  # bias-corrected first step


def test_adam_minimizes_quadratic():
    """100 steps on f(w) = w^2 from w=5 with lr=0.1."""
    net = nn.NetworkSpec((1,), (nn.Dense(1),))
    params = nn.init_params(net, 0, dtype=np.float64)
    params.layers[0]["weights"][:] = 5.0
    trace = []
    for _ in range(100):
        w = params.layers[0]["weights"]
        grads = [{"weights": 2.0 * w, "bias": np.zeros(1)}]
        nn.adam_step(params, enumerate(grads), lr=0.1)
        trace.append(abs(params.layers[0]["weights"].item()))
    assert trace[-1] < 1.0
    # strictly decreasing after burn-in, all the way down to the optimum's
    # neighbourhood (it then dithers at the 1e-2 scale, as Adam does)
    burn_in = 10
    settled = next(i for i, v in enumerate(trace) if v < 0.05)
    assert np.all(np.diff(trace[burn_in:settled]) < 0)
    assert max(trace[settled:]) < 0.1


def test_adam_shape_mismatch():
    net = tiny_net()
    params = nn.init_params(net, 0)
    grads = [{} for _ in net.layers]
    grads[0] = {"kernel": np.zeros((1, 1, 1, 1)), "bias": np.zeros(3)}
    with pytest.raises(Exception, match="kernel"):
        nn.adam_step(params, enumerate(grads))


def test_adam_never_touches_moving_statistics():
    net = nn.NetworkSpec((4, 4, 2), (nn.Conv2D(3, (3, 3)), nn.BatchNorm(3), nn.Flatten(), nn.Dense(2)))
    params = nn.init_params(net, 0)
    params.layers[1]["moving_mean"][:] = 0.37
    grads = [{k: np.ones_like(params.layers[i][k]) for k in ("kernel", "bias")} if i == 0
             else {k: np.ones_like(params.layers[i][k]) for k in ("gamma", "beta")} if i == 1
             else {} for i in range(4)]
    grads[3] = {"weights": np.ones_like(params.layers[3]["weights"]),
                "bias": np.ones_like(params.layers[3]["bias"])}
    nn.adam_step(params, enumerate(grads))
    np.testing.assert_array_equal(params.layers[1]["moving_mean"], np.full(3, 0.37, dtype=np.float32))
    np.testing.assert_array_equal(params.layers[1]["moving_var"], np.ones(3, dtype=np.float32))


def adam_unfused(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-7):
    """The whole-tensor Adam update that the blocked adam_step replaced."""
    params.step += 1
    t = params.step
    for p, m, v, g in zip(params.layers, params.adam_m, params.adam_v, grads):
        for key, grad in g.items():
            dt = p[key].dtype
            b1, b2 = np.asarray(beta1, dt), np.asarray(beta2, dt)
            m[key] = b1 * m[key] + (1 - b1) * grad
            v[key] = b2 * v[key] + (1 - b2) * grad * grad
            m_hat = m[key] / np.asarray(1.0 - beta1**t, dt)
            v_hat = v[key] / np.asarray(1.0 - beta2**t, dt)
            p[key] -= np.asarray(lr, dt) * m_hat / (np.sqrt(v_hat) + np.asarray(eps, dt))


def one_tensor_state(values):
    return nn.ParamState([{"w": values}], [{"w": np.zeros_like(values)}],
                         [{"w": np.zeros_like(values)}])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, nn._ADAM_BLOCK - 1, nn._ADAM_BLOCK, 2 * nn._ADAM_BLOCK + 7])
def test_adam_step_is_bytewise_the_unfused_update(dtype, size):
    rng = np.random.default_rng(size)
    blocked = one_tensor_state(rng.normal(size=size).astype(dtype))
    unfused = clone(blocked)
    held = blocked.layers[0]["w"]
    for _ in range(3):
        grads = [{"w": rng.normal(size=size).astype(dtype)}]
        nn.adam_step(blocked, enumerate(grads), lr=3e-3)
        adam_unfused(unfused, grads, lr=3e-3)
    for name in ("layers", "adam_m", "adam_v"):
        a, b = getattr(blocked, name)[0]["w"], getattr(unfused, name)[0]["w"]
        assert a.dtype == dtype and np.array_equal(a, b), name
    assert blocked.layers[0]["w"] is held


def test_adam_step_updates_non_contiguous_tensors_in_place():
    rng = np.random.default_rng(1)
    p, m, v = (rng.normal(size=(40, 30)).astype(np.float32).T for _ in range(3))
    blocked = nn.ParamState([{"w": p}], [{"w": m}], [{"w": np.abs(v)}])
    unfused = clone(blocked)
    held = [getattr(blocked, name)[0]["w"] for name in ("layers", "adam_m", "adam_v")]
    for _ in range(3):
        grads = [{"w": rng.normal(size=(30, 40)).astype(np.float32)}]
        nn.adam_step(blocked, enumerate(grads), lr=1e-2)
        adam_unfused(unfused, grads, lr=1e-2)
    for name, array in zip(("layers", "adam_m", "adam_v"), held):
        assert getattr(blocked, name)[0]["w"] is array
        assert np.array_equal(array, getattr(unfused, name)[0]["w"]), name


def reduced_step_inputs(seed=31):
    net = nn.reduced_network()
    params = nn.init_params(net, seed)
    x = SeededPrng(seed + 1).uniform((8, 32, 32, 3)).astype(np.float32)
    return net, params, x, np.arange(8) % 2


def backward_of_one_step(net, params, x, y, seed):
    logits, caches = nn.network_forward(net, params, x, True, SeededPrng(seed))
    _, _, dlogits = nn.softmax_cross_entropy(logits, y)
    return caches, nn.network_backward(net, caches, dlogits)


def test_adam_step_gives_the_same_bytes_in_either_layer_order():
    """Fed straight from backward, last layer first, Adam moves every tensor as
    an update in layer order after the whole backward pass does."""
    net, fused, x, y = reduced_step_inputs()
    in_order = clone(fused)
    for seed in range(3):
        nn.adam_step(fused, backward_of_one_step(net, fused, x, y, seed)[1], lr=1e-2)
        grads = dict(backward_of_one_step(net, in_order, x, y, seed)[1])
        assert list(grads) == list(reversed(range(len(net.layers))))
        nn.adam_step(in_order, sorted(grads.items()), lr=1e-2)
    assert fused.step == in_order.step == 3
    for name in ("layers", "adam_m", "adam_v"):
        for a, b in zip(getattr(fused, name), getattr(in_order, name)):
            assert a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


def test_exhausted_backward_leaves_only_pending_statistics():
    net, params, x, y = reduced_step_inputs()
    caches, pairs = backward_of_one_step(net, params, x, y, 5)
    pending = [cache[1] if lay.kind == "batch_norm" else None
               for lay, cache in zip(net.layers, caches)]
    for _ in pairs:
        pass
    for lay, cache, statistics in zip(net.layers, caches, pending):
        if lay.kind == "batch_norm":
            assert cache[0] is None and cache[1] is statistics
        else:
            assert cache is None
    assert sum(p is not None for p in pending) == 3


def test_reference_train_step_holds_one_layers_gradients():
    """One reference-net step at batch 8 peaks well below its 31.9 MB of gradients
    plus every layer's cache, which a backward returning all gradients at once
    holds together: that reads 1.84x the trainable bytes, a fused step caching
    im2col windows 1.22x, and one caching each conv's input 0.93x."""
    net = nn.reference_network()
    params = nn.init_params(net, 1)
    x = SeededPrng(2).uniform((8, 64, 64, 3)).astype(np.float32)
    y = np.arange(8) % 2
    nn.train_epoch(net, params, x, y, 8, SeededPrng(3))  # Adam's first step, outside the trace
    trainable_bytes = 4 * nn.count_params(net)[1]
    tracemalloc.start()
    try:
        nn.train_epoch(net, params, x, y, 8, SeededPrng(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * trainable_bytes, peak / trainable_bytes


def test_reference_evaluate_builds_windows_in_bounded_chunks():
    """Eval at batch 64 holds one chunk of im2col windows at a time, not a
    layer's whole window matrix (50 MB at layer 6, for a 68.7 MiB peak); it
    reads 30.1 MiB."""
    net = nn.reference_network()
    params = nn.init_params(net, 1)
    x = SeededPrng(2).uniform((64, 64, 64, 3)).astype(np.float32)
    y = np.arange(64) % 2
    tracemalloc.start()
    try:
        nn.evaluate(net, params, x, y, batch_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak / 2**20


# -- forward/eval determinism ---------------------------------------------------

def test_eval_forward_is_deterministic():
    net = nn.reduced_network()
    params = nn.init_params(net, 5)
    x = SeededPrng(6).uniform((4, 32, 32, 3)).astype(np.float32)
    a, _ = nn.network_forward(net, params, x)
    b, _ = nn.network_forward(net, params, x)
    np.testing.assert_array_equal(a, b)


def test_eval_forward_keeps_no_cache_and_little_memory():
    net = nn.reduced_network()
    params = nn.init_params(net, 5)
    x = SeededPrng(6).uniform((64, 32, 32, 3)).astype(np.float32)
    y = np.arange(64) % 2
    _, caches = nn.network_forward(net, params, x)
    assert caches == []
    _, train_caches = nn.network_forward(net, params, x, True, SeededPrng(7))
    assert len(train_caches) == len(net.layers)
    pending = [(lay.channels, cache[1]) for lay, cache in zip(net.layers, train_caches)
               if lay.kind == "batch_norm"]
    assert len(pending) == 3
    for channels, (new_mean, new_var) in pending:
        assert new_mean.shape == new_var.shape == (channels,)
    del train_caches, pending
    tracemalloc.start()
    try:
        nn.evaluate(net, params, x, y, batch_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21 * x.nbytes, peak / x.nbytes


def test_forward_rejects_bad_shape():
    net = tiny_net()
    params = nn.init_params(net, 0)
    with pytest.raises(Exception, match="input"):
        nn.network_forward(net, params, np.zeros((1, 5, 5, 2), dtype=np.float32))


def test_train_mode_dropout_needs_rng():
    net = nn.NetworkSpec((4,), (nn.Dropout(0.5), nn.Dense(2)))
    params = nn.init_params(net, 0)
    with pytest.raises(ConfigError, match="SeededPrng"):
        nn.network_forward(net, params, np.zeros((2, 4), dtype=np.float32), True)


# -- train_epoch ----------------------------------------------------------------

def make_blobs(n=16, seed=0):
    rng = SeededPrng(seed)
    y = np.arange(n) % 2
    x = rng.uniform((n, 4, 4, 2)).astype(np.float32) * 0.1
    x += y[:, None, None, None] * 0.8
    return x.astype(np.float32), y


def test_train_epoch_lr_zero_keeps_params_bitwise():
    x, y = make_blobs()
    net = tiny_net()
    params = nn.init_params(net, 3)
    before = clone(params)
    nn.train_epoch(net, params, x, y, batch_size=4, rng=SeededPrng(1), lr=0.0)
    assert params_equal(params, before) is False  # step counter moved
    for la, lb in zip(params.layers, before.layers):
        for k in la:
            np.testing.assert_array_equal(la[k], lb[k])


def test_train_epoch_same_seed_identical_losses():
    """Same seeds, same parameter bytes after every epoch, so the same losses too."""
    x, y = make_blobs(seed=5)
    runs = []
    for _ in range(2):
        net = tiny_net()
        params = nn.init_params(net, 7)
        rng = SeededPrng(11)
        run = []
        for _ in range(3):
            assert nn.train_epoch(net, params, x, y, 4, rng, lr=1e-3) is None
            run.append([t.tobytes() for layer in params.layers for t in layer.values()])
        runs.append(run)
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[0][1] != runs[0][2]  # every epoch moved the parameters


def test_overfits_eight_samples():
    x, y = make_blobs(n=8, seed=9)
    net = tiny_net()
    params = nn.init_params(net, 2)
    rng = SeededPrng(3)
    acc = 0.0
    for _ in range(200):
        nn.train_epoch(net, params, x, y, 4, rng, lr=1e-2)
        # no batch norm or dropout: eval logits are the train-mode ones
        _, acc, _ = nn.evaluate(net, params, x, y)
        if acc == 1.0:
            break
    assert acc == 1.0


@pytest.mark.parametrize("n,batch_size", [(23, 5), (10, 4), (6, 3), (8, 8)])
def test_train_epoch_batches_walk_one_seeded_permutation(monkeypatch, n, batch_size):
    x = np.broadcast_to(np.arange(n, dtype=np.float32)[:, None, None, None], (n, 4, 4, 2)).copy()
    y = np.arange(n) % 2
    batches = []

    def spy(net, params, xb, mode, rng=None):
        batches.append(xb[:, 0, 0, 0].astype(np.int64))
        return forward(net, params, xb, mode, rng)

    forward = nn.network_forward
    monkeypatch.setattr(nn, "network_forward", spy)
    net = tiny_net()
    rng = SeededPrng(4)
    nn.train_epoch(net, nn.init_params(net, 0), x, y, batch_size, rng)
    expected = SeededPrng(4)
    np.testing.assert_array_equal(np.concatenate(batches), expected.permutation(n))
    assert [len(b) for b in batches[:-1]] == [batch_size] * (len(batches) - 1)
    assert 1 <= len(batches[-1]) <= batch_size
    # the permutation is the epoch's only draw from a net without dropout
    assert rng.next_u64() == expected.next_u64()


def array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    return 0


def test_train_epoch_frees_each_steps_caches():
    """A step's caches are gone before the next step's forward pass, so three
    batches peak no higher than one."""
    net = nn.reduced_network()
    x = SeededPrng(6).uniform((96, 32, 32, 3)).astype(np.float32)
    y = np.arange(96) % 2
    _, caches = nn.network_forward(net, nn.init_params(net, 5), x[:32], True, SeededPrng(7))
    step_cache_bytes = array_bytes(caches)
    del caches
    peaks = {}
    for n in (32, 96):
        params = nn.init_params(net, 5, dtype=np.float32)
        tracemalloc.start()
        try:
            nn.train_epoch(net, params, x[:n], y[:n], 32, SeededPrng(8))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[96] - peaks[32] <= step_cache_bytes / 4, (peaks, step_cache_bytes)


def test_train_epoch_rejects_trailing_singleton_with_bn():
    net = nn.NetworkSpec((4, 4, 2), (nn.Conv2D(3, (3, 3)), nn.BatchNorm(3), nn.Flatten(), nn.Dense(2)))
    params = nn.init_params(net, 0)
    x = np.zeros((9, 4, 4, 2), dtype=np.float32)
    y = np.zeros(9, dtype=np.int64)
    with pytest.raises(ConfigError, match="trailing batch"):
        nn.train_epoch(net, params, x, y, 4, SeededPrng(0))


def test_train_epoch_rejects_batch_size_zero():
    net = nn.NetworkSpec((4, 4, 2), (nn.Flatten(), nn.Dense(2)))
    params = nn.init_params(net, 0)
    with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
        nn.train_epoch(net, params, np.zeros((3, 4, 4, 2), np.float32), np.zeros(3, np.int64), 0,
                       SeededPrng(0))


def test_moving_statistics_update_during_training():
    net = nn.NetworkSpec((4, 4, 2), (nn.Conv2D(3, (3, 3)), nn.BatchNorm(3), nn.Flatten(), nn.Dense(2)))
    params = nn.init_params(net, 0)
    x, y = make_blobs(n=8, seed=13)
    nn.train_epoch(net, params, x, y, 4, SeededPrng(5))
    assert not np.array_equal(params.layers[1]["moving_mean"], np.zeros(3))
    assert not np.array_equal(params.layers[1]["moving_var"], np.ones(3))


def test_each_batch_norm_commits_its_own_statistics():
    """One step of the reduced net writes into every batch-norm layer exactly what
    batch_norm_forward_train gives on that layer's input, replayed by hand."""
    net = nn.reduced_network()
    x = SeededPrng(21).uniform((8, 32, 32, 3)).astype(np.float32)
    params = nn.init_params(net, 22)
    nn.train_epoch(net, params, x, np.arange(8) % 2, 8, SeededPrng(23))
    start = nn.init_params(net, 22)
    rng = SeededPrng(23)
    h = x[rng.permutation(8)]  # the epoch's shuffle; dropout masks are the pass's only draws
    committed = 0
    for lay, p, after in zip(net.layers, start.layers, params.layers):
        if lay.kind == "batch_norm":
            h, _, (new_mean, new_var) = nn.batch_norm_forward_train(
                h, p["gamma"], p["beta"], p["moving_mean"], p["moving_var"],
                lay.epsilon, lay.momentum)
            np.testing.assert_array_equal(after["moving_mean"], new_mean)
            np.testing.assert_array_equal(after["moving_var"], new_var)
            committed += 1
        else:
            h = lay.forward(h, p, True, rng)[0]
    assert committed == 3


@pytest.mark.parametrize("call,n_labels,batch_size,error", [
    ("train_epoch", 8, 2, ShapeError), ("train_epoch", 4, 2, ShapeError),
    ("evaluate", 8, 2, ShapeError), ("evaluate", 4, 2, ShapeError),
    ("evaluate", 6, 0, ConfigError), ("evaluate", 6, -3, ConfigError),
])
def test_label_count_and_batch_size_are_checked(call, n_labels, batch_size, error):
    net = tiny_net()
    params = nn.init_params(net, 0)
    x, _ = make_blobs(n=6)
    y = np.arange(n_labels) % 2
    args = (batch_size, SeededPrng(0)) if call == "train_epoch" else (batch_size,)
    with pytest.raises(error, match="labels shape" if error is ShapeError else "batch_size"):
        getattr(nn, call)(net, params, x, y, *args)


@pytest.mark.parametrize("call", ["train_epoch", "evaluate"])
@pytest.mark.parametrize("bad", [-1, 2, 0.5])
def test_labels_must_be_classes_of_the_output(call, bad):
    net = tiny_net()
    params = nn.init_params(net, 0)
    x, _ = make_blobs(n=6)
    args = (2, SeededPrng(0)) if call == "train_epoch" else ()
    with pytest.raises(ConfigError, match=fr"{call}: labels must be integers in \[0, 2\), got {bad}$"):
        getattr(nn, call)(net, params, x, np.array([bad, 0, 1, 1, 0, 1]), *args)
    # a float array is refused whole, as its labels cannot index the class axis
    with pytest.raises(ConfigError, match=r"got 0\.0$"):
        getattr(nn, call)(net, params, x, np.array([0.0, 1, 0, 1, 0, 1]), *args)


def test_evaluate_matches_manual_pass():
    x, y = make_blobs(n=10, seed=17)
    net = tiny_net()
    params = nn.init_params(net, 4)
    loss, acc, preds = nn.evaluate(net, params, x, y, batch_size=3)
    logits, _ = nn.network_forward(net, params, x)
    expected_loss, probs, _ = nn.softmax_cross_entropy(logits, y)
    np.testing.assert_array_equal(preds, probs.argmax(axis=1))
    assert acc == float(np.mean(preds == y))
    assert loss == pytest.approx(expected_loss, rel=1e-6)
