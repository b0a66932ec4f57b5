import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgrade import knn
from cellgrade.data import stratified_fold_indices
from cellgrade.errors import ConfigError, ShapeError
from cellgrade.knn import (
    EUCLIDEAN,
    HAMMING,
    MANHATTAN,
    DistanceMetric,
    k_sweep,
    minkowski,
)

# Feature grids keep values exactly representable so ties are exact ties.
grid_vectors = st.lists(st.integers(-64, 64), min_size=1, max_size=12).map(
    lambda xs: np.array(xs, dtype=np.float64) / 8.0
)


def oracle_distance(variant, p, a, b):
    """Scalar-loop distance oracle independent of the vectorized code."""
    if variant == "euclidean":
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    if variant == "manhattan":
        return sum(abs(x - y) for x, y in zip(a, b))
    if variant == "hamming":
        return float(sum(1 for x, y in zip(a, b) if x != y))
    return sum(abs(x - y) ** p for x, y in zip(a, b)) ** (1.0 / p)


def oracle_neighbors(features, labels, metric, q, k):
    """Exhaustive sort-all-distances oracle."""
    scored = [(oracle_distance(metric.variant, metric.p, row, q), i)
              for i, row in enumerate(features)]
    scored.sort()
    return [(i, d, labels[i]) for d, i in scored[:k]]


def distance(metric, a, b):
    """The row kernel on one pair of vectors."""
    return float(knn._row_distances(metric, a[None, :], b)[0])


def nearest(metric, x, q, k):
    """_nearest's row for one query."""
    return knn._nearest(metric, q[None, :], x, k)[0]


def vote(sorted_labels):
    """_vote over one whole distance-sorted label list."""
    return int(knn._vote(np.asarray(sorted_labels)[None, :], len(sorted_labels))[0])


def oracle_vote(entries):
    """Count-and-compare with the nearest-tied-class rule."""
    counts = {}
    for _, _, lab in entries:
        counts[lab] = counts.get(lab, 0) + 1
    top = max(counts.values())
    tied = {lab for lab, c in counts.items() if c == top}
    if len(tied) == 1:
        return tied.pop()
    for _, _, lab in entries:
        if lab in tied:
            return lab


# -- distance ---------------------------------------------------------------

def test_euclidean_3_4_5():
    assert distance(EUCLIDEAN, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_manhattan_example():
    assert distance(MANHATTAN, np.array([1.0, 2.0]), np.array([4.0, 6.0])) == 7.0


def test_hamming_example():
    assert distance(HAMMING, np.array([0.0, 1, 1, 0]), np.array([0.0, 0, 1, 1])) == 2.0


def test_minkowski_p2_reduces_to_euclidean():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.normal(size=(2, 9))
        e = distance(EUCLIDEAN, a, b)
        m = distance(minkowski(2.0), a, b)
        assert abs(e - m) <= 1e-9 * max(e, 1e-30)


def test_minkowski_p1_reduces_to_manhattan():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.normal(size=(2, 9))
        assert abs(distance(MANHATTAN, a, b) - distance(minkowski(1.0), a, b)) <= 1e-9 * max(
            distance(MANHATTAN, a, b), 1e-30)


def test_minkowski_p_below_1_rejected():
    with pytest.raises(ConfigError, match="p >= 1"):
        minkowski(0.5)


def test_metric_without_p_rejected():
    with pytest.raises(ConfigError):
        DistanceMetric("minkowski")
    with pytest.raises(ConfigError):
        DistanceMetric("euclidean", p=2.0)


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="unknown metric 'cosine'"):
        DistanceMetric("cosine")


@given(grid_vectors, st.sampled_from(["euclidean", "manhattan", "minkowski"]))
@settings(max_examples=100, deadline=None)
def test_metric_identity(a, variant):
    metric = minkowski(3.0) if variant == "minkowski" else DistanceMetric(variant)
    assert distance(metric, a, a) == 0.0


@given(st.data(), st.sampled_from(["euclidean", "manhattan", "minkowski"]))
@settings(max_examples=100, deadline=None)
def test_metric_symmetry_and_triangle(data, variant):
    n = data.draw(st.integers(1, 10))
    elems = st.integers(-64, 64)
    draw_vec = lambda: np.array(data.draw(st.lists(elems, min_size=n, max_size=n)), dtype=np.float64) / 8.0
    a, b, c = draw_vec(), draw_vec(), draw_vec()
    metric = minkowski(2.5) if variant == "minkowski" else DistanceMetric(variant)
    assert distance(metric, a, b) == distance(metric, b, a)
    assert distance(metric, a, c) <= distance(metric, a, b) + distance(metric, b, c) + 1e-9


# -- neighbour search and vote -------------------------------------------------

def test_k_nearest_prefers_closer_point():
    labels = np.array([0, 1])
    order = nearest(EUCLIDEAN, np.array([[0.0, 0.0], [10.0, 10.0]]), np.array([1.0, 1.0]), 1)
    assert order.tolist() == [0]
    assert vote(labels[order]) == 0


def test_k_nearest_self_match():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 4))
    assert nearest(EUCLIDEAN, x, x[7], 1).tolist() == [7]


def test_k_nearest_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    metrics = [EUCLIDEAN, MANHATTAN, HAMMING, minkowski(3.0)]
    for trial in range(60):
        n = int(rng.integers(8, 50))
        d = int(rng.integers(1, 6))
        x = np.round(rng.normal(size=(n, d)), 2)
        labels = rng.integers(0, 2, size=n)
        q = np.round(rng.normal(size=d), 2)
        k = int(rng.integers(1, 8))
        metric = metrics[trial % 4]
        expected = oracle_neighbors(x, labels, metric, q, k)
        assert nearest(metric, x, q, k).tolist() == [i for i, _, _ in expected]


def test_predict_majority():
    assert vote([1, 1, 0]) == 1
    assert vote([1] * 3 + [0] * 7) == 0
    assert vote([1, 1, 1]) == 1


def test_predict_tie_goes_to_nearest():
    assert vote([0, 1]) == 0
    assert vote([1, 0]) == 1
    assert vote([0, 1, 0, 1]) == 0


def test_predict_matches_counting_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = 10
        labels = rng.integers(0, 2, size=k)
        dists = np.sort(rng.uniform(size=k))
        assert vote(labels) == oracle_vote(list(zip(range(k), dists, labels)))


def test_predict_agrees_with_probability_argmax():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        labels = rng.integers(0, 2, size=k)
        probs = {1: labels.sum() / k, 0: 1 - labels.sum() / k}
        if probs[0] != probs[1]:
            assert vote(labels) == max(probs, key=probs.get)
        else:
            assert vote(labels) == labels[0]


def test_scaling_invariance_of_neighbors_and_votes():
    # continuous features: exact distance ties (which scaling could reorder
    # at the ulp level) have probability zero
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 6))
    labels = rng.integers(0, 2, size=40)
    queries = rng.normal(size=(10, 6))
    for metric in (EUCLIDEAN, MANHATTAN, minkowski(3.0)):
        for s in (0.5, 2.0, 3.7, 1000.0):
            base = knn._nearest(metric, queries, x, 5)
            scaled = knn._nearest(metric, queries * s, x * s, 5)
            assert base.tolist() == scaled.tolist()
            assert knn._vote(labels[base], 5).tolist() == knn._vote(labels[scaled], 5).tolist()


# -- cross-validation ---------------------------------------------------------

def separable_set(n=80, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1] * (n // 2))
    x = rng.uniform(size=(n, 4)) * 0.1 + labels[:, None] * 10.0
    return x, labels


def test_cross_validate_separable_is_perfect():
    x, y = separable_set()
    report, = k_sweep(x, y, [1], folds=4, seed=3)
    assert report.mean == 1.0
    assert report.accuracies == (1.0, 1.0, 1.0, 1.0)


def test_cross_validate_shuffled_labels_near_chance():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(400, 8))
    y = np.array([0, 1] * 200)
    rng.shuffle(y)
    report, = k_sweep(x, y, [5], folds=4, seed=11)
    assert abs(report.mean - 0.5) <= 0.1


def test_cross_validate_deterministic():
    x, y = separable_set(seed=9)
    a = k_sweep(x, y, [3], folds=4, metric=MANHATTAN, seed=21)
    b = k_sweep(x, y, [3], folds=4, metric=MANHATTAN, seed=21)
    assert a == b


@pytest.mark.parametrize("k_values,repeated", [([1, 1], 1), ([1, 2, 3, 2], 2), ([5, 3, 5, 3], 5)])
def test_k_sweep_rejects_repeated_k(k_values, repeated):
    x, y = separable_set(n=20)
    with pytest.raises(ConfigError, match=f"k={repeated} is listed more than once"):
        k_sweep(x, y, k_values, folds=2)


def test_k_sweep_error_names_the_count_not_the_list():
    """A 2^20-value k list with bad values gives a one-line message, not the list."""
    from cellgrade.cli import parse_k_list

    x, y = separable_set(n=4)
    with pytest.raises(ConfigError) as exc:
        k_sweep(x, y, parse_k_list("0-1048575"), folds=2)
    message = str(exc.value)
    assert len(message) < 200 and "1 of 1048576" in message and "k=0" in message, message


def test_cross_validate_fold_too_small():
    x, y = separable_set(n=8)
    with pytest.raises(ConfigError, match="fewer than k"):
        k_sweep(x, y, [7], folds=4, seed=0)


def test_k_sweep_shares_fold_assignment():
    x, y = separable_set(n=60, seed=13)
    reports = k_sweep(x, y, [1, 5, 10], folds=4, seed=5)
    assert [r.k for r in reports] == [1, 5, 10]
    assert len({r.fold_hash for r in reports}) == 1
    single, = k_sweep(x, y, [5], folds=4, seed=5)
    assert reports[1] == single


def test_k_sweep_consistent_with_per_query_path():
    """The batched fold scorer must agree with the pure-Python oracles, one query at a time."""
    rng = np.random.default_rng(15)
    x = rng.normal(size=(30, 5))
    y = rng.integers(0, 2, size=30)
    for metric in (EUCLIDEAN, MANHATTAN, HAMMING, minkowski(2.5)):
        report, = k_sweep(x, y, [3], folds=3, metric=metric, seed=2)
        assignment = stratified_fold_indices(y, 3, 2)
        for fold in range(3):
            val = np.flatnonzero(assignment == fold)
            train = np.flatnonzero(assignment != fold)
            correct = sum(oracle_vote(oracle_neighbors(x[train], y[train], metric, x[v], 3)) == y[v]
                          for v in val)
            assert report.accuracies[fold] == correct / val.size


# -- one distance kernel --------------------------------------------------------

@given(st.data(), st.sampled_from(["euclidean", "manhattan", "hamming", "minkowski"]))
@settings(max_examples=200, deadline=None)
def test_batched_paths_match_the_row_kernel_bytewise(data, variant):
    """_nearest rows are stable argsorts of _row_distances, and k_sweep's folds
    order neighbours as the stable argsort of _row_distances does: ties, near-ties,
    NaN and inf included."""
    n = data.draw(st.integers(6, 24))
    d = data.draw(st.integers(1, 6))
    folds = data.draw(st.integers(2, 3))
    # four grid levels per coordinate force exact distance ties
    grid = st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d)
    x = np.array(data.draw(grid), dtype=np.float64).reshape(n, d) / 4.0
    # a third of the rows copied onto others: duplicates tie at every scale
    copies = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                min_size=n // 3, max_size=n // 3))
    for src, dst in copies:
        x[dst] = x[src]
    # an inexact scale makes the euclidean GEMM round differently from the row kernel
    x *= data.draw(st.floats(1.0, 1e3))
    for value in data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3)):
        x[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))] = value
    p = data.draw(st.sampled_from([1.0, 2.5, 3.0]))
    metric = minkowski(p) if variant == "minkowski" else DistanceMetric(variant)
    k = data.draw(st.integers(1, n))
    with np.errstate(invalid="ignore", over="ignore"):
        nearest = knn._nearest(metric, x, x, k)
        for q, row in zip(x, nearest):
            expected = np.argsort(knn._row_distances(metric, x, q), kind="stable")[:k]
            assert row.tobytes() == expected.tobytes()

        y = np.arange(n) % 2
        assignment = stratified_fold_indices(y, folds, 0)
        k = data.draw(st.integers(1, min(np.sum(assignment != f) for f in range(folds))))
        # train indices stand in for labels, so the fold scorer hands back its order
        before = x.tobytes()
        per_fold = knn._fold_sorted_labels(x, np.arange(n), assignment, folds, metric, k)
        assert x.tobytes() == before  # every fold's row moves are undone, NaN payloads included
        for f, (order, val) in enumerate(per_fold):
            train = np.flatnonzero(assignment != f)
            for row, v in zip(order, val):
                expected = np.argsort(knn._row_distances(metric, x[train], x[v]), kind="stable")[:k]
                assert row.tolist() == train[expected].tolist()


@pytest.mark.parametrize("per_chunk", [1, 7, 22])
@pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, HAMMING, minkowski(2.5)], ids=lambda m: m.label)
def test_nearest_is_the_same_across_query_chunks(monkeypatch, metric, per_chunk):
    """Chunks of 1, 7 and 22 of 50 queries (7 and 22 leave a partial last chunk)
    give the bytes of one chunk."""
    rng = np.random.default_rng(18)
    x = rng.integers(0, 4, size=(40, 6)) * 0.37  # a coarse grid: exact ties
    queries = np.concatenate([x[:10], rng.integers(0, 4, size=(40, 6)) * 0.37])
    whole = knn._nearest(metric, queries, x, 9)
    monkeypatch.setattr(knn, "_CHUNK_ELEMENTS", per_chunk * x.shape[0])
    assert knn._nearest(metric, queries, x, 9).tobytes() == whole.tobytes()


def broadcast_distances(metric, x, q):
    """The unblocked form _row_distances replaced: one (N, D) difference, reduced along rows."""
    if metric.variant == "hamming":
        return np.count_nonzero(x != q[None, :], axis=1).astype(np.float64)
    diff = x - q[None, :]
    if metric.variant == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=1))
    if metric.variant == "manhattan":
        return np.sum(np.abs(diff), axis=1)
    return np.sum(np.abs(diff) ** metric.p, axis=1) ** (1.0 / metric.p)


@pytest.mark.parametrize("rows", [1, 7, 151])
@pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, HAMMING, minkowski(2.5), minkowski(2.0)],
                         ids=lambda m: m.label)
def test_distances_and_nearest_are_the_same_across_row_blocks(monkeypatch, metric, rows):
    """Row blocks of 1, 7 and more than N give the unblocked form's distances and the
    neighbours of the default block, for N = 150, N = 5 (under one block of 7) and N = 1."""
    rng = np.random.default_rng(19)
    x = rng.integers(0, 4, size=(150, 70)) * 0.37 + rng.uniform(size=(150, 70)) * (rng.random((150, 70)) < 0.5)
    queries = np.concatenate([x[:10], rng.integers(0, 4, size=(20, 70)) * 0.37])
    whole = {n: knn._nearest(metric, queries, x[:n], min(n, 9)) for n in (150, 5, 1)}
    monkeypatch.setattr(knn, "_ROW_BLOCK", rows)
    for n in (150, 5, 1):
        for q in queries:
            assert knn._row_distances(metric, x[:n], q).tobytes() == \
                broadcast_distances(metric, x[:n], q).tobytes()
        assert knn._nearest(metric, queries, x[:n], min(n, 9)).tobytes() == whole[n].tobytes()


def test_nearest_is_exact_where_products_underflow():
    """Squares of ~1e-160 features are subnormal; the slack's absolute term covers them."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 12))
        x = rng.integers(0, 4, size=(n, d)) * (rng.uniform(1, 1e3) * 10.0 ** -rng.uniform(150, 165))
        k = int(rng.integers(1, n + 1))
        for q, row in zip(x, knn._nearest(EUCLIDEAN, x, x, k)):
            expected = np.argsort(knn._row_distances(EUCLIDEAN, x, q), kind="stable")[:k]
            assert row.tolist() == expected.tolist()


@pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, minkowski(2.5), HAMMING], ids=lambda m: m.label)
def test_nearest_memory_is_a_few_train_matrices(metric):
    """A search holds row blocks of x and vectors of N, never an N x D temporary;
    euclidean adds its (queries, N) proposal block and that block's temporaries."""
    m, n, d = 60, 2048, 256
    rng = np.random.default_rng(16)
    queries, x = rng.uniform(size=(m, d)), rng.uniform(size=(n, d))
    tracemalloc.start()
    try:
        knn._nearest(metric, queries, x, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 3 * m * n * 8 * (metric is EUCLIDEAN) + 2 * knn._ROW_BLOCK * d * 8 + 8 * n * 8
    assert peak < bound, peak / bound


@pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, minkowski(2.5), HAMMING], ids=lambda m: m.label)
def test_k_sweep_memory_is_one_folds_rows_and_a_search(metric):
    """A sweep moves each fold's rows in place: beyond what _nearest holds, it
    copies one fold's validation rows, never the training rows."""
    n, d, folds = 400, 1024, 4
    rng = np.random.default_rng(17)
    x, y = rng.uniform(size=(n, d)), np.arange(n) % 2
    tracemalloc.start()
    try:
        k_sweep(x, y, [1, 5], folds, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, train = n // folds, n - n // folds  # every fold holds exactly n / folds rows here
    search = 3 * m * train * 8 * (metric is EUCLIDEAN) + 2 * knn._ROW_BLOCK * d * 8 + 8 * train * 8
    assert peak < m * d * 8 + search, peak / (m * d * 8 + search)


def test_k_sweep_restores_its_features_when_a_search_raises(monkeypatch):
    rng = np.random.default_rng(18)
    x, y = rng.normal(size=(40, 6)), np.arange(40) % 2
    x[3, 2], x[7, 0] = np.nan, -0.0
    before = x.copy()
    calls = []
    search = knn._nearest

    def second_call_raises(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("second fold")
        return search(*args)

    monkeypatch.setattr(knn, "_nearest", second_call_raises)
    with pytest.raises(RuntimeError, match="second fold"):
        k_sweep(x, y, [3], folds=4)
    assert len(calls) == 2 and x.tobytes() == before.tobytes()


@pytest.mark.parametrize("layout", ["read-only", "fortran", "float32"])
def test_k_sweep_copies_inputs_it_cannot_move_rows_of(layout):
    rng = np.random.default_rng(19)
    x, y = rng.normal(size=(30, 5)), np.arange(30) % 2
    given_x = {"read-only": x.copy(), "fortran": np.asfortranarray(x),
               "float32": x.astype(np.float32)}[layout]
    given_x.setflags(write=layout != "read-only")
    before = given_x.copy(order="K")
    expected = k_sweep(np.array(given_x, np.float64, order="C"), y, [1, 3], 3, MANHATTAN, seed=4)
    assert k_sweep(given_x, y, [1, 3], 3, MANHATTAN, seed=4) == expected
    assert given_x.tobytes(order="A") == before.tobytes(order="A")


def test_non_binary_labels_rejected():
    x = np.zeros((6, 2))
    with pytest.raises(ConfigError, match="labels must be 0 or 1, got -1"):
        k_sweep(x, np.array([0, 1, -1, 0, 1, 1]), [1], folds=2)


@pytest.mark.parametrize("features,match", [
    (np.zeros((25, 3)), r"labels shape \(20,\) does not match N=25"),
    (np.zeros((15, 3)), r"labels shape \(20,\) does not match N=15"),
    (np.zeros(20), r"non-empty N x D matrix, got shape \(20,\)"),
], ids=["extra-rows", "missing-rows", "one-dimensional"])
def test_k_sweep_needs_one_feature_row_per_label(features, match):
    with pytest.raises(ShapeError, match=match):
        k_sweep(features, np.array([0, 1] * 10), [1], folds=2)
