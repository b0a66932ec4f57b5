"""Exact k-nearest-neighbour classification over feature vectors.

Four distance metrics (euclidean, manhattan, hamming, minkowski), exact
neighbour search, majority vote and stratified k-fold cross-validation over
binary labels. Neighbours are ordered by (distance, train_index), with every
distance from _row_distances, so the order does not depend on the BLAS kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import stratified_fold_indices, fold_assignment_hash
from .errors import ConfigError, ShapeError

_VARIANTS = ("euclidean", "manhattan", "hamming", "minkowski")

# Cap on each euclidean proposal block in _nearest (queries x train rows), in float64 elements.
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class DistanceMetric:
    """Metric variant plus the Minkowski exponent where applicable."""

    variant: str
    p: float | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError(f"unknown metric {self.variant!r}, expected one of {_VARIANTS}")
        if self.variant == "minkowski":
            if self.p is None:
                raise ConfigError("minkowski metric needs an exponent p")
            if not np.isfinite(self.p):
                raise ConfigError(f"minkowski p={self.p} rejected: p must be finite")
            if self.p < 1.0:
                raise ConfigError(f"minkowski p={self.p} rejected: p >= 1 required for a true metric")
        elif self.p is not None:
            raise ConfigError(f"{self.variant} metric takes no exponent (got p={self.p})")

    @property
    def label(self) -> str:
        return f"minkowski(p={self.p:g})" if self.variant == "minkowski" else self.variant


EUCLIDEAN = DistanceMetric("euclidean")
MANHATTAN = DistanceMetric("manhattan")
HAMMING = DistanceMetric("hamming")


def minkowski(p: float) -> DistanceMetric:
    return DistanceMetric("minkowski", p)


def distance(metric: DistanceMetric, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two equal-length vectors.

    euclidean: sqrt(sum((a-b)^2)); manhattan: sum(|a-b|); hamming: count of
    exactly unequal positions (meant for binary features, no thresholding);
    minkowski(p): (sum(|a-b|^p))^(1/p).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size != b.size or a.size == 0:
        raise ShapeError(f"distance needs equal non-empty dims, got {a.size} and {b.size}")
    return float(_row_distances(metric, b[None, :], a)[0])


@dataclass(frozen=True)
class KnnModel:
    """The training data is the model: N x D features, N binary labels."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    metric: DistanceMetric = EUCLIDEAN

    def __post_init__(self):
        x = self.features
        if x.ndim != 2 or x.shape[0] < 1:
            raise ShapeError(f"features must be a non-empty N x D matrix, got shape {x.shape}")
        if self.labels.shape != (x.shape[0],):
            raise ShapeError(f"labels shape {self.labels.shape} does not match N={x.shape[0]}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.k > x.shape[0]:
            raise ConfigError(f"k={self.k} exceeds training-set size N={x.shape[0]}")
        _check_binary(self.labels)


@dataclass(frozen=True)
class NeighborSet:
    """k nearest training entries sorted ascending by (distance, train_index)."""

    indices: np.ndarray
    distances: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.indices.size


def _check_binary(labels: np.ndarray) -> None:
    bad = labels[~np.isin(labels, (0, 1))]
    if bad.size:
        raise ConfigError(f"labels must be 0 or 1, got {bad[0].item()!r}")


def _row_distances(metric: DistanceMetric, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances from one query q to every row of x: the one per-pair kernel."""
    if metric.variant == "hamming":
        return np.count_nonzero(x != q[None, :], axis=1).astype(np.float64)
    diff = x - q[None, :]
    if metric.variant == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=1))
    if metric.variant == "manhattan":
        return np.sum(np.abs(diff), axis=1)
    return np.sum(np.abs(diff) ** metric.p, axis=1) ** (1.0 / metric.p)


def k_nearest(model: KnnModel, query) -> NeighborSet:
    """Exact k smallest (distance, train_index) pairs for one query vector."""
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    x = np.ascontiguousarray(model.features, dtype=np.float64)
    if q.size != x.shape[1]:
        raise ShapeError(f"query has {q.size} dims, model rows have {x.shape[1]}")
    order = _nearest(model.metric, q[None, :], x, model.k)[0]
    return NeighborSet(order, _row_distances(model.metric, x[order], q), np.asarray(model.labels)[order])


def predict(neighbors: NeighborSet) -> int:
    """Modal label; ties go to the nearest neighbour among the tied classes."""
    if len(neighbors) == 0:
        raise ConfigError("cannot predict from an empty neighbour set")
    return int(_vote(neighbors.labels[None, :], len(neighbors))[0])


def _nearest(metric: DistanceMetric, queries: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """(M, k) indices; row i is argsort(_row_distances(metric, x, queries[i]), stable)[:k].

    x and queries are C-ordered float64. Proposals P select candidates: exact distances
    with slack s = 0; for euclidean, GEMM's |q|^2 + |x|^2 - 2q.x with s = 8gR^2 + t,
    g = gamma_{D+2} = (D+2)u/(1-(D+2)u), u = 2^-53, R = |q| + max|x|. Rows with P not
    greater than the k-th P + s keep their stable P order unless a gap is not greater
    than 2s; then _row_distances re-ranks them (NaN rows stay in). Proof (Higham,
    Accuracy and Stability, 3.1), with S the row kernel's sum before sqrt: in any order
    |P - d^2| <= g(|q|^2 + |x|^2 + 2|q|.|x|) <= gR^2 and |S - d^2| <= gR^2; sqrt merges
    S_a < S_b only if S_b - S_a < 5uR^2 <= 2gR^2. So P_b - P_a > 6gR^2 orders rows
    strictly: non-candidates are farther than k rows and gaps over 2s fix the order.
    8 > 6 absorbs rounding in s and kth + s; t covers products that underflow.
    """
    gemm = metric.variant == "euclidean"
    if gemm:
        xx = np.einsum("ij,ij->i", x, x)
        g = 1 / (2.0**53 / (x.shape[1] + 2) - 1)
    out = []
    step = max(1, _CHUNK_ELEMENTS // x.shape[0])
    for q in np.split(queries, range(step, queries.shape[0], step)):
        if gemm:
            qq = np.einsum("ij,ij->i", q, q)
            props = qq[:, None] + xx - 2.0 * (q @ x.T)
            slacks = 8 * g * (np.sqrt(qq) + np.sqrt(xx.max())) ** 2 + (x.shape[1] + 2) * 2.0**-1070
        for i, row in enumerate(q):
            prop = props[i] if gemm else _row_distances(metric, x, row)
            slack = slacks[i] if gemm else 0.0
            cand = np.flatnonzero(~(prop > np.partition(prop, k - 1)[k - 1] + slack))
            order = np.argsort(prop[cand], kind="stable")
            if gemm and not np.all(np.diff(prop[cand[order]]) > 2 * slack):
                order = np.argsort(_row_distances(metric, x[cand], row), kind="stable")
            out.append(cand[order[:k]])
    return np.array(out, dtype=np.intp).reshape(-1, k)


def _vote(sorted_labels: np.ndarray, k: int) -> np.ndarray:
    """Row-wise majority over the first k distance-sorted labels (binary)."""
    ones = np.sum(sorted_labels[:, :k], axis=1)
    return np.where(2 * ones == k, sorted_labels[:, 0], 2 * ones > k)


@dataclass(frozen=True)
class CvReport:
    """Per-fold held-out accuracies for one (k, metric) configuration."""

    k: int
    metric: DistanceMetric
    folds: int
    seed: int
    accuracies: tuple[float, ...]
    fold_hash: str
    mean: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", float(np.mean(self.accuracies)))


def _fold_sorted_labels(features, labels, assignment, folds, metric, max_k):
    """Per fold: validation-row neighbour labels sorted by (distance, index)."""
    per_fold = []
    for f in range(folds):
        val = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        if train.size < max_k:
            raise ConfigError(f"fold {f} leaves only {train.size} training samples, "
                              f"fewer than k={max_k}")
        order = _nearest(metric, features[val], features[train], max_k)
        per_fold.append((labels[train][order], labels[val]))
    return per_fold


def cross_validate(features: np.ndarray, labels: np.ndarray, k: int, folds: int,
                   metric: DistanceMetric = EUCLIDEAN, seed: int = 0) -> CvReport:
    """Stratified k-fold CV: train on folds-1 parts, score the held-out part."""
    report, = k_sweep(features, labels, [k], folds, metric, seed)
    return report


def k_sweep(features: np.ndarray, labels: np.ndarray, k_values, folds: int,
            metric: DistanceMetric = EUCLIDEAN, seed: int = 0) -> list[CvReport]:
    """One cross_validate per k, all sharing a single fold assignment.

    Neighbour lists are computed once up to max(k_values), so sweep curves
    are directly comparable and cheap.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    _check_binary(labels)
    k_values = [int(k) for k in k_values]
    if not k_values or min(k_values) < 1:
        raise ConfigError(f"k_values must be non-empty positive integers, got {k_values}")
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    assignment = stratified_fold_indices(labels, folds, seed)
    fold_hash = fold_assignment_hash(assignment, folds, seed)
    per_fold = _fold_sorted_labels(features, labels, assignment, folds, metric, max(k_values))
    reports = []
    for k in k_values:
        accs = tuple(float(np.mean(_vote(sorted_labels, k) == truth))
                     for sorted_labels, truth in per_fold)
        reports.append(CvReport(k, metric, folds, seed, accs, fold_hash))
    return reports
