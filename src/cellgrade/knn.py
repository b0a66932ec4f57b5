"""Cross-validated exact k-nearest-neighbour classification over feature vectors.

k_sweep runs stratified k-fold cross-validation over binary labels for a list
of distinct k, under one of four distance metrics (euclidean, manhattan,
hamming, minkowski). Per fold, _nearest finds every validation row's
neighbours at once and _vote takes their majority. Neighbours are ordered by
(distance, train_index), with every distance from _row_distances, so the order
does not depend on the BLAS kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import fold_assignment_hash, move_rows_back, move_rows_last, stratified_fold_indices
from .errors import ConfigError, ShapeError

VARIANTS = ("euclidean", "manhattan", "hamming", "minkowski")

# Cap on each euclidean proposal block in _nearest (queries x train rows), in float64 elements.
_CHUNK_ELEMENTS = 4_000_000
_ROW_BLOCK = 64  # rows of x per block of _row_distances, through one (block, D) buffer


@dataclass(frozen=True)
class DistanceMetric:
    """Metric variant plus the Minkowski exponent where applicable."""

    variant: str
    p: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown metric {self.variant!r}, expected one of {VARIANTS}")
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


def _check_training_set(x: np.ndarray, labels: np.ndarray) -> None:
    """A non-empty N x D feature matrix with N labels, each 0 or 1."""
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"features must be a non-empty N x D matrix, got shape {x.shape}")
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} does not match N={x.shape[0]}")
    bad = labels[~np.isin(labels, (0, 1))]
    if bad.size:
        raise ConfigError(f"labels must be 0 or 1, got {bad[0].item()!r}")


def _row_distances(metric: DistanceMetric, x: np.ndarray, q: np.ndarray, buf=None) -> np.ndarray:
    """Distances from one query q to every row of x: the one per-pair kernel.

    euclidean: sqrt(sum((x-q)^2)); manhattan: sum(|x-q|); hamming: count of
    exactly unequal positions (meant for binary features, no thresholding);
    minkowski(p): (sum(|x-q|^p))^(1/p). Rows go through buf, a float64 scratch
    of at least min(_ROW_BLOCK, N) rows of D, _ROW_BLOCK rows at a time; hamming
    writes its unequal flags into the first D bytes of each of buf's rows."""
    out = np.empty(x.shape[0])
    buf = np.empty((min(_ROW_BLOCK, x.shape[0]), x.shape[1])) if buf is None else buf
    for lo in range(0, x.shape[0], _ROW_BLOCK):
        rows = min(_ROW_BLOCK, x.shape[0] - lo)
        if metric.variant == "hamming":
            unequal = np.not_equal(x[lo : lo + rows], q, out=buf[:rows].view(np.bool_)[:, : x.shape[1]])
            out[lo : lo + rows] = np.count_nonzero(unequal, axis=1)
            continue
        diff = np.subtract(x[lo : lo + rows], q, out=buf[:rows])
        (np.square if metric.variant == "euclidean" else np.abs)(diff, out=diff)
        if metric.variant == "minkowski":
            diff **= metric.p
        np.sum(diff, axis=1, out=out[lo : lo + rows])
    if metric.variant == "euclidean":
        return np.sqrt(out, out=out)
    return out ** (1.0 / metric.p) if metric.variant == "minkowski" else out


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
    step = max(1, _CHUNK_ELEMENTS // x.shape[0])
    buf = np.empty((min(_ROW_BLOCK, x.shape[0]), x.shape[1]))
    if gemm:
        xx = np.einsum("ij,ij->i", x, x)
        g = 1 / (2.0**53 / (x.shape[1] + 2) - 1)
        block = np.empty((min(step, queries.shape[0]), x.shape[0]))
    out = []
    for q in np.split(queries, range(step, queries.shape[0], step)):
        if gemm:
            qq = np.einsum("ij,ij->i", q, q)
            props = np.matmul(q, x.T, out=block[: q.shape[0]])
            props *= -2.0
            props += qq[:, None] + xx  # the floats of (qq + xx) - 2q.x
            slacks = 8 * g * (np.sqrt(qq) + np.sqrt(xx.max())) ** 2 + (x.shape[1] + 2) * 2.0**-1070
        for i, row in enumerate(q):
            prop = props[i] if gemm else _row_distances(metric, x, row, buf)
            slack = slacks[i] if gemm else 0.0
            cand = np.flatnonzero(~(prop > np.partition(prop, k - 1)[k - 1] + slack))
            order = np.argsort(prop[cand], kind="stable")
            if gemm and not np.all(np.diff(prop[cand[order]]) > 2 * slack):
                order = np.argsort(_row_distances(metric, x[cand], row, buf), kind="stable")
            out.append(cand[order[:k]])
    return np.array(out, dtype=np.intp).reshape(-1, k)


def _vote(sorted_labels: np.ndarray, k: int) -> np.ndarray:
    """Row-wise majority over the first k distance-sorted labels (binary); a tie
    goes to the nearest neighbour's label, column 0."""
    ones = np.sum(sorted_labels[:, :k], axis=1)
    return np.where(2 * ones == k, sorted_labels[:, 0], 2 * ones > k)


@dataclass(frozen=True)
class CvReport:
    """Per-fold held-out accuracies for one k of a sweep."""

    k: int
    accuracies: tuple[float, ...]
    fold_hash: str

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))


def _fold_sorted_labels(features, labels, assignment, folds, metric, max_k):
    """Per fold: validation-row neighbour labels sorted by (distance, index).

    Each fold moves its validation rows behind the training rows of features,
    searches the two views, and moves them back, even if the search raises."""
    per_fold = []
    for f in range(folds):
        val = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        if train.size < max_k:
            raise ConfigError(f"fold {f} leaves only {train.size} training samples, "
                              f"fewer than k={max_k}")
        front = move_rows_last(features, val)
        try:
            order = _nearest(metric, features[front:], features[:front], max_k)
        finally:
            move_rows_back(features, val)
        per_fold.append((labels[train][order], labels[val]))
    return per_fold


def check_sweep(k_values, folds: int) -> list[int]:
    """k_values as ints, once they are known to be distinct and >= 1 and folds >= 2.

    A sweep's callers run this before any costly work, such as decoding a
    dataset; the messages name a bad value, never the whole list.
    """
    k_values = [int(k) for k in k_values]
    if not k_values:
        raise ConfigError("k_values must be non-empty")
    bad = [k for k in k_values if k < 1]
    if bad:
        raise ConfigError(f"k_values must be positive integers: {len(bad)} of {len(k_values)} "
                          f"are not, the first k={bad[0]}")
    seen = set()
    for k in k_values:
        if k in seen:
            raise ConfigError(f"k={k} is listed more than once; each k gets one row per fold")
        seen.add(k)
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    return k_values


def k_sweep(features: np.ndarray, labels: np.ndarray, k_values, folds: int,
            metric: DistanceMetric = EUCLIDEAN, seed: int = 0) -> list[CvReport]:
    """Stratified k-fold cross-validation for each k, all sharing one fold assignment.

    Neighbour lists are computed once up to max(k_values), so sweep curves
    are directly comparable and cheap. A writable C-ordered float64 features is
    searched in place, not copied: its rows are moved during the call and are
    bitwise restored before the call returns or raises. Any other input is
    copied once.
    """
    k_values = check_sweep(k_values, folds)
    features = np.require(features, np.float64, ["C", "W"])
    labels = np.asarray(labels)
    _check_training_set(features, labels)
    assignment = stratified_fold_indices(labels, folds, seed)
    fold_hash = fold_assignment_hash(assignment, folds, seed)
    per_fold = _fold_sorted_labels(features, labels, assignment, folds, metric, max(k_values))
    reports = []
    for k in k_values:
        accs = tuple(float(np.mean(_vote(sorted_labels, k) == truth))
                     for sorted_labels, truth in per_fold)
        reports.append(CvReport(k, accs, fold_hash))
    return reports
