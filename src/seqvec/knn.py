"""Exact nearest-neighbor search and majority-vote classification.

Search is a brute-force scan: every query is scored against every index
row, so results are exact by construction. Euclidean distance is the
default metric; cosine similarity is offered because embedding norms
grow with token frequency.

One ranking rule, ``_ranked``, orders every retrieval in the package:
``neighbors`` (and through it ``knn_cross_validate``) and the alignment
baseline's ``align_topk``. Results run by ascending distance or by
descending similarity or alignment score, equal scores order by the
smaller id (Python ``str`` order) and ranks count from 1. Equal vote
counts resolve by summed score and then by label.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classify import MetricSummary, _cv_families, _summarize, stratified_folds
from .errors import ConfigError, DataError, check_integer

__all__ = [
    "VectorIndex",
    "NeighborResult",
    "neighbors",
    "majority_vote",
    "knn_cross_validate",
]

METRICS = ("euclidean", "cosine")


@dataclass
class VectorIndex:
    matrix: np.ndarray
    ids: list[str]
    labels: list[str] | None = None
    metric: str = "euclidean"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise ConfigError("matrix must be (N, d) with d >= 1")
        if len(self.ids) != self.matrix.shape[0]:
            raise ConfigError("one id per matrix row required")
        if len(set(self.ids)) != len(self.ids):
            raise ConfigError("ids must be unique")
        if self.labels is not None and len(self.labels) != len(self.ids):
            raise ConfigError("one label per row required when labels are given")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}")

    def __len__(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class NeighborResult:
    """One retrieved neighbor; score is a distance under the Euclidean
    metric and a similarity under cosine (or an alignment score)."""

    id: str
    score: float
    rank: int


def _scores(matrix: np.ndarray, query: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        diff = matrix - query
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query)
    sims = matrix @ query
    # zero-norm rows have no direction; score them as orthogonal
    return np.divide(sims, norms, out=np.zeros_like(sims), where=norms > 0)


def _ranked(
    ids: Sequence[str], scores: np.ndarray, k: int, descending: bool
) -> list[NeighborResult]:
    """The first ``k`` of ``ids`` by score, ties broken by the smaller id."""
    key = np.asarray(ids, dtype=object)  # object compare is Python str order
    order = np.lexsort((key, -scores if descending else scores))[:k]
    return [
        NeighborResult(ids[i], float(scores[i]), rank)
        for rank, i in enumerate(order.tolist(), start=1)
    ]


def neighbors(
    index: VectorIndex,
    query: np.ndarray,
    k: int,
    exclude_id: str | None = None,
) -> list[NeighborResult]:
    """Top-k rows by metric; exact, ties broken by smaller id.

    ``exclude_id`` removes one row (self-queries). Asking for more
    neighbors than the index holds returns everything, sorted.
    """
    check_integer("k", k, 1)
    if len(index) == 0:
        raise DataError("index is empty")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.matrix.shape[1],):
        raise DataError(
            f"query dimension {query.shape} does not match index d={index.matrix.shape[1]}"
        )
    ids = index.ids
    scores = _scores(index.matrix, query, index.metric)
    if exclude_id in ids:
        drop = ids.index(exclude_id)
        ids = ids[:drop] + ids[drop + 1:]
        scores = np.delete(scores, drop)
    return _ranked(ids, scores, k, descending=index.metric == "cosine")


def majority_vote(
    results: Sequence[NeighborResult],
    labels: Mapping[str, str],
    similarity: bool = False,
) -> str:
    """Most frequent label among the neighbors.

    Count ties resolve toward the smaller summed distance (larger summed
    score when ``similarity``), then toward the lexicographically smaller
    label. Every neighbor must be labeled.
    """
    if not results:
        raise DataError("cannot vote over an empty neighbor list")
    votes: dict[str, int] = {}
    sums: dict[str, float] = {}
    for r in results:
        if r.id not in labels:
            raise DataError(f"neighbor {r.id!r} has no family label")
        fam = labels[r.id]
        votes[fam] = votes.get(fam, 0) + 1
        sums[fam] = sums.get(fam, 0.0) + r.score
    top = max(votes.values())
    sign = -1.0 if similarity else 1.0
    return min(
        (fam for fam, n in votes.items() if n == top),
        key=lambda fam: (sign * sums[fam], fam),
    )


def knn_cross_validate(
    index: VectorIndex,
    k_values: Sequence[int],
    folds: int = 10,
    seed: int = 0,
) -> dict[int, MetricSummary]:
    """Stratified cross-validated kNN accuracy for each k.

    Families with fewer members than folds are dropped (with a warning).
    A k larger than a training fold votes over the whole fold (one warning
    names such k and the smallest fold).
    Each test vector is classified by majority vote over its nearest
    training-fold neighbors; the report maps k to accuracy mean +/-
    sample std over folds.
    """
    check_integer("seed", seed)
    if index.labels is None:
        raise ConfigError("index has no labels to cross-validate against")
    check_integer("folds", folds, 2)
    if not k_values:
        raise ConfigError("k_values must not be empty")
    for k in k_values:
        check_integer("k", k, 1)
    if len(set(k_values)) < len(k_values):
        raise ConfigError(f"k_values must be distinct, got {','.join(map(str, k_values))}")

    keep = set(_cv_families(Counter(index.labels), folds))
    rows = [i for i, fam in enumerate(index.labels) if fam in keep]
    labels = [index.labels[i] for i in rows]
    matrix = index.matrix[rows]
    ids = [index.ids[i] for i in rows]

    fold_of = stratified_folds(labels, folds, np.random.default_rng([seed]))
    maxk = max(k_values)
    smallest = len(labels) - int(np.bincount(fold_of, minlength=folds).max())
    if maxk > smallest:
        over = ",".join(str(k) for k in k_values if k > smallest)
        warnings.warn(f"k={over} exceeds the smallest training fold "
                      f"({smallest} vectors); there the vote is over the whole fold")
    acc: dict[int, list[float]] = {k: [] for k in k_values}
    for f in range(folds):
        test = np.flatnonzero(fold_of == f)
        train = np.flatnonzero(fold_of != f)
        fold_index = VectorIndex(matrix[train], [ids[i] for i in train],
                                 metric=index.metric)
        label_map = {ids[i]: labels[i] for i in train}
        correct = dict.fromkeys(k_values, 0)
        for row in test:
            ranked = neighbors(fold_index, matrix[row], maxk)
            for k in k_values:
                pred = majority_vote(
                    ranked[:k], label_map, similarity=index.metric == "cosine"
                )
                correct[k] += pred == labels[row]
        for k in k_values:
            acc[k].append(correct[k] / len(test))
    return {k: _summarize(acc[k]) for k in k_values}
