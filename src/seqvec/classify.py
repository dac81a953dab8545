"""Linear-SVM classification protocols and their evaluation metrics.

The classifier is a primal hinge-loss SGD (Pegasos schedule): it
minimizes (1/2)||w||^2 + C * sum_i hinge(y_i (w.x_i + b)) via the
equivalent lambda = 1/(nC) formulation, one random example per step,
eta_t = 1/(lambda t), with an unregularized bias. Two evaluation
protocols are provided: a per-family binary task against an equal-size
random negative sample, and a multiclass one-vs-rest task over the most
populous families. Both report specificity, sensitivity, accuracy and
precision as mean +/- sample std over stratified cross-validation folds;
0/0 metrics are left undefined and excluded from the averages with a
warning rather than coerced to zero.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "ConfusionCounts",
    "MetricValues",
    "MetricSummary",
    "MetricsReport",
    "SvmModel",
    "OneVsRestModel",
    "metrics_from_counts",
    "aggregate_metrics",
    "stratified_folds",
    "train_linear_svm",
    "svm_objective",
    "one_vs_rest",
    "binary_family_protocol",
    "binary_eligible_families",
    "multiclass_protocol",
]

#: Pegasos passes over the training examples per SVM fit.
SVM_EPOCHS = 20


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ConfigError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


class MetricValues(NamedTuple):
    """Metrics of one evaluation; None marks an undefined 0/0 ratio."""

    specificity: float | None
    sensitivity: float | None
    accuracy: float | None
    precision: float | None


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-metric mean +/- sample std over folds (None if never defined)."""

    specificity: MetricSummary | None
    sensitivity: MetricSummary | None
    accuracy: MetricSummary | None
    precision: MetricSummary | None


def metrics_from_counts(c: ConfusionCounts) -> MetricValues:
    """specificity tn/(tn+fp), sensitivity tp/(tp+fn),
    accuracy (tn+tp)/total, precision tp/(tp+fp); 0/0 -> None."""
    if c.total == 0:
        raise DataError("all four confusion counts are zero")

    def ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    return MetricValues(
        specificity=ratio(c.tn, c.tn + c.fp),
        sensitivity=ratio(c.tp, c.tp + c.fn),
        accuracy=(c.tn + c.tp) / c.total,
        precision=ratio(c.tp, c.tp + c.fp),
    )


def _summarize(values: list[float]) -> MetricSummary:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return MetricSummary(float(arr.mean()), std)


def aggregate_metrics(per_fold: Sequence[MetricValues]) -> MetricsReport:
    """Mean +/- sample std per metric, skipping undefined folds (warns)."""
    return _aggregate(per_fold, "")


def _aggregate(per_fold: Sequence[MetricValues], scope: str) -> MetricsReport:
    """aggregate_metrics, with ``scope`` prefixed to each warning."""
    out = {}
    for name in MetricValues._fields:
        values = [getattr(m, name) for m in per_fold]
        defined = [v for v in values if v is not None]
        if len(defined) < len(values):
            warnings.warn(
                f"{scope}{name} undefined in {len(values) - len(defined)} of "
                f"{len(values)} folds; excluded from the average"
            )
        out[name] = _summarize(defined) if defined else None
    return MetricsReport(**out)


def stratified_folds(
    labels: Sequence[str], folds: int, rng: np.random.Generator
) -> np.ndarray:
    """Fold index per element; each label's members spread within +/-1.

    Labels are visited in sorted order and each label's members are
    shuffled before round-robin assignment, so the partition is a pure
    function of the generator state.
    """
    if folds < 2:
        raise ConfigError("need at least 2 folds")
    labels = np.asarray(labels)
    fold_of = np.empty(len(labels), dtype=np.int64)
    for lab in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == lab)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % folds
    return fold_of


@dataclass
class SvmModel:
    w: np.ndarray
    b: float
    C: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.w + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        """+1/-1 labels; a margin of exactly zero predicts +1."""
        return np.where(self.decision(X) >= 0.0, 1, -1)


def svm_objective(model: SvmModel, X: np.ndarray, y: np.ndarray) -> float:
    """(1/2)||w||^2 + C * sum hinge(y (w.x + b))."""
    margins = np.asarray(y) * model.decision(X)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * float(model.w @ model.w) + model.C * float(hinge)


def train_linear_svm(
    X: np.ndarray,
    y: Sequence[int] | np.ndarray,
    C: float = 1.0,
    *,
    seed=0,
) -> SvmModel:
    """Pegasos-style SGD on the primal hinge loss; deterministic per seed.

    lambda = 1/(nC) maps the C-weighted objective onto the Pegasos
    schedule eta_t = 1/(lambda t). The bias is updated by the hinge
    subgradient but not regularized.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ConfigError("X must be (n, d) with one label per row")
    if not 0 < C < math.inf:
        raise ConfigError(f"C must be finite and positive, got {C}")
    if set(np.unique(y).tolist()) != {-1, 1}:
        raise DataError("need both classes present, labels in {-1, +1}")

    n, d = X.shape
    lam = 1.0 / (n * C)
    if lam == 0.0:  # n * C overflowed
        raise ConfigError(f"C={C} is too large for {n} examples")
    w = np.zeros(d)
    b = 0.0
    t = 0
    rng = np.random.default_rng(seed)
    for _ in range(SVM_EPOCHS):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            w *= 1.0 - 1.0 / t  # (1 - eta * lam)
            if y[i] * (w @ X[i] + b) < 1.0:
                w += (eta * y[i]) * X[i]
                b += eta * y[i]
    return SvmModel(w, b, C)


@dataclass
class OneVsRestModel:
    classes: list[str]  # sorted; argmax ties resolve to the smaller label
    models: list[SvmModel]

    def margins(self, X: np.ndarray) -> np.ndarray:
        return np.stack([m.decision(X) for m in self.models], axis=1)

    def predict(self, X: np.ndarray) -> list[str]:
        best = np.argmax(self.margins(X), axis=1)  # first max = smaller label
        return [self.classes[i] for i in best]


def one_vs_rest(
    X: np.ndarray,
    y: Sequence[str],
    C: float = 1.0,
    *,
    seed=0,
) -> OneVsRestModel:
    """One binary model per class (class vs all others).

    Every per-class training uses the same seed, so with two classes the
    two margin curves are exact negations and the argmax reduces to the
    single binary decision.
    """
    classes = sorted(set(y))
    if len(classes) < 2:
        raise DataError("one-vs-rest needs at least 2 classes")
    y = np.asarray(y)
    models = [
        train_linear_svm(X, np.where(y == cls, 1, -1), C, seed=seed)
        for cls in classes
    ]
    return OneVsRestModel(classes, models)


def _confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    pos_pred = pred == 1
    pos_true = truth == 1
    return ConfusionCounts(
        tp=int(np.sum(pos_pred & pos_true)),
        tn=int(np.sum(~pos_pred & ~pos_true)),
        fp=int(np.sum(pos_pred & ~pos_true)),
        fn=int(np.sum(~pos_pred & pos_true)),
    )


def _ranked_families(sizes: Mapping[str, int]) -> list[str]:
    """Families largest first, ties broken by name."""
    return sorted(sizes, key=lambda fam: (-sizes[fam], fam))


def _cv_families(
    sizes: Mapping[str, int], folds: int, top_n: int | None = None
) -> list[str]:
    """The ``top_n`` largest families (all when None) that have at least
    ``folds`` members, largest first.

    One warning names the families dropped for size; fewer than 2 left
    is a DataError. Used by kNN cross-validation and multiclass_protocol.
    """
    ranked = _ranked_families(sizes)[:top_n]
    usable = [fam for fam in ranked if sizes[fam] >= folds]
    dropped = [fam for fam in ranked if sizes[fam] < folds]
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} families with fewer than {folds} members: "
            f"{', '.join(map(str, dropped[:5]))}{'...' if len(dropped) > 5 else ''}"
        )
    if len(usable) < 2:
        raise DataError("need at least 2 usable families")
    return usable


def _binary_min_members(folds: int) -> int:
    return max(10, folds)


def _check_top_n(top_n_families: int | None) -> None:
    if top_n_families is not None and top_n_families < 1:
        raise ConfigError(f"top_n_families must be >= 1, got {top_n_families}")


def binary_eligible_families(
    vectors: Mapping[str, np.ndarray],
    labels: Mapping[str, str],
    folds: int = 10,
    top_n_families: int | None = None,
) -> list[str]:
    """The ``top_n_families`` (all when None) families that
    binary_family_protocol accepts at ``folds`` (at least max(10, folds)
    members), largest first with ties broken by name."""
    _check_top_n(top_n_families)
    sizes = Counter(labels[i] for i in vectors if i in labels)
    need = _binary_min_members(folds)
    return [fam for fam in _ranked_families(sizes) if sizes[fam] >= need][:top_n_families]


def binary_family_protocol(
    vectors: Mapping[str, np.ndarray],
    labels: Mapping[str, str],
    family: str,
    folds: int = 10,
    seed: int = 0,
    C: float = 1.0,
) -> MetricsReport:
    """Family-vs-rest evaluation with an equal-size random negative class.

    Positives are the family's sequences; negatives are a seeded uniform
    sample without replacement from all other labeled sequences. Requires
    at least 10 family members (and at least one per fold); the metrics
    are averaged over stratified folds.
    """
    ids = sorted(i for i in vectors if i in labels)
    pos_ids = [i for i in ids if labels[i] == family]
    need = _binary_min_members(folds)
    if len(pos_ids) < need:
        raise DataError(
            f"family {family!r} has {len(pos_ids)} members; "
            f"need >= {need} for {folds}-fold evaluation"
        )
    pool = [i for i in ids if labels[i] != family]
    if len(pool) < len(pos_ids):
        raise DataError("negative pool smaller than the family")

    rng = np.random.default_rng([seed, 0])
    neg_ids = list(rng.choice(np.array(pool), size=len(pos_ids), replace=False))
    chosen = pos_ids + neg_ids
    X = np.stack([np.asarray(vectors[i], dtype=np.float64) for i in chosen])
    y = np.array([1] * len(pos_ids) + [-1] * len(neg_ids))

    fold_of = stratified_folds(
        ["pos" if v == 1 else "neg" for v in y], folds, np.random.default_rng([seed, 1])
    )
    per_fold = []
    for f in range(folds):
        test = fold_of == f
        model = train_linear_svm(X[~test], y[~test], C, seed=[seed, 2, f])
        per_fold.append(metrics_from_counts(_confusion(model.predict(X[test]), y[test])))
    return _aggregate(per_fold, f"family {family}: ")


def multiclass_protocol(
    vectors: Mapping[str, np.ndarray],
    labels: Mapping[str, str],
    top_n_families: int = 25,
    folds: int = 10,
    seed: int = 0,
    C: float = 1.0,
) -> MetricsReport:
    """One-vs-rest classification restricted to the largest families.

    Per fold, each class contributes a one-vs-rest confusion; the report
    macro-averages the metrics over classes, then summarizes over folds.
    """
    _check_top_n(top_n_families)
    ids = sorted(i for i in vectors if i in labels)
    sizes = Counter(labels[i] for i in ids)
    if top_n_families > len(sizes):
        warnings.warn(
            f"top_n_families={top_n_families} exceeds the {len(sizes)} "
            "available families; using all of them"
        )
    keep = set(_cv_families(sizes, folds, top_n_families))
    ids = [i for i in ids if labels[i] in keep]
    X = np.stack([np.asarray(vectors[i], dtype=np.float64) for i in ids])
    y = np.array([labels[i] for i in ids])

    fold_of = stratified_folds(y, folds, np.random.default_rng([seed, 1]))
    per_fold = []
    undefined = Counter()  # metric -> folds where some class leaves it undefined
    for f in range(folds):
        test = fold_of == f
        ovr = one_vs_rest(X[~test], y[~test], C, seed=[seed, 2, f])
        pred = np.array(ovr.predict(X[test]))
        truth = y[test]
        per_class = [
            metrics_from_counts(
                _confusion(
                    np.where(pred == cls, 1, -1), np.where(truth == cls, 1, -1)
                )
            )
            for cls in ovr.classes
        ]
        macro = []
        for name in MetricValues._fields:
            defined = [getattr(m, name) for m in per_class
                       if getattr(m, name) is not None]
            undefined[name] += len(defined) < len(per_class)
            macro.append(float(np.mean(defined)) if defined else None)
        per_fold.append(MetricValues(*macro))
    for name in MetricValues._fields:
        if undefined[name]:
            warnings.warn(f"{name} undefined for some classes in "
                          f"{undefined[name]} of {folds} folds")
    return aggregate_metrics(per_fold)
