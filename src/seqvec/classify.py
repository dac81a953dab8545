"""Linear-SVM classification protocols and their evaluation metrics.

The classifier is a primal hinge-loss SGD (Pegasos schedule): it
minimizes (1/2)||w||^2 + C * sum_i hinge(y_i (w.x_i + b)) via the
equivalent lambda = 1/(nC) formulation, one random example per step,
eta_t = 1/(lambda t), with an unregularized bias. Every model is a lane
of one lockstep loop (``_pegasos_lanes``): step t runs the t-th step of
every lane that has one, and each lane reads only its own weights, so
each model is bit-identical to the one its own per-example loop would
train (the tests keep that loop as the oracle). Two evaluation
protocols are provided: a per-family binary task against an equal-size
random negative sample, and a multiclass one-vs-rest task over the most
populous families. Each trains all of its folds (and classes, or
families) in one call of the loop. Both report specificity, sensitivity, accuracy and
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

from .errors import ConfigError, DataError, check_integer

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
    "binary_family_protocols",
    "binary_eligible_families",
    "multiclass_protocol",
]

#: Pegasos passes over the training examples per SVM fit.
SVM_EPOCHS = 20

#: Floats of X that ``_pegasos_lanes`` gathers for a block of steps at once.
_PLAN_CELLS = 1 << 15


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
    check_integer("folds", folds, 2)
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


class _Fit(NamedTuple):
    """Models for ``_pegasos_lanes`` that train on one set of rows of X: one
    per row of the +/-1 label matrix Y, (k, len(rows)), each visiting the
    rows in the orders drawn from ``seed``."""

    rows: np.ndarray
    Y: np.ndarray
    seed: object


def _pegasos_lanes(
    X: np.ndarray, fits: Sequence[_Fit], C: float, ids: Sequence[str] | None = None
) -> list[SvmModel]:
    """Pegasos SGD on the primal hinge loss for every model, in lockstep.

    Each model (one row of a fit's Y) is a lane that trains on the examples
    ``X[fit.rows]``: lambda = 1/(nC) maps the C-weighted objective onto the
    Pegasos schedule eta_t = 1/(lambda t), SVM_EPOCHS passes visit the
    examples in the orders of SVM_EPOCHS ``default_rng(fit.seed).permutation(n)``
    calls (drawn once per fit), and the bias is updated by the hinge
    subgradient but not regularized. Lanes are sorted by step count, longest
    first, and step t runs on the ones that have a t-th step; each gives the
    same bits as the per-example loop over its own examples would. Returns
    the models fit by fit, in the order of their rows of Y. ``ids`` names
    the rows of X in the error for a non-finite one.
    """
    if not 0 < C < math.inf:
        raise ConfigError(f"C must be finite and positive, got {C}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        row = int(bad[0])
        name = f"row {row}" if ids is None else f"sequence {ids[row]!r}"
        raise DataError(f"SVM input {name} is not finite")
    for fit in fits:
        for y in fit.Y:
            if set(y.tolist()) != {-1, 1}:
                raise DataError("need both classes present, labels in {-1, +1}")
        n = len(fit.rows)
        if 1.0 / (n * C) == 0.0:  # n * C overflowed
            raise ConfigError(f"C={C} is too large for {n} examples")

    # every fit's visiting orders, as positions into its rows
    n_of = np.array([len(fit.rows) for fit in fits])
    perm = np.empty(SVM_EPOCHS * int(n_of.sum()), dtype=np.intp)
    end = 0
    for fit in fits:
        rng, n = np.random.default_rng(fit.seed), len(fit.rows)
        for _ in range(SVM_EPOCHS):
            perm[end : end + n] = rng.permutation(n)
            end += n

    fit_of = np.repeat(np.arange(len(fits)), [len(fit.Y) for fit in fits])
    lanes = np.argsort(-n_of[fit_of], kind="stable")  # most steps first
    fit_of = fit_of[lanes]
    sizes = n_of[fit_of]
    start = (np.cumsum(sizes) - sizes)[:, None]
    drawn_at = (SVM_EPOCHS * (np.cumsum(n_of) - n_of))[fit_of][:, None]
    rows = np.concatenate([np.asarray(fits[f].rows, dtype=np.intp) for f in fit_of])
    ys = [y for fit in fits for y in fit.Y]
    y = np.concatenate([np.asarray(ys[j], dtype=np.float64) for j in lanes])
    lam = 1.0 / (sizes * C)

    d = X.shape[1]
    W = np.zeros((len(lanes), d))
    B = np.zeros(len(lanes))
    t0 = 0
    for A in range(len(lanes), 0, -1):  # lanes 0..A-1 have steps t0+1..t1
        t1 = SVM_EPOCHS * int(sizes[A - 1])
        Wa, Ba = W[:A], B[:A]
        Wr = Wa[:, None, :]  # (lanes, 1, d): a stacked matmul gives w @ x per lane
        block = max(1, _PLAN_CELLS // max(1, A * d))
        for b0 in range(t0, t1, block):  # plan a block of steps at a time
            b1 = min(t1, b0 + block)
            at = start[:A] + perm[drawn_at[:A] + np.arange(b0, b1)]
            Xb = X.take(rows[at].T, axis=0)[..., None]  # (steps, lanes, d, 1)
            yb = y[at].T
            t = np.arange(b0 + 1, b1 + 1, dtype=np.float64)[:, None]
            step = (1.0 / (lam[:A] * t)) * yb  # eta * y
            Ub = step[:, :, None] * Xb[..., 0]
            for s in range(b1 - b0):
                Wa *= 1.0 - 1.0 / (b0 + s + 1)  # (1 - eta * lam)
                margin = np.matmul(Wr, Xb[s]).reshape(A)
                margin += Ba
                margin *= yb[s]
                hit = margin < 1.0
                np.add(Wa, Ub[s], out=Wa, where=hit[:, None])
                np.add(Ba, step[s], out=Ba, where=hit)
        t0 = t1
    return [SvmModel(W[lane].copy(), float(B[lane]), C)
            for lane in np.argsort(lanes).tolist()]


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
    subgradient but not regularized. One lane of ``_pegasos_lanes``.
    """
    check_integer("seed", seed)
    y = np.asarray(y, dtype=np.int64)
    X = _matrix(X, len(y))
    return _pegasos_lanes(X, [_Fit(np.arange(len(X)), y[None], seed)], C)[0]


def _matrix(X, n: int) -> np.ndarray:
    """X as a float64 (n, d) matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) != n:
        raise ConfigError("X must be (n, d) with one label per row")
    return X


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
    check_integer("seed", seed)
    X = _matrix(X, len(y))
    classes, fit = _ovr_fit(np.arange(len(y)), np.asarray(y), seed)
    return OneVsRestModel(classes, _pegasos_lanes(X, [fit], C))


def _ovr_fit(rows: np.ndarray, y: np.ndarray, seed) -> tuple[list, _Fit]:
    """The classes among ``y[rows]``, sorted, and a fit with one
    class-vs-rest labelling each."""
    labels = y[rows]
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise DataError("one-vs-rest needs at least 2 classes")
    Y = np.array([np.where(labels == cls, 1, -1) for cls in classes])
    return classes, _Fit(rows, Y, seed)


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
    check_integer("folds", folds, 2)
    return max(10, folds)


def binary_eligible_families(
    vectors: Mapping[str, np.ndarray],
    labels: Mapping[str, str],
    folds: int = 10,
    top_n_families: int | None = None,
) -> list[str]:
    """The ``top_n_families`` (all when None) families that
    binary_family_protocol accepts at ``folds`` (at least max(10, folds)
    members), largest first with ties broken by name."""
    if top_n_families is not None:
        check_integer("top_n_families", top_n_families, 1)
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
    are averaged over stratified folds. The one-family call of
    ``binary_family_protocols``.
    """
    return binary_family_protocols(vectors, labels, [family], folds, seed, C)[0]


def binary_family_protocols(
    vectors: Mapping[str, np.ndarray],
    labels: Mapping[str, str],
    families: Sequence[str],
    folds: int = 10,
    seed: int = 0,
    C: float = 1.0,
) -> list[MetricsReport]:
    """``binary_family_protocol`` for each of ``families``, in order, with
    every family's folds trained in one ``_pegasos_lanes`` call.

    Each family's chosen rows are stacked into one X and its fits offset
    to them; its negatives, folds and fit seeds are drawn as for it alone,
    so each report is the one its own call gives.
    """
    check_integer("seed", seed)
    if not families:
        return []
    ids = sorted(i for i in vectors if i in labels)
    need = _binary_min_members(folds)
    chosen, ys, fold_ofs = [], [], []
    for family in families:
        pos_ids = [i for i in ids if labels[i] == family]
        if len(pos_ids) < need:
            raise DataError(
                f"family {family!r} has {len(pos_ids)} members; "
                f"need >= {need} for {folds}-fold evaluation"
            )
        pool = [i for i in ids if labels[i] != family]
        if len(pool) < len(pos_ids):
            raise DataError("negative pool smaller than the family")
        rng = np.random.default_rng([seed, 0])
        neg_ids = rng.choice(np.array(pool), size=len(pos_ids), replace=False).tolist()
        y = np.array([1] * len(pos_ids) + [-1] * len(neg_ids))
        chosen += pos_ids + neg_ids
        ys.append(y)
        fold_ofs.append(stratified_folds(["pos" if v == 1 else "neg" for v in y], folds,
                                         np.random.default_rng([seed, 1])))
    X = np.stack([np.asarray(vectors[i], dtype=np.float64) for i in chosen])
    starts = np.cumsum([0, *map(len, ys)]).tolist()
    fits = [_Fit(start + np.flatnonzero(fold_of != f), y[None, fold_of != f], [seed, 2, f])
            for start, y, fold_of in zip(starts, ys, fold_ofs) for f in range(folds)]
    models = iter(_pegasos_lanes(X, fits, C, chosen))
    reports = []
    for family, start, y, fold_of in zip(families, starts, ys, fold_ofs):
        Xf = X[start : start + len(y)]
        per_fold = []
        for f, model in zip(range(folds), models):
            test = fold_of == f
            per_fold.append(metrics_from_counts(_confusion(model.predict(Xf[test]),
                                                           y[test])))
        reports.append(_aggregate(per_fold, f"family {family}: "))
    return reports


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
    check_integer("top_n_families", top_n_families, 1)
    check_integer("seed", seed)
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
    classes, fits = [], []
    for f in range(folds):
        fold_classes, fold_fit = _ovr_fit(np.flatnonzero(fold_of != f), y, [seed, 2, f])
        classes.append(fold_classes)
        fits.append(fold_fit)
    models = iter(_pegasos_lanes(X, fits, C, ids))
    per_fold = []
    undefined = Counter()  # metric -> folds where some class leaves it undefined
    for f in range(folds):
        test = fold_of == f
        ovr = OneVsRestModel(classes[f], [next(models) for _ in classes[f]])
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
