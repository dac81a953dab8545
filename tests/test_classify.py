"""Tests for metrics, the Pegasos SVM, and the evaluation protocols."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqvec import classify
from seqvec.classify import (
    SVM_EPOCHS,
    ConfusionCounts,
    _cv_families,
    _Fit,
    _pegasos_lanes,
    MetricSummary,
    MetricValues,
    MetricsReport,
    SvmModel,
    aggregate_metrics,
    binary_family_protocol,
    binary_family_protocols,
    metrics_from_counts,
    multiclass_protocol,
    one_vs_rest,
    stratified_folds,
    svm_objective,
    train_linear_svm,
)
from seqvec.errors import ConfigError, DataError


def _ref_train_linear_svm(X, y, C=1.0, *, seed=0):
    """The per-example Pegasos loop, one model at a time: the oracle of
    ``_pegasos_lanes``."""
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


class TestMetricsFromCounts:
    def test_direct_substitution(self):
        m = metrics_from_counts(ConfusionCounts(tp=8, tn=9, fp=1, fn=2))
        assert m.sensitivity == pytest.approx(0.8)
        assert m.specificity == pytest.approx(0.9)
        assert m.accuracy == pytest.approx(0.85)
        assert m.precision == pytest.approx(8 / 9)

    def test_zero_over_zero_is_undefined(self):
        m = metrics_from_counts(ConfusionCounts(tp=0, tn=10, fp=0, fn=0))
        assert m.specificity == 1.0
        assert m.accuracy == 1.0
        assert m.sensitivity is None
        assert m.precision is None

    def test_all_zero_is_an_error(self):
        with pytest.raises(DataError):
            metrics_from_counts(ConfusionCounts(0, 0, 0, 0))

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            ConfusionCounts(-1, 0, 0, 0)

    def test_against_independent_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, 4))
            if tp + tn + fp + fn == 0:
                continue
            m = metrics_from_counts(ConfusionCounts(tp, tn, fp, fn))
            if tn + fp:
                assert abs(m.specificity - tn / (tn + fp)) < 1e-12
            else:
                assert m.specificity is None
            if tp + fn:
                assert abs(m.sensitivity - tp / (tp + fn)) < 1e-12
            else:
                assert m.sensitivity is None
            assert abs(m.accuracy - (tn + tp) / (tn + tp + fn + fp)) < 1e-12
            if tp + fp:
                assert abs(m.precision - tp / (tp + fp)) < 1e-12
            else:
                assert m.precision is None

    def test_accuracy_decomposition_identity(self):
        # accuracy == (sens * P + spec * N) / (P + N) wherever both defined
        rng = np.random.default_rng(1)
        for _ in range(300):
            tp, tn, fp, fn = (int(v) for v in rng.integers(1, 30, 4))
            m = metrics_from_counts(ConfusionCounts(tp, tn, fp, fn))
            P, N = tp + fn, tn + fp
            assert m.accuracy == pytest.approx(
                (m.sensitivity * P + m.specificity * N) / (P + N), abs=1e-12
            )


class TestAggregate:
    def test_undefined_folds_excluded_with_warning(self):
        folds = [
            MetricValues(1.0, None, 1.0, 0.5),
            MetricValues(0.5, 1.0, 1.0, 0.7),
        ]
        with pytest.warns(UserWarning, match="sensitivity undefined"):
            report = aggregate_metrics(folds)
        assert report.sensitivity.mean == 1.0
        assert report.specificity.mean == pytest.approx(0.75)

    def test_sample_std(self):
        folds = [MetricValues(0.4, 0.4, 0.4, 0.4), MetricValues(0.6, 0.6, 0.6, 0.6)]
        report = aggregate_metrics(folds)
        assert report.accuracy.std == pytest.approx(np.std([0.4, 0.6], ddof=1))


class TestStratifiedFolds:
    def test_partition_and_balance(self):
        labels = ["a"] * 23 + ["b"] * 17 + ["c"] * 40
        fold_of = stratified_folds(labels, 5, np.random.default_rng(0))
        assert len(fold_of) == 80
        labels = np.asarray(labels)
        for lab in "abc":
            per_fold = [np.sum((fold_of == f) & (labels == lab)) for f in range(5)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_family_selection_ranks_by_size_then_name(self):
        sizes = {"A": 12, "B": 15, "C": 20, "E": 15, "D": 3}
        assert _cv_families(sizes, folds=10, top_n=3) == ["C", "B", "E"]
        with pytest.warns(UserWarning, match="dropped 1 families with fewer than "
                                             "10 members: D$"):
            assert _cv_families(sizes, folds=10) == ["C", "B", "E", "A"]

    def test_deterministic_for_seed(self):
        labels = ["a"] * 10 + ["b"] * 10
        a = stratified_folds(labels, 4, np.random.default_rng(9))
        b = stratified_folds(labels, 4, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestLinearSvm:
    def test_separable_one_dimensional(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1, -1, 1, 1])
        model = train_linear_svm(X, y, C=1.0, seed=0)
        assert np.array_equal(model.predict(X), y)

    def test_xor_is_not_linearly_separable(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1, -1, 1, 1])

        # oracle: enumerate linear classifiers over a dense direction/offset
        # grid; nothing linear exceeds 3/4 on XOR
        best = 0.0
        for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            w = np.array([np.cos(theta), np.sin(theta)])
            for b in np.linspace(-2, 2, 81):
                pred = np.where(X @ w + b >= 0, 1, -1)
                best = max(best, float(np.mean(pred == y)))
        assert best == pytest.approx(0.75)

        model = train_linear_svm(X, y, C=1.0, seed=0)
        assert np.mean(model.predict(X) == y) <= 0.75

    @pytest.mark.parametrize("C", [0.0, -1.0, math.inf, math.nan])
    def test_non_positive_or_non_finite_C_rejected(self, C):
        X = np.array([[-1.0], [1.0]])
        with pytest.raises(ConfigError, match="C must be finite and positive"):
            train_linear_svm(X, [-1, 1], C=C)

    def test_single_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(DataError, match="both classes"):
            train_linear_svm(X, [1, 1, 1])

    def test_objective_decreases_on_separable_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            d = int(rng.integers(2, 6))
            w_true = rng.normal(size=d)
            w_true /= np.linalg.norm(w_true)
            X = rng.normal(size=(40, d))
            margins = X @ w_true
            X = X[np.abs(margins) > 0.3]
            y = np.where(X @ w_true > 0, 1, -1)
            C = float(rng.choice([0.5, 1.0, 2.0]))
            initial = svm_objective(SvmModel(np.zeros(d), 0.0, C), X, y)
            model = train_linear_svm(X, y, C=C, seed=trial)
            assert svm_objective(model, X, y) < initial

    def test_prediction_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        w = rng.normal(size=4)
        b = 0.37
        base = SvmModel(w, b, 1.0).predict(X)
        for scale in (0.01, 3.0, 1000.0):
            scaled = SvmModel(w * scale, b * scale, 1.0).predict(X)
            assert np.array_equal(base, scaled)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        y = np.where(X[:, 0] > 0, 1, -1)
        m1 = train_linear_svm(X, y, seed=5)
        m2 = train_linear_svm(X, y, seed=5)
        assert np.array_equal(m1.w, m2.w) and m1.b == m2.b



def _same_bits(model, ref):
    return (model.w.tobytes() == ref.w.tobytes()
            and np.float64(model.b).tobytes() == np.float64(ref.b).tobytes())


def _random_fits(rng, X, n_lanes, shared_seed):
    """Fits over random rows of X with 1-4 labellings (lanes) each, every
    labelling with both classes present, n_lanes lanes in all; with a
    shared seed, fits of different sizes draw from one seed."""
    fits = []
    while n_lanes:
        n = int(rng.integers(2, 121))
        k = min(n_lanes, int(rng.integers(1, 5)))
        rows = rng.choice(len(X), size=n, replace=n > len(X))
        Y = rng.choice([-1, 1], size=(k, n))
        Y[:, :2] = -1, 1
        fits.append(_Fit(rows, Y, [7, 2] if shared_seed else [7, 2, len(fits)]))
        n_lanes -= k
    return fits


def _check_lanes(X, fits, C):
    """Every lane of ``fits`` against its own per-example loop."""
    models = iter(_pegasos_lanes(X, fits, C))
    for fit in fits:
        for y in fit.Y:
            ref = _ref_train_linear_svm(X[fit.rows], y, C, seed=fit.seed)
            assert _same_bits(next(models), ref)
    assert next(models, None) is None


class TestPegasosLanes:
    """Every lane gives the bits of its own per-example loop."""

    @pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("shared_seed", [False, True])
    def test_ragged_lanes_match_the_reference(self, C, shared_seed):
        rng = np.random.default_rng([int(C * 100), shared_seed])
        for _ in range(5):
            d = int(rng.integers(1, 61))
            X = rng.normal(size=(int(rng.integers(2, 121)), d))
            X *= rng.choice([0.1, 1.0, 10.0], size=(len(X), 1))
            _check_lanes(X, _random_fits(rng, X, int(rng.integers(1, 13)), shared_seed), C)

    def test_shrinking_prefix_of_lanes(self):
        # step counts 20 * n differ, so lanes drop out at three points; the
        # two lanes of n = 9 share one set of draws, and the fits of n = 9
        # and n = 30 draw from one seed
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 5))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=60) > 0, 1, -1)
        fits = [_Fit(rows, np.array(Y), seed) for rows, Y, seed in (
            (np.arange(9), [y[:9], -y[:9]], 3), (np.arange(60), [y], 4),
            (np.arange(30), [y[:30]], 3), (np.arange(2, 60, 2), [y[2::2]], 5))]
        _check_lanes(X, fits, 1.0)

    @pytest.mark.parametrize("n, d", [(2, 1), (17, 3), (120, 60)])
    def test_one_lane_matches_the_reference(self, n, d):
        rng = np.random.default_rng([n, d])
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[:2] = 1, -1
        for C in (0.01, 1.0, 100.0):
            assert _same_bits(train_linear_svm(X, y, C, seed=n),
                              _ref_train_linear_svm(X, y, C, seed=n))

    def test_every_lane_is_checked_before_any_step(self):
        X = np.array([[-1.0], [1.0], [2.0]])
        good = _Fit(np.arange(3), np.array([[-1, 1, 1]]), 0)
        one_class = _Fit(np.arange(1, 3), np.array([[1, 1]]), 0)
        second_one_class = _Fit(np.arange(3), np.array([[-1, 1, 1], [1, 1, 1]]), 0)
        with pytest.raises(DataError, match="both classes"):
            _pegasos_lanes(X, [good, one_class], 1.0)
        with pytest.raises(DataError, match="both classes"):
            _pegasos_lanes(X, [second_one_class], 1.0)
        with pytest.raises(ConfigError, match="too large for 3 examples"):
            _pegasos_lanes(X, [good], 1e308)
        with pytest.raises(ConfigError, match="C must be finite and positive"):
            _pegasos_lanes(X, [good], math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected_by_row(self, bad):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = np.where(X[:, 0] > 0, 1, -1)
        X[13, 1] = bad
        with pytest.raises(DataError, match="row 13 is not finite"):
            train_linear_svm(X, y)
        vectors = {f"s{i:02d}": X[i] for i in range(20)}
        labels = {f"s{i:02d}": "AB"[i % 2] for i in range(20)}
        with pytest.raises(DataError, match="sequence 's13' is not finite"):
            multiclass_protocol(vectors, labels, top_n_families=2, folds=4)
        with pytest.raises(DataError, match="sequence 's13' is not finite"):
            binary_family_protocol(vectors, labels, "A", folds=4)


@st.composite
def _lane_cases(draw):
    """X, 1-6 fits of 1-4 lanes each over 2-40 of its rows, with one shared
    seed or a seed per fit, C, and a plan budget."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(40, d)) * rng.choice([0.1, 1.0, 10.0], size=(40, 1))
    shared_seed = draw(st.booleans())
    fits = []
    for f in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 40))
        Y = rng.choice([-1, 1], size=(draw(st.integers(1, 4)), n))
        Y[:, :2] = -1, 1
        fits.append(_Fit(rng.choice(len(X), size=n), Y, [7] if shared_seed else [7, f]))
    C = draw(st.sampled_from([0.01, 1.0, 100.0]))
    return X, fits, C, draw(st.sampled_from([1, 16, 300, classify._PLAN_CELLS]))


class TestPegasosLanesProperty:
    @settings(max_examples=60)
    @given(_lane_cases())
    def test_every_lane_matches_the_reference(self, case):
        X, fits, C, cells = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classify, "_PLAN_CELLS", cells)
            _check_lanes(X, fits, C)


def _golden_vectors():
    """Five overlapping Gaussian families of 14-26 vectors in six dimensions."""
    rng = np.random.default_rng(2024)
    centers = rng.normal(size=(5, 6))
    vectors, labels = {}, {}
    for f, center in enumerate(centers):
        for i in range(14 + 3 * f):
            vectors[f"F{f}_{i}"] = center + 0.9 * rng.normal(size=6)
            labels[f"F{f}_{i}"] = f"FAM{f}"
    return vectors, labels


def _report(*pairs):
    return MetricsReport(*(MetricSummary(m, s) for m, s in pairs))


class TestProtocolGoldens:
    """Reports captured from the per-model loop, before the lanes."""

    def test_multiclass_reports(self):
        vectors, labels = _golden_vectors()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            first = multiclass_protocol(vectors, labels, top_n_families=4, folds=5,
                                        seed=3, C=0.5)
            second = multiclass_protocol(vectors, labels, top_n_families=25, folds=10,
                                         seed=0)
        assert first == _report((0.9398951048951047, 0.02754115721989491),
                                (0.8133333333333332, 0.07880399383562008),
                                (0.9143296353629171, 0.040379468547728156),
                                (0.8777777777777779, 0.08128082201207695))
        assert second == _report((0.9120079365079367, 0.027880285788651732),
                                 (0.6633333333333333, 0.1180604574145733),
                                 (0.8665656565656565, 0.04321910493667577),
                                 (0.7975694444444444, 0.11259676622533746))

    def test_binary_reports(self):
        vectors, labels = _golden_vectors()
        first = binary_family_protocol(vectors, labels, "FAM2", folds=10, seed=7, C=2.0)
        second = binary_family_protocol(vectors, labels, "FAM0", folds=4, seed=1)
        assert first == _report((0.85, 0.24152294576982397),
                                (0.8, 0.25819888974716115),
                                (0.825, 0.20581815058714115),
                                (0.8666666666666666, 0.21942686286812776))
        assert second == _report((0.9375, 0.125),
                                 (0.7291666666666666, 0.35600015605489715),
                                 (0.8333333333333334, 0.23570226039551584),
                                 (0.875, 0.25))

    @pytest.mark.parametrize("folds, seed, C", [(10, 7, 2.0), (4, 1, 1.0)])
    def test_binary_reports_of_families_trained_at_once(self, folds, seed, C):
        # one lockstep call trains every family's folds; each report, and
        # each family's warnings in turn, are those of the family's own call
        vectors, labels = _golden_vectors()
        families = ["FAM4", "FAM2", "FAM0", "FAM3", "FAM1"]
        with warnings.catch_warnings(record=True) as together_warned:
            warnings.simplefilter("always")
            together = binary_family_protocols(vectors, labels, families, folds, seed, C)
        with warnings.catch_warnings(record=True) as alone_warned:
            warnings.simplefilter("always")
            alone = [binary_family_protocol(vectors, labels, fam, folds, seed, C)
                     for fam in families]
        assert together == alone
        assert ([str(w.message) for w in together_warned]
                == [str(w.message) for w in alone_warned])
        assert binary_family_protocols(vectors, labels, [], folds, seed, C) == []

def _clusters(centers, per_class, noise, seed, prefix="C"):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for ci, center in enumerate(centers):
        X.append(center + noise * rng.normal(size=(per_class, len(center))))
        y.extend([f"{prefix}{ci}"] * per_class)
    return np.vstack(X), np.array(y)


class TestOneVsRest:
    def test_three_separated_clusters(self):
        centers = np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, -10.0]])
        X, y = _clusters(centers, 60, 0.2, seed=0)
        train = np.arange(len(X)) % 3 != 0
        ovr = one_vs_rest(X[train], y[train], seed=1)
        pred = np.array(ovr.predict(X[~train]))
        assert np.mean(pred == y[~train]) >= 0.95

    def test_two_classes_reduce_to_binary_decision(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y_num = np.where(X[:, 1] > 0, 1, -1)
        y = np.where(y_num == 1, "a", "b")
        ovr = one_vs_rest(X, y, seed=3)
        binary = train_linear_svm(X, y_num, seed=3)
        assert np.allclose(ovr.models[0].w, -ovr.models[1].w)
        expected = np.where(binary.predict(X) == 1, "a", "b")
        assert np.array_equal(np.array(ovr.predict(X)), expected)

    def test_tie_takes_smaller_class_label(self):
        X = np.zeros((4, 2))
        X[:2, 0] = 1.0
        X[2:, 0] = 1.0  # identical features for both classes
        y = np.array(["b", "b", "a", "a"])
        ovr = one_vs_rest(X, y, seed=0)
        assert ovr.predict(np.array([[1.0, 0.0]])) == ["a"]

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            one_vs_rest(np.zeros((3, 2)), ["a", "a", "a"])


class TestBinaryFamilyProtocol:
    def _vectors(self, seed=0):
        rng = np.random.default_rng(seed)
        vectors, labels = {}, {}
        for i in range(12):  # the target family: tight cluster far away
            vectors[f"fam{i}"] = np.array([50.0, 50.0]) + 0.1 * rng.normal(size=2)
            labels[f"fam{i}"] = "TARGET"
        for i in range(200):
            vectors[f"other{i}"] = rng.normal(size=2)
            labels[f"other{i}"] = f"BG{i % 20}"
        return vectors, labels

    def test_separable_family_scores_high(self):
        vectors, labels = self._vectors()
        report = binary_family_protocol(vectors, labels, "TARGET", folds=10, seed=0)
        assert report.accuracy.mean >= 0.95
        assert report.specificity.mean >= 0.9
        assert report.sensitivity.mean >= 0.9

    def test_family_below_minimum_rejected(self):
        vectors, labels = self._vectors()
        nine = {k: v for k, v in vectors.items() if not k.startswith("fam")}
        nine_labels = {k: labels[k] for k in nine}
        for i in range(9):
            nine[f"fam{i}"] = vectors[f"fam{i}"]
            nine_labels[f"fam{i}"] = "TARGET"
        with pytest.raises(DataError, match="TARGET"):
            binary_family_protocol(nine, nine_labels, "TARGET", folds=10)

    def test_negative_pool_must_cover_family(self):
        rng = np.random.default_rng(0)
        vectors = {f"fam{i}": rng.normal(size=2) for i in range(10)}
        labels = {f"fam{i}": "TARGET" for i in range(10)}
        vectors["only"] = rng.normal(size=2)
        labels["only"] = "OTHER"
        with pytest.raises(DataError, match="negative pool"):
            binary_family_protocol(vectors, labels, "TARGET")

    def test_deterministic_for_seed(self):
        vectors, labels = self._vectors()
        r1 = binary_family_protocol(vectors, labels, "TARGET", seed=42)
        r2 = binary_family_protocol(vectors, labels, "TARGET", seed=42)
        assert r1 == r2


class TestMulticlassProtocol:
    def test_separable_families_score_high(self):
        centers = 30.0 * np.eye(5)
        X, y = _clusters(centers, 30, 0.2, seed=1, prefix="FAM")
        vectors = {f"s{i}": X[i] for i in range(len(X))}
        labels = {f"s{i}": y[i] for i in range(len(X))}
        report = multiclass_protocol(vectors, labels, top_n_families=5, seed=0)
        assert report.accuracy.mean >= 0.95
        assert report.sensitivity.mean >= 0.9
        assert report.precision.mean >= 0.9

    def test_top_n_clamped_with_warning(self):
        centers = 30.0 * np.eye(3)
        X, y = _clusters(centers, 15, 0.2, seed=2, prefix="FAM")
        vectors = {f"s{i}": X[i] for i in range(len(X))}
        labels = {f"s{i}": y[i] for i in range(len(X))}
        with pytest.warns(UserWarning, match="using all"):
            report = multiclass_protocol(vectors, labels, top_n_families=25, seed=0)
        assert report.accuracy.mean >= 0.9

    def test_undefined_metric_warns_once_with_its_fold_count(self):
        # B sits on top of A, so B is never predicted: precision is
        # undefined for it in every fold
        rng = np.random.default_rng(0)
        vectors, labels = {}, {}
        for fam, center in (("A", [5.0, 0.0]), ("B", [5.0, 0.0]), ("C", [0.0, 5.0])):
            for i in range(8):
                vectors[f"{fam}{i}"] = np.array(center) + 0.01 * rng.normal(size=2)
                labels[f"{fam}{i}"] = fam
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            multiclass_protocol(vectors, labels, top_n_families=3, folds=4, seed=0)
        assert [str(w.message) for w in caught] == [
            "precision undefined for some classes in 4 of 4 folds"
        ]

    def test_fewer_than_two_families_rejected(self):
        vectors = {f"s{i}": np.zeros(2) for i in range(20)}
        labels = {f"s{i}": "ONLY" for i in range(20)}
        with pytest.raises(DataError):
            multiclass_protocol(vectors, labels, top_n_families=1)

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one_rejected(self, top_n):
        centers = 30.0 * np.eye(3)
        X, y = _clusters(centers, 15, 0.2, seed=3, prefix="FAM")
        vectors = {f"s{i}": X[i] for i in range(len(X))}
        labels = {f"s{i}": y[i] for i in range(len(X))}
        with pytest.raises(ConfigError, match="top_n_families"):
            multiclass_protocol(vectors, labels, top_n_families=top_n)

    def test_deterministic_for_seed(self):
        centers = 30.0 * np.eye(3)
        X, y = _clusters(centers, 15, 0.2, seed=3, prefix="FAM")
        vectors = {f"s{i}": X[i] for i in range(len(X))}
        labels = {f"s{i}": y[i] for i in range(len(X))}
        r1 = multiclass_protocol(vectors, labels, top_n_families=3, seed=9)
        r2 = multiclass_protocol(vectors, labels, top_n_families=3, seed=9)
        assert r1 == r2
