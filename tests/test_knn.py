"""Tests for exact neighbor search, voting, and cross-validated kNN."""

import warnings

import numpy as np
import pytest

from seqvec.classify import MetricSummary, multiclass_protocol, stratified_folds
from seqvec.errors import ConfigError, DataError
from seqvec.knn import (
    NeighborResult,
    VectorIndex,
    knn_cross_validate,
    majority_vote,
    neighbors,
)


def _triangle_index(metric="euclidean"):
    return VectorIndex(
        np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]),
        ids=["a", "b", "c"],
        metric=metric,
    )


class TestNeighbors:
    def test_euclidean_hand_distances(self):
        got = neighbors(_triangle_index(), np.array([0.0, 0.0]), k=2)
        assert [(n.id, n.score) for n in got] == [("a", 0.0), ("c", 1.0)]
        assert [n.rank for n in got] == [1, 2]

    def test_exclude_id_reveals_three_four_five(self):
        got = neighbors(_triangle_index(), np.array([0.0, 0.0]), k=2, exclude_id="a")
        assert [(n.id, n.score) for n in got] == [("c", 1.0), ("b", 5.0)]

    def test_tie_broken_by_id(self):
        index = VectorIndex(np.zeros((2, 2)), ids=["y", "x"])
        got = neighbors(index, np.zeros(2), k=1)
        assert got[0].id == "x"

    def test_k_exceeding_size_returns_all(self):
        got = neighbors(_triangle_index(), np.zeros(2), k=10)
        assert len(got) == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError, match="dimension"):
            neighbors(_triangle_index(), np.zeros(3), k=1)

    def test_cosine_orders_by_similarity(self):
        index = VectorIndex(
            np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]),
            ids=["x", "y", "z"],
            metric="cosine",
        )
        got = neighbors(index, np.array([1.0, 0.1]), k=3)
        assert got[0].id == "x"
        assert got[0].score >= got[1].score >= got[2].score

    @pytest.mark.parametrize("ids_of", [
        lambda n: [f"v{i:02d}" for i in range(n)],
        lambda n: ["a" * (i + 1) for i in range(n)],  # each a prefix of the next
        lambda n: list("éeEßzZāaΩ中0_"[:n]),  # non-ASCII, mixed case
        lambda n: ["a" + "\0" * i for i in range(n)],  # numpy str dtype drops trailing NULs
    ])
    def test_agrees_with_full_sort_oracle(self, ids_of):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 5))
            M = rng.normal(size=(n, d))
            if trial % 2:  # forced ties: duplicated rows
                M[rng.integers(0, n, size=n // 2 + 1)] = M[0]
            pool = ids_of(n)
            ids = [pool[i] for i in rng.permutation(n)]
            metric = "euclidean" if trial % 4 < 2 else "cosine"
            index = VectorIndex(M, ids=ids, metric=metric)
            q = M[0] if trial % 3 == 0 else rng.normal(size=d)
            k = int(rng.integers(1, n + 1))
            exclude = ids[int(rng.integers(0, n))] if trial % 5 < 2 else None
            got = [r.id for r in neighbors(index, q, k, exclude_id=exclude)]
            if metric == "euclidean":
                scores = np.linalg.norm(M - q, axis=1)
                sign = 1.0
            else:
                scores = (M @ q) / (np.linalg.norm(M, axis=1) * np.linalg.norm(q))
                sign = -1.0
            kept = [i for i in range(n) if ids[i] != exclude]
            oracle = [ids[i] for i in sorted(kept, key=lambda i: (sign * scores[i], ids[i]))[:k]]
            assert got == oracle

    def test_positive_scaling_preserves_order(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(20, 3))
        q = rng.normal(size=3)
        base = [r.id for r in neighbors(VectorIndex(M, [f"v{i}" for i in range(20)]), q, 20)]
        for s in (0.001, 7.0, 4096.0):
            scaled = [
                r.id
                for r in neighbors(VectorIndex(s * M, [f"v{i}" for i in range(20)]), s * q, 20)
            ]
            assert scaled == base

    def test_rotation_preserves_distances(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(15, 4))
        q = rng.normal(size=4)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        ids = [f"v{i}" for i in range(15)]
        base = neighbors(VectorIndex(M, ids), q, 15)
        rotated = neighbors(VectorIndex(M @ Q, ids), q @ Q, 15)
        for u, v in zip(base, rotated):
            assert u.id == v.id
            assert abs(u.score - v.score) < 1e-9

    def test_empty_index_rejected(self):
        index = VectorIndex(np.zeros((0, 2)), ids=[])
        with pytest.raises(DataError, match="empty"):
            neighbors(index, np.zeros(2), k=1)


def _nr(i, score, rank):
    return NeighborResult(i, score, rank)


class TestMajorityVote:
    def test_strict_majority(self):
        votes = [_nr("a", 0.1, 1), _nr("b", 0.2, 2), _nr("c", 0.3, 3)]
        labels = {"a": "F1", "b": "F1", "c": "F2"}
        assert majority_vote(votes, labels) == "F1"

    def test_tie_broken_by_smaller_distance_sum(self):
        votes = [_nr("a", 0.5, 1), _nr("b", 0.2, 2)]
        labels = {"a": "F1", "b": "F2"}
        assert majority_vote(votes, labels) == "F2"

    def test_tie_broken_by_larger_similarity_sum(self):
        votes = [_nr("a", 50.0, 1), _nr("b", 80.0, 2)]
        labels = {"a": "F1", "b": "F2"}
        assert majority_vote(votes, labels, similarity=True) == "F2"

    def test_full_tie_takes_smaller_label(self):
        votes = [_nr("a", 1.0, 1), _nr("b", 1.0, 2)]
        labels = {"a": "F2", "b": "F1"}
        assert majority_vote(votes, labels) == "F1"

    def test_empty_list_is_an_error(self):
        with pytest.raises(DataError):
            majority_vote([], {})

    def test_missing_label_is_an_error(self):
        with pytest.raises(DataError, match="no family label"):
            majority_vote([_nr("a", 1.0, 1)], {})

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(3)
        votes = [
            _nr(f"n{i}", float(rng.random()), i + 1) for i in range(9)
        ]
        labels = {f"n{i}": f"F{i % 3}" for i in range(9)}
        expected = majority_vote(votes, labels)
        for _ in range(10):
            perm = [votes[i] for i in rng.permutation(9)]
            assert majority_vote(perm, labels) == expected


def fold_loop_cv(index, folds, k_values, seed=0):
    """The brute-force fold loop knn_cross_validate once inlined, kept as
    an oracle: every test row scored against a fresh copy of its training
    rows and ranked by one lexsort over (id, signed score)."""
    from seqvec.classify import stratified_folds
    from seqvec.knn import _scores

    labels = np.asarray(index.labels)
    fam_names, fam_counts = np.unique(labels, return_counts=True)
    usable = np.isin(labels, [f for f, c in zip(fam_names, fam_counts) if c >= folds])
    rows = np.flatnonzero(usable)
    labels = labels[rows]
    matrix = index.matrix[rows]
    ids = np.asarray(index.ids, dtype=object)[rows]
    fold_of = stratified_folds(labels, folds, np.random.default_rng([seed]))
    sign = 1.0 if index.metric == "euclidean" else -1.0
    correct = {k: np.zeros(folds) for k in k_values}
    for f in range(folds):
        test, train = fold_of == f, fold_of != f
        label_map = dict(zip(ids[train].tolist(), labels[train].tolist()))
        for row in np.flatnonzero(test):
            scores = _scores(matrix[train], matrix[row], index.metric)
            order = np.lexsort((ids[train], sign * scores))[:max(k_values)]
            ranked = [NeighborResult(ids[train][i], float(scores[i]), r)
                      for r, i in enumerate(order, start=1)]
            for k in k_values:
                pred = majority_vote(ranked[:k], label_map,
                                     similarity=index.metric == "cosine")
                correct[k][f] += pred == labels[row]
        for k in k_values:
            correct[k][f] /= test.sum()
    return {k: MetricSummary(float(c.mean()), float(c.std(ddof=1)))
            for k, c in correct.items()}


def _two_cluster_index(per_class=20, spread=0.05, gap=100.0, seed=0):
    rng = np.random.default_rng(seed)
    a = spread * rng.normal(size=(per_class, 2))
    b = np.array([gap, 0.0]) + spread * rng.normal(size=(per_class, 2))
    M = np.vstack([a, b])
    ids = [f"s{i:03d}" for i in range(2 * per_class)]
    labels = ["A"] * per_class + ["B"] * per_class
    return VectorIndex(M, ids, labels)


class TestKnnCrossValidate:
    def test_separated_clusters_are_perfect(self):
        report = knn_cross_validate(_two_cluster_index(), folds=10, k_values=[3], seed=0)
        assert report[3] == MetricSummary(1.0, 0.0)

    def test_shuffled_labels_score_near_chance(self):
        index = _two_cluster_index()
        accs = []
        for trial in range(20):
            rng = np.random.default_rng(trial)
            shuffled = list(rng.permutation(index.labels))
            shuffled_index = VectorIndex(index.matrix, index.ids, shuffled)
            accs.append(
                knn_cross_validate(shuffled_index, folds=5, k_values=[3], seed=1)[3].mean
            )
        assert abs(float(np.mean(accs)) - 0.5) < 0.15

    def test_small_family_dropped_with_warning(self):
        index = _two_cluster_index(per_class=6)
        matrix = np.vstack([index.matrix, [[50.0, 50.0]]])
        ids = index.ids + ["lonely"]
        labels = index.labels + ["C"]
        with pytest.warns(UserWarning, match="dropped 1 families"):
            report = knn_cross_validate(
                VectorIndex(matrix, ids, labels), folds=2, k_values=[1], seed=0
            )
        assert report[1].mean == 1.0

    def test_drops_the_same_families_as_multiclass_protocol(self):
        index = _two_cluster_index(per_class=6)
        matrix = np.vstack([index.matrix, [[50.0, 50.0], [60.0, 60.0]]])
        ids = index.ids + ["lonely", "alone"]
        labels = index.labels + ["D", "C"]
        with pytest.warns(UserWarning) as knn_warned:
            knn_cross_validate(VectorIndex(matrix, ids, labels), folds=2,
                               k_values=[1], seed=0)
        with pytest.warns(UserWarning) as svm_warned:
            multiclass_protocol(dict(zip(ids, matrix)), dict(zip(ids, labels)),
                                top_n_families=4, folds=2, seed=0)
        dropped = [[str(w.message) for w in warned if "dropped" in str(w.message)]
                   for warned in (knn_warned, svm_warned)]
        assert dropped[0] == dropped[1] == [
            "dropped 2 families with fewer than 2 members: C, D"
        ]

    def test_k_above_a_training_fold_warns_once(self):
        index = _two_cluster_index(per_class=6)  # 3 folds of 4: training folds of 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitting = knn_cross_validate(index, folds=3, k_values=[1, 8], seed=0)
        with pytest.warns(UserWarning) as warned:
            report = knn_cross_validate(index, folds=3, k_values=[1, 8, 9, 20], seed=0)
        assert [str(w.message) for w in warned] == [
            "k=9,20 exceeds the smallest training fold (8 vectors); "
            "there the vote is over the whole fold"
        ]
        assert report[1] == fitting[1] and report[8] == fitting[8]
        assert report[9] == report[20] == fitting[8]

    def test_repeated_k_rejected(self):
        # a repeated k was once scored once per copy, its accuracy summed
        with pytest.raises(ConfigError, match="distinct, got 1,1,3"):
            knn_cross_validate(_two_cluster_index(), folds=5, k_values=[1, 1, 3])

    def test_folds_partition_the_data(self):
        # every usable vector lands in exactly one test fold
        from seqvec.classify import stratified_folds

        labels = ["A"] * 13 + ["B"] * 17
        fold_of = stratified_folds(labels, 5, np.random.default_rng(0))
        assert sorted(np.concatenate([np.flatnonzero(fold_of == f) for f in range(5)]).tolist()) == list(range(30))

    def test_needs_two_usable_families(self):
        index = VectorIndex(np.zeros((4, 2)), [f"v{i}" for i in range(4)], ["A"] * 4)
        with pytest.raises(DataError):
            knn_cross_validate(index, folds=2, k_values=[1])

    def test_unlabeled_index_rejected(self):
        with pytest.raises(ConfigError):
            knn_cross_validate(_triangle_index(), folds=2, k_values=[1])

    def test_cosine_metric_works(self):
        report = knn_cross_validate(
            _two_cluster_index(gap=5.0), folds=5, k_values=[1, 3], seed=0
        )
        cos_index = _two_cluster_index(gap=5.0)
        cos_index = VectorIndex(
            cos_index.matrix + np.array([1.0, 1.0]), cos_index.ids,
            cos_index.labels, metric="cosine",
        )
        cos_report = knn_cross_validate(cos_index, folds=5, k_values=[1, 3], seed=0)
        assert report[1].mean == 1.0
        assert cos_report[1].mean > 0.9

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_matches_fold_loop_oracle_with_ties(self, metric):
        rng = np.random.default_rng(3)
        warned = 0
        for trial in range(12):
            n_fam, per, d = int(rng.integers(2, 5)), int(rng.integers(4, 12)), 3
            centers = 2.0 * rng.normal(size=(n_fam, d))
            # rounding to integers makes equal rows and equal scores common
            M = np.round(np.repeat(centers, per, axis=0) + rng.normal(size=(n_fam * per, d)))
            labels = [f"F{i // per}" for i in range(n_fam * per)]
            ids = ["a" * (i + 1) if trial % 2 else f"é{i}" for i in range(n_fam * per)]
            index = VectorIndex(M, ids, labels, metric=metric)
            folds = int(rng.integers(2, min(per, 5) + 1))
            k_values = [1, 2, 5, 9]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = knn_cross_validate(index, k_values, folds, seed=trial)
            assert report == fold_loop_cv(index, folds, k_values, seed=trial)
            # every family has at least ``folds`` members, so none is dropped
            fold_of = stratified_folds(labels, folds, np.random.default_rng([trial]))
            smallest = len(labels) - int(np.bincount(fold_of).max())
            over = ",".join(str(k) for k in k_values if k > smallest)
            assert [(w.category, str(w.message)) for w in caught] == (
                [(UserWarning, f"k={over} exceeds the smallest training fold "
                               f"({smallest} vectors); there the vote is over the whole fold")]
                if 9 > smallest else [])
            warned += 9 > smallest
        assert 0 < warned < 12  # trials with and without the warning
