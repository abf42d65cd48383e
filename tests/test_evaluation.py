import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viralearly import models
from viralearly.errors import MetricError, SplitError
from viralearly.evaluation import (
    chronological_split,
    cross_validate,
    f1_at_threshold,
    pr_auc,
    preprocessed_folds,
    roc_auc,
    stratified_kfold,
)
from viralearly.features import ColumnSpec, FeatureMatrix

from conftest import make_record
from oracles import brute_force_average_precision, pairwise_roc_auc, reference_roc_auc


def random_case(rng, n):
    y = np.zeros(n, dtype=int)
    n_pos = int(rng.integers(1, n))
    y[rng.permutation(n)[:n_pos]] = 1
    # mix of continuous scores and deliberate ties
    scores = rng.normal(size=n)
    if rng.random() < 0.5:
        scores = np.round(scores, 1)
    return y, scores


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_reversed_single_positive(self):
        n = 10
        y = np.zeros(n, dtype=int)
        y[0] = 1
        scores = -np.arange(n, dtype=float)  # the positive scored lowest? no: index 0 highest
        # positive must rank LAST for the reversed case
        assert pr_auc(y, scores) == pytest.approx(1.0)
        assert pr_auc(y, -scores) == pytest.approx(1.0 / n)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            y, s = random_case(rng, int(rng.integers(5, 200)))
            assert pr_auc(y, s) == pytest.approx(brute_force_average_precision(y, s), abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            pr_auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_tied_scores_processed_as_block(self):
        y = [1, 0, 1, 0]
        s = [0.5, 0.5, 0.5, 0.5]
        assert pr_auc(y, s) == pytest.approx(0.5)  # one block: precision = base rate


class TestRocAuc:
    def test_perfect(self):
        assert roc_auc([0, 1], [0.1, 0.9]) == 1.0

    def test_all_ties_half(self):
        assert roc_auc([0, 1, 0, 1], [3.0, 3.0, 3.0, 3.0]) == pytest.approx(0.5)

    def test_matches_pairwise(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            y, s = random_case(rng, int(rng.integers(5, 120)))
            assert roc_auc(y, s) == pytest.approx(pairwise_roc_auc(y, s), abs=1e-9)

    def test_bitwise_equal_to_midrank_loop_on_ties(self):
        rng = np.random.default_rng(11)
        for case in range(40):
            n = int(rng.integers(2, 300))
            y = rng.integers(0, 2, n)
            y[0], y[-1] = 0, 1
            s = rng.integers(0, int(rng.integers(1, 6)), n).astype(float)  # few distinct values
            if case % 4 == 1:
                s = np.round(rng.normal(size=n), 1)
            elif case % 4 == 2:
                s[rng.random(n) < 0.3] = np.inf
                s[rng.random(n) < 0.3] = -np.inf
            elif case % 4 == 3:
                s[rng.random(n) < 0.5] = 0.0
                s[rng.random(n) < 0.3] = -0.0
            assert np.float64(roc_auc(y, s)).tobytes() == np.float64(reference_roc_auc(y, s)).tobytes()

    def test_infinite_ties_are_one_block(self):
        y = np.array([1, 0, 1, 0, 0, 1])
        s = np.array([np.inf, np.inf, 0.2, -np.inf, -np.inf, 0.1])
        assert roc_auc(y, s) == pytest.approx(pairwise_roc_auc(y, s), abs=1e-12)
        assert pr_auc(y, s) == pytest.approx(brute_force_average_precision(y, s), abs=1e-12)

    def test_negation_symmetry_tie_free(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 50)
        y[0], y[1] = 0, 1
        s = rng.permutation(50).astype(float)  # distinct scores
        assert roc_auc(y, s) + roc_auc(y, -s) == pytest.approx(1.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        y, s = random_case(rng, 40)
        transformed = np.exp(0.3 * s) + 5.0
        assert roc_auc(y, s) == pytest.approx(roc_auc(y, transformed), abs=1e-12)
        assert pr_auc(y, s) == pytest.approx(pr_auc(y, transformed), abs=1e-12)


class TestF1:
    def test_perfect(self):
        assert f1_at_threshold([0, 1], [0.1, 0.9]) == 1.0

    def test_all_negative_predictions(self):
        assert f1_at_threshold([0, 1, 1], [0.1, 0.2, 0.3]) == 0.0

    def test_hand_computed(self):
        # TP=2 FP=1 FN=1 -> F1 = 2/3
        y = [1, 1, 0, 1, 0]
        p = [0.9, 0.8, 0.7, 0.2, 0.1]
        assert f1_at_threshold(y, p) == pytest.approx(2.0 / 3.0)


class TestChronologicalSplit:
    def test_eight_two(self):
        records = [make_record(post_id=f"p{i}", created_minutes=i * 10.0) for i in range(10)]
        split = chronological_split(records, train_frac=0.8)
        assert len(split.train_ids) == 8
        assert len(split.test_ids) == 2

    def test_strict_boundary(self):
        records = [make_record(post_id=f"p{i}", created_minutes=float(i)) for i in range(20)]
        split = chronological_split(records)
        by_id = {r.post_id: r for r in records}
        max_train = max(by_id[i].created_utc for i in split.train_ids)
        min_test = min(by_id[i].created_utc for i in split.test_ids)
        assert max_train < min_test
        assert split.boundary == min_test

    def test_boundary_ties_go_to_train(self):
        minutes = [0, 1, 2, 3, 4, 5, 6, 7, 7, 8]  # tie straddles the 8/2 cut
        records = [make_record(post_id=f"p{i}", created_minutes=float(m)) for i, m in enumerate(minutes)]
        split = chronological_split(records, train_frac=0.8)
        assert len(split.train_ids) == 9
        assert split.test_ids == ["p9"]

    def test_all_identical_timestamps_rejected(self):
        records = [make_record(post_id=f"p{i}", created_minutes=5.0) for i in range(10)]
        with pytest.raises(SplitError, match="boundary"):
            chronological_split(records)

    def test_too_few_records(self):
        with pytest.raises(SplitError):
            chronological_split([make_record()])


class TestStratifiedKfold:
    def test_exact_positive_allocation(self):
        y = np.zeros(100, dtype=int)
        y[:10] = 1
        folds = stratified_kfold(y, k=5, seed=0)
        for fold in folds:
            assert y[fold].sum() == 2
            assert len(fold) == 20

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 53)
        y[:6] = 1
        y[6:12] = 0
        folds = stratified_kfold(y, k=5, seed=1)
        joined = np.concatenate(folds)
        assert len(joined) == 53
        assert len(np.unique(joined)) == 53

    def test_k_one_rejected(self):
        with pytest.raises(SplitError):
            stratified_kfold(np.array([0, 1, 0, 1]), k=1)

    def test_class_smaller_than_k_rejected(self):
        y = np.zeros(50, dtype=int)
        y[:3] = 1
        with pytest.raises(SplitError):
            stratified_kfold(y, k=5)

    def test_seeded_determinism(self):
        y = np.arange(40) % 2
        a = stratified_kfold(y, k=4, seed=9)
        b = stratified_kfold(y, k=4, seed=9)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))


def simple_matrix(X, ids=None):
    cols = [ColumnSpec(f"temporal__x{i}", "temporal", "numeric") for i in range(X.shape[1])]
    ids = ids or [f"r{i}" for i in range(len(X))]
    return FeatureMatrix(ids, cols, {c.name: X[:, i].astype(float) for i, c in enumerate(cols)})


class TestCrossValidate:
    def test_separable_gives_perfect_pr_auc(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.uniform(-3, -1, 60), rng.uniform(1, 3, 60)])[:, None]
        y = np.concatenate([np.zeros(60), np.ones(60)]).astype(int)
        folds = preprocessed_folds(simple_matrix(X), y, k=5, seed=0)
        report = cross_validate(models.default_config("logreg"), folds, y)
        assert report.pr_auc == pytest.approx(1.0)
        assert report.std["pr_auc"] == pytest.approx(0.0)

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 4))
        y = np.zeros(300, dtype=int)
        y[rng.permutation(300)[:90]] = 1  # labels independent of X
        folds = preprocessed_folds(simple_matrix(X), y, k=5, seed=0)
        report = cross_validate(models.default_config("logreg"), folds, y)
        assert 0.4 <= report.roc_auc <= 0.6

    def test_per_fold_values_recorded(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(int)
        folds = preprocessed_folds(simple_matrix(X), y, k=4, seed=2)
        report = cross_validate(models.default_config("logreg"), folds, y)
        assert len(report.per_fold["pr_auc"]) == 4

    def test_fold_preprocessing_blind_to_held_rows(self):
        # corrupting fold j's held-out rows must leave that fold's
        # preprocessed training matrix byte-identical
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(int)
        folds = preprocessed_folds(simple_matrix(X), y, k=3, seed=0)
        for j, fold in enumerate(folds):
            X_bad = X.copy()
            X_bad[fold.held_idx] = 1e9
            corrupted = preprocessed_folds(simple_matrix(X_bad), y, k=3, seed=0)[j]
            assert np.array_equal(corrupted.train_idx, fold.train_idx)
            assert corrupted.X_train.tobytes() == fold.X_train.tobytes()
            assert not np.array_equal(corrupted.X_held, fold.X_held)
