import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viralearly import models, trajectory
from viralearly.errors import DatasetError, DegenerateDistributionError, FitError, SchemaError
from viralearly.labeling import (
    LABELING_FEATURES,
    METRICS,
    HybridWeights,
    LabelingArtifacts,
    NormalizationCaps,
    ViralityThreshold,
    assign_labels,
    fit_p99_caps,
    fit_threshold,
    labeling_feature_matrices,
    learn_hybrid_weights,
    make_preliminary_target,
    score_records,
)
from viralearly.trajectory import pad_snapshots

from conftest import TOP_FRAC, WEIGHT_WINDOWS, make_record
from oracles import interpolated_percentile, normalize_metric, reference_hybrid_score, reference_preliminary_target

WIDE_CAPS = NormalizationCaps({"score": 1e12, "comments": 1e12, "crossposts": 1e12})


def flat_record(post_id, level, subscribers=100_000, comments=0, crossposts=0, created_minutes=0.0):
    """Constant-score record: all dynamic labeling features are zero."""
    times = list(range(0, 1501, 60))
    return make_record(
        post_id=post_id,
        times=times,
        scores=[level] * len(times),
        comments=[comments] * len(times),
        crossposts=[crossposts] * len(times),
        created_minutes=created_minutes,
    )


class TestNormalizeMetric:
    def test_zero_raw(self):
        assert trajectory.per_subscriber(np.array([0]), [5_000_000]).tolist() == [0.0]

    def test_direct_evaluation(self):
        assert trajectory.per_subscriber(np.array([500]), [1_000_000]).tolist() == [pytest.approx(50.0)]

    def test_clamped_at_cap(self):
        record = make_record(times=[0, 10], scores=[0, 10_000], subscribers=10_000)
        caps = NormalizationCaps({"score": 75.0, "comments": 75.0, "crossposts": 75.0})
        assert pad_snapshots([record], caps).norm["score"][0, 1] == 75.0

    def test_subscribers_below_one_rejected(self):
        with pytest.raises(ValueError):
            trajectory.per_subscriber(np.array([1]), [0])

    _EDGES = [0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(_EDGES), st.integers(-(2**63), 2**63 - 1), st.integers(-1000, 1000)),
                st.one_of(st.sampled_from([1, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**64 + 7, 10**300]), st.integers(1, 2**70)),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_equals_the_scalar_reference(self, pairs):
        # zero and negative counts, and counts and subscribers at and past 2**53
        counts, subscribers = zip(*pairs)
        got = trajectory.per_subscriber(np.array(counts, dtype=np.int64), list(subscribers))
        want = np.array([normalize_metric(c, s, math.inf) for c, s in pairs])
        assert got.tobytes() == want.tobytes()

    def test_past_two_to_the_53_rounds_as_python(self):
        count, subscribers = 2**53 + 1, 3
        assert float(count) / subscribers != count / subscribers  # the float path would differ
        got = trajectory.per_subscriber(np.array([count, 7]), [subscribers, 2**53 + 1])
        assert got.tolist() == [count / subscribers * trajectory.PER_SUBSCRIBER_SCALE, 7 / (2**53 + 1) * trajectory.PER_SUBSCRIBER_SCALE]


class TestFitCaps:
    def test_linear_interpolation_on_1_to_100(self):
        records = [flat_record(f"p{i:03d}", i) for i in range(1, 101)]
        caps = fit_p99_caps(records)
        assert caps.cap_for("score") == pytest.approx(99.01)
        assert caps.cap_for("score") == pytest.approx(
            interpolated_percentile([float(i) for i in range(1, 101)], 99.0)
        )

    def test_identical_values(self):
        records = [flat_record(f"p{i}", 7, comments=3, crossposts=1) for i in range(10)]
        caps = fit_p99_caps(records)
        assert caps.cap_for("score") == pytest.approx(7.0)
        assert caps.cap_for("comments") == pytest.approx(3.0)

    def test_single_record(self):
        caps = fit_p99_caps([flat_record("p0", 42, comments=5, crossposts=2)])
        assert caps.cap_for("score") == pytest.approx(42.0)

    def test_empty_train_rejected(self):
        with pytest.raises(FitError):
            fit_p99_caps([])

    def test_order_independent(self):
        records = [flat_record(f"p{i:03d}", i + 1) for i in range(50)]
        a = fit_p99_caps(records)
        b = fit_p99_caps(list(reversed(records)))
        assert a == b

    def test_caps_are_the_percentile_of_the_scalar_reference(self):
        records = [
            make_record(post_id=f"p{i}", times=[0, 10], scores=[0, 3 * i - 20], comments=[0, i], crossposts=[0, i % 3], subscribers=1 + 977 * i)
            for i in range(60)
        ]
        caps = fit_p99_caps(records)
        for m in METRICS:
            reference = [normalize_metric(getattr(r.snapshots, m)[-1], r.subreddit.subscribers, math.inf) for r in records]
            assert caps.cap_for(m) == max(float(np.percentile(reference, 99.0)), 1e-9)

    @pytest.mark.parametrize(
        "bad, message",
        [(make_record(post_id="p000005", subscribers=0), "post p000005: subscribers must be >= 1"),
         (make_record(post_id="p000005", times=[], scores=[]), "post p000005 has no snapshots")],
    )
    def test_unreadable_post_is_named(self, bad, message):
        with pytest.raises(DatasetError, match=f"^{message}$"):
            fit_p99_caps([make_record(), bad, make_record(post_id="p2", subscribers=0)])


def preliminary_target(records, caps, top_frac=TOP_FRAC):
    """The target a fit derives: from the full-horizon matrix's volume columns."""
    (full,) = labeling_feature_matrices(records, caps, [None])
    return make_preliminary_target(full[:, : len(METRICS)], [r.post_id for r in records], top_frac)


class TestPreliminaryTarget:
    def test_distinct_sums_exact_top(self):
        records = [flat_record(f"p{i:03d}", i + 1) for i in range(100)]
        caps = NormalizationCaps({"score": 1e9, "comments": 1e9, "crossposts": 1e9})
        labels = preliminary_target(records, caps)
        assert labels.sum() == 5
        assert all(labels[i] == 1 for i in range(95, 100))

    def test_all_equal_breaks_ties_by_post_id(self):
        records = [flat_record(f"p{i:03d}", 10) for i in range(100)]
        caps = fit_p99_caps(records)
        labels = preliminary_target(records, caps)
        assert labels.sum() == 5
        assert all(labels[i] == 1 for i in range(5))  # lowest ids win

    def test_half_of_two(self):
        records = [flat_record("a", 5), flat_record("b", 1)]
        caps = fit_p99_caps(records)
        labels = preliminary_target(records, caps, top_frac=0.5)
        assert labels.tolist() == [1, 0]

    def test_bad_fraction_rejected(self):
        with pytest.raises(FitError):
            make_preliminary_target(np.zeros((1, len(METRICS))), ["a"], top_frac=1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        finals=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 1), st.sampled_from([1, 3, 100_000])),
            min_size=1,
            max_size=40,
        ),
        top_frac=st.sampled_from([0.05, 0.3, 0.5, 0.9]),
        capped=st.booleans(),
    )
    def test_matrix_target_is_the_per_record_reference(self, finals, top_frac, capped):
        # few distinct final counts: tied sums, negative scores, unequal subscribers
        records = [
            make_record(post_id=f"p{(7 * i) % 41:02d}-{i}", times=[0, 10], scores=[0, s], comments=[0, c], crossposts=[0, x], subscribers=subs)
            for i, (s, c, x, subs) in enumerate(finals)
        ]
        caps = fit_p99_caps(records) if capped else WIDE_CAPS
        expected = reference_preliminary_target(records, caps, top_frac)
        assert preliminary_target(records, caps, top_frac).tobytes() == expected.tobytes()

    def test_matrix_target_is_the_per_record_reference_on_a_split(self, prepared):
        train, caps = prepared.train_records, prepared.artifacts.caps
        expected = reference_preliminary_target(train, caps, TOP_FRAC)
        assert preliminary_target(train, caps).tobytes() == expected.tobytes()


class TestLearnWeights:
    def test_planted_score_signal(self):
        rng = np.random.default_rng(5)
        records, prelim = [], []
        for i in range(300):
            hot = i < 15
            level = 600 if hot else int(rng.integers(1, 40))
            records.append(
                flat_record(
                    f"p{i:03d}",
                    level,
                    comments=int(rng.integers(0, 30)),
                    crossposts=int(rng.integers(0, 5)),
                )
            )
            prelim.append(1 if hot else 0)
        matrices = labeling_feature_matrices(records, fit_p99_caps(records), WEIGHT_WINDOWS)
        weights = learn_hybrid_weights(matrices, np.array(prelim), WEIGHT_WINDOWS, 42)
        assert weights.weights["norm_score"] == 1.0
        for name, value in weights.weights.items():
            if name != "norm_score":
                assert value < 0.2

    def test_constant_prelim_rejected(self):
        records = [flat_record(f"p{i}", i + 1) for i in range(30)]
        matrices = labeling_feature_matrices(records, fit_p99_caps(records), WEIGHT_WINDOWS)
        with pytest.raises(FitError):
            learn_hybrid_weights(matrices, np.zeros(30), WEIGHT_WINDOWS, 42)

    def test_matrices_not_one_per_window_rejected(self):
        records = [flat_record(f"p{i}", i + 1) for i in range(30)]
        matrices = labeling_feature_matrices(records, fit_p99_caps(records), WEIGHT_WINDOWS)
        prelim = np.arange(30) < 3
        with pytest.raises(FitError, match="one labeling matrix per window"):
            learn_hybrid_weights(matrices[:2], prelim, WEIGHT_WINDOWS, 42)
        with pytest.raises(FitError, match="aligned"):
            learn_hybrid_weights([X[:20] for X in matrices], prelim, WEIGHT_WINDOWS, 42)

    def test_duplicated_feature_splits_importance(self):
        # the documented mechanism behind averaging: importance mass of a
        # perfectly duplicated column splits but is conserved (sum-normalized)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(400, 4))
        y = (X[:, 1] > 0.3).astype(int)
        single = models.train(models.default_config("random_forest", seed=3), X, y).importances
        X_dup = np.hstack([X, X[:, [1]]])
        dup = models.train(models.default_config("random_forest", seed=3), X_dup, y).importances
        assert abs((dup[1] + dup[4]) - single[1]) < 0.1


VOLUME_AND_VELOCITY = HybridWeights({"norm_score": 1.0, "norm_comments": 0.44, "peak_velocity": 0.14}, (30.0,))


class TestHybridScore:
    def test_all_zero_features(self):
        assert score_records([flat_record("p0", 0)], WIDE_CAPS, VOLUME_AND_VELOCITY).tolist() == [0.0]

    def test_reference_weights_example(self):
        # norm_score 100, norm_comments 50 and peak_velocity 10 per minute
        record = make_record(times=[0, 10], scores=[0, 100], comments=[0, 50], subscribers=100_000)
        assert score_records([record], WIDE_CAPS, VOLUME_AND_VELOCITY)[0] == pytest.approx(123.4)
        features = {"norm_score": 100.0, "norm_comments": 50.0, "peak_velocity": 10.0}
        assert reference_hybrid_score(features, VOLUME_AND_VELOCITY) == pytest.approx(123.4)

    def test_linearity(self):
        # doubling every count doubles the volumes and velocities these weights read
        times, scores, comments = [0, 5, 15, 40], [0, 30, 70, 90], [0, 3, 9, 12]
        records = [
            make_record(post_id=f"p{k}", times=times, scores=[k * v for v in scores], comments=[k * v for v in comments])
            for k in (1, 2)
        ]
        single, doubled = score_records(records, WIDE_CAPS, VOLUME_AND_VELOCITY)
        assert doubled == pytest.approx(2 * single)

    def test_key_order_irrelevant(self, temporal_corpus, prepared):
        # each score row is the scalar sum over that post's features, whatever
        # the order of the weights' or the features' keys
        records = temporal_corpus[0][:60]
        caps, fitted = prepared.artifacts.caps, prepared.artifacts.weights
        reordered = HybridWeights(dict(reversed(fitted.weights.items())), fitted.source_windows)
        (X,) = labeling_feature_matrices(records, caps, [None])
        expected = [reference_hybrid_score(dict(reversed(list(zip(LABELING_FEATURES, row)))), fitted) for row in X]
        for weights in (fitted, reordered):
            assert score_records(records, caps, weights).tolist() == pytest.approx(expected, rel=1e-12)

    def test_key_mismatch_rejected(self):
        w = HybridWeights({"norm_score": 1.0, "norm_upvotes": 2.0}, (30.0,))
        with pytest.raises(SchemaError, match="norm_upvotes"):
            score_records([flat_record("p0", 1)], WIDE_CAPS, w)


class TestFitThreshold:
    def test_hand_computable_case(self):
        th = fit_threshold([0.0, 0.0, 0.0, 1000.0, 1000.0])
        assert th.centroids == (0.0, 1000.0)
        assert th.tau == 500.0

    def test_two_gaussians(self):
        rng = np.random.default_rng(123)
        scores = np.concatenate([rng.normal(0, 1, 1000), rng.normal(100, 1, 1000)])
        th = fit_threshold(scores)
        assert 45.0 <= th.tau <= 55.0
        assert th.centroids[0] < th.tau < th.centroids[1]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            fit_threshold([3.0] * 50)

    def test_two_values(self):
        th = fit_threshold([0.0, 10.0])
        assert th.tau == 5.0


class TestAssignLabel:
    def test_boundary_inclusive(self):
        assert assign_labels(np.array([300.27]), 300.27).tolist() == [1]

    def test_below_boundary(self):
        assert assign_labels(np.array([300.27 - 1e-9]), 300.27).tolist() == [0]

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_score(self, tau, s1, s2):
        lo, hi = assign_labels(np.array(sorted((s1, s2))), tau)
        assert lo <= hi


class TestArtifacts:
    def test_fit_and_roundtrip(self, tmp_path, temporal_corpus, prepared):
        arts = prepared.artifacts
        path = tmp_path / "labeling.json"
        arts.save(path)
        loaded = LabelingArtifacts.load(path)
        assert loaded == arts
        assert loaded.to_json() == arts.to_json()

    def test_load_keeps_feature_order_and_rejects_unknown_keys(self, tmp_path, prepared):
        path = tmp_path / "labeling.json"
        prepared.artifacts.save(path)
        loaded = LabelingArtifacts.load(path)
        assert list(loaded.weights.weights) == list(prepared.artifacts.weights.weights) == list(LABELING_FEATURES)

        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["hybrid_weights"]["weights"]["norm_upvotes"] = 0.5
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match="norm_upvotes"):
            LabelingArtifacts.load(path)

    # a cap of -5 made features exit 0 with every normalized score -5.0
    @pytest.mark.parametrize("cap", [0.0, -5.0, None], ids=["zero", "negative", "missing"])
    def test_cap_that_is_not_positive_or_missing_rejected(self, tmp_path, prepared, cap):
        path = tmp_path / "labeling.json"
        doc = json.loads(prepared.artifacts.to_json())
        if cap is None:
            del doc["caps"]["score"]
        else:
            doc["caps"]["score"] = cap
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = "lacks the key 'score'" if cap is None else f"the cap of 'score' is not positive \\({cap}\\)"
        with pytest.raises(SchemaError, match=f"{re.escape(str(path))}.*{message}"):
            LabelingArtifacts.load(path)

    def test_one_pass_fit_equals_the_separate_steps(self, prepared):
        # the steps as separate passes: a per-record target, the forests' own
        # padding, then the training split scored from its records
        train, fitted = prepared.train_records, prepared.artifacts
        caps = fit_p99_caps(train)
        prelim = reference_preliminary_target(train, caps, TOP_FRAC)
        weights = learn_hybrid_weights(labeling_feature_matrices(train, caps, WEIGHT_WINDOWS), prelim, WEIGHT_WINDOWS, 42)
        assert (fitted.caps, fitted.weights) == (caps, weights)
        assert fitted.train_scores.tobytes() == score_records(train, caps, weights).tobytes()

    def test_fit_pads_each_training_post_once(self, monkeypatch, prepared):
        padded = []

        def counting(records, caps):
            padded.append(len(records))
            return pad_snapshots(records, caps)

        monkeypatch.setattr(trajectory, "pad_snapshots", counting)
        train = prepared.train_records
        LabelingArtifacts.fit(train, WEIGHT_WINDOWS, TOP_FRAC, 42)
        assert sum(padded) == len(train)

    def test_weights_normalized_to_max_one(self, prepared):
        weights = prepared.artifacts.weights.weights
        assert max(weights.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in weights.values())

    def test_threshold_between_centroids(self, prepared):
        th = prepared.artifacts.threshold
        assert th.centroids[0] < th.tau < th.centroids[1]

    def test_positive_rate_in_band(self, temporal_corpus, prepared):
        records, _ = temporal_corpus
        _, labels = prepared.artifacts.label_records(records)
        assert 0.02 <= labels.mean() <= 0.10

    def test_monotone_in_weighted_features(self, prepared):
        # raising any positively-weighted feature cannot clear a label
        arts = prepared.artifacts
        keys = list(arts.weights.weights)
        base = {k: 10.0 for k in keys}
        tau = arts.threshold.tau
        s0 = reference_hybrid_score(base, arts.weights)
        for k in keys:
            if arts.weights.weights[k] > 0:
                bumped = dict(base)
                bumped[k] += 5.0
                s1 = reference_hybrid_score(bumped, arts.weights)
                assert s1 >= s0
                before, after = assign_labels(np.array([s0, s1]), tau)
                assert after >= before


class TestLeakageGuard:
    def test_artifacts_depend_only_on_train(self, temporal_corpus):
        from viralearly import experiments

        records, _ = temporal_corpus
        base = experiments.prepare(records)
        baseline_json = base.artifacts.to_json()

        rng = np.random.default_rng(0)
        mutated = list(records)
        test_ids = {r.post_id for r in base.test_records}
        for i, r in enumerate(mutated):
            if r.post_id in test_ids and rng.random() < 0.5:
                boosted = [s * 100 + 5 for s in r.snapshots.score]
                mutated[i] = make_record(
                    post_id=r.post_id,
                    times=r.snapshots.t_minutes,
                    scores=boosted,
                    created_minutes=(r.created_utc - base.train_records[0].created_utc).total_seconds() / 60
                    + 200000,
                )
        # keep original created times so the split boundary is unchanged
        from dataclasses import replace

        mutated = [
            replace(m, created_utc=orig.created_utc) for m, orig in zip(mutated, records)
        ]
        again = experiments.prepare(mutated)
        assert again.artifacts.to_json() == baseline_json


# A saved labeling file; each example below breaks one of its numeric leaves.
SAVED_ARTIFACTS = LabelingArtifacts(
    NormalizationCaps({"score": 120.0, "comments": 8.5, "crossposts": 1.25}),
    HybridWeights(dict(zip(LABELING_FEATURES, (1.0, 0.5, 0.25, 0.75, 0.125, 0.0625))), (30.0, 60.0, 120.0)),
    ViralityThreshold(2.5, (1.0, 4.0), "800:0123456789ab"),
).to_json()


def numeric_leaves(value, path=()):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from numeric_leaves(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from numeric_leaves(v, path + (i,))
    elif type(value) in (int, float):
        yield path


@settings(max_examples=200, deadline=None)
@given(
    leaf=st.sampled_from(list(numeric_leaves(json.loads(SAVED_ARTIFACTS)))),
    text=st.sampled_from(("NaN", "Infinity", "-Infinity", '"0.5"', '"nan"', "true", "false", "null", "[]", "[1.0]", "{}")),
)
def test_a_bad_numeric_leaf_of_a_saved_labeling_file_is_schema_error(leaf, text):
    doc = json.loads(SAVED_ARTIFACTS)
    parent = doc
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = "<leaf>"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labeling.json"
        path.write_text(SAVED_ARTIFACTS, encoding="utf-8")
        assert LabelingArtifacts.load(path).to_json() == SAVED_ARTIFACTS
        path.write_text(json.dumps(doc).replace('"<leaf>"', text), encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            LabelingArtifacts.load(path)
