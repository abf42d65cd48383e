import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viralearly import models
from viralearly.errors import DegenerateDistributionError, FitError, SchemaError
from viralearly.labeling import (
    LABELING_FEATURES,
    HybridWeights,
    LabelingArtifacts,
    NormalizationCaps,
    ViralityThreshold,
    assign_label,
    fit_p99_caps,
    fit_threshold,
    hybrid_score,
    learn_hybrid_weights,
    make_preliminary_target,
    normalize_metric,
)

from conftest import make_record
from oracles import interpolated_percentile

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
        assert normalize_metric(0, 5_000_000, 100.0) == 0.0

    def test_direct_evaluation(self):
        assert normalize_metric(500, 1_000_000, 1000.0) == pytest.approx(50.0)

    def test_clamped_at_cap(self):
        assert normalize_metric(10_000, 10_000, 75.0) == 75.0

    def test_subscribers_below_one_rejected(self):
        with pytest.raises(ValueError):
            normalize_metric(1, 0, 10.0)


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


class TestPreliminaryTarget:
    def test_distinct_sums_exact_top(self):
        records = [flat_record(f"p{i:03d}", i + 1) for i in range(100)]
        caps = NormalizationCaps({"score": 1e9, "comments": 1e9, "crossposts": 1e9})
        labels = make_preliminary_target(records, caps)
        assert labels.sum() == 5
        assert all(labels[i] == 1 for i in range(95, 100))

    def test_all_equal_breaks_ties_by_post_id(self):
        records = [flat_record(f"p{i:03d}", 10) for i in range(100)]
        caps = fit_p99_caps(records)
        labels = make_preliminary_target(records, caps)
        assert labels.sum() == 5
        assert all(labels[i] == 1 for i in range(5))  # lowest ids win

    def test_half_of_two(self):
        records = [flat_record("a", 5), flat_record("b", 1)]
        caps = fit_p99_caps(records)
        labels = make_preliminary_target(records, caps, top_frac=0.5)
        assert labels.tolist() == [1, 0]

    def test_bad_fraction_rejected(self):
        with pytest.raises(FitError):
            make_preliminary_target([flat_record("a", 1)], WIDE_CAPS, top_frac=1.0)


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
        caps = fit_p99_caps(records)
        weights = learn_hybrid_weights(records, np.array(prelim), caps)
        assert weights.weights["norm_score"] == 1.0
        for name, value in weights.weights.items():
            if name != "norm_score":
                assert value < 0.2

    def test_constant_prelim_rejected(self):
        records = [flat_record(f"p{i}", i + 1) for i in range(30)]
        with pytest.raises(FitError):
            learn_hybrid_weights(records, np.zeros(30), fit_p99_caps(records))

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


class TestHybridScore:
    def test_all_zero_features(self):
        w = HybridWeights({"a": 1.0, "b": 0.5}, (30.0,))
        assert hybrid_score({"a": 0.0, "b": 0.0}, w) == 0.0

    def test_reference_weights_example(self):
        w = HybridWeights({"norm_score": 1.0, "norm_comments": 0.44, "peak_velocity": 0.14}, (30.0,))
        value = hybrid_score({"norm_score": 100.0, "norm_comments": 50.0, "peak_velocity": 10.0}, w)
        assert value == pytest.approx(123.4)

    def test_linearity(self):
        w = HybridWeights({"a": 0.7, "b": 0.2}, (30.0,))
        f = {"a": 3.0, "b": 11.0}
        doubled = {k: 2 * v for k, v in f.items()}
        assert hybrid_score(doubled, w) == pytest.approx(2 * hybrid_score(f, w))

    def test_key_order_irrelevant(self):
        w = HybridWeights({"a": 0.7, "b": 0.2}, (30.0,))
        assert hybrid_score({"a": 1.0, "b": 2.0}, w) == hybrid_score({"b": 2.0, "a": 1.0}, w)

    def test_key_mismatch_rejected(self):
        w = HybridWeights({"a": 1.0}, (30.0,))
        with pytest.raises(SchemaError):
            hybrid_score({"a": 1.0, "b": 2.0}, w)


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
        assert assign_label(300.27, 300.27) is True

    def test_below_boundary(self):
        assert assign_label(300.27 - 1e-9, 300.27) is False

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_score(self, tau, s1, s2):
        lo, hi = sorted((s1, s2))
        assert assign_label(lo, tau) <= assign_label(hi, tau)


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
        s0 = hybrid_score(base, arts.weights)
        for k in keys:
            if arts.weights.weights[k] > 0:
                bumped = dict(base)
                bumped[k] += 5.0
                assert hybrid_score(bumped, arts.weights) >= s0
                assert assign_label(hybrid_score(bumped, arts.weights), tau) >= assign_label(s0, tau)


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
