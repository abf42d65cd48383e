"""The batched trajectory kernel and the once-per-split static columns against
the per-record derivations they replaced (``oracles``): exact equality,
missing-value pattern and column order included. The ragged corpus gives the
posts different snapshot times and counts, so every window groups its rows by
several observed lengths."""

import math
from dataclasses import replace

import numpy as np

import pytest

from viralearly import synth
from viralearly.experiments import build_window_matrices, prepare
from viralearly.features import DEFAULT_WINDOW_SWEEP, MODALITIES, WindowSpec, extract_network, extract_temporal
from viralearly.labeling import HybridWeights, fit_p99_caps, labeling_feature_matrix, score_records

from conftest import make_record
from oracles import (
    reference_build_window_matrices,
    reference_extract_network,
    reference_extract_temporal,
    reference_labeling_feature_matrix,
    reference_score_records,
    snapshot_rows,
    snapshots_from_rows,
)


def full_horizon(records):
    return max(r.snapshots.t_minutes[-1] for r in records)


def hand_made_records():
    return [
        # empty window: the first snapshot comes after every window up to 30
        make_record(post_id="empty", times=[45, 50, 60], scores=[3, 9, 40]),
        make_record(post_id="one", times=[0], scores=[7], categories=["rising"]),
        make_record(post_id="two", times=[0, 5], scores=[0, 12], comments=[0, 2], categories=["new", "hot"]),
        # never takes off: flat, then shrinking
        make_record(post_id="flat", times=[0, 5, 10, 20], scores=[4, 4, 4, 4]),
        make_record(post_id="shrinking", times=[0, 5, 10, 20], scores=[9, 6, 3, 1], categories=["new", "hot", "new", "top"]),
        make_record(
            post_id="path",
            times=[0, 5, 10, 15, 20, 30],
            scores=[0, 2, 30, 90, 200, 500],
            comments=[0, 0, 1, 3, 8, 9],
            crossposts=[0, 0, 0, 0, 1, 1],
            categories=["new", "rising", "hot", "rising", "top", "unknown"],
            subscribers=5_000,
        ),
    ]


def ragged(records, seed=11):
    """The records with a seeded share of each post's snapshots dropped, the
    first one included, so no two posts need share a poll grid."""
    rng = np.random.default_rng(seed)
    out = []
    for r in records:
        keep = rng.random(len(r.snapshots)) < rng.uniform(0.2, 1.0)
        keep[-1] = True
        out.append(replace(r, snapshots=snapshots_from_rows(s for s, k in zip(snapshot_rows(r.snapshots), keep) if k)))
    return out


@pytest.fixture(scope="module", params=["temporal", "mixed", "ragged"])
def corpus(request):
    signal = "temporal" if request.param == "ragged" else request.param
    records, _ = synth.generate(synth.SynthConfig(n_posts=300, viral_frac=0.06, signal=signal, seed=3))
    return ragged(records) if request.param == "ragged" else records


@pytest.fixture(scope="module")
def data(corpus):
    return prepare(corpus)


def assert_same_values(ref, new):
    """Same keys in the same order; each value equal in type and bits, None and NaN alike."""
    assert list(ref) == list(new)
    for key in ref:
        a, b = ref[key], new[key]
        assert type(a) is type(b), key
        if isinstance(a, float) and math.isnan(a):
            assert math.isnan(b), key
        else:
            assert a == b, key


def assert_same_matrix(ref, new):
    assert new.row_ids == ref.row_ids
    assert new.columns == ref.columns
    for column in ref.columns:
        a, b = ref.column(column.name), new.column(column.name)
        assert a.dtype == b.dtype, column.name
        if column.kind == "numeric":
            assert a.tobytes() == b.tobytes(), column.name
        else:
            assert list(a) == list(b), column.name


@pytest.mark.parametrize("source", ["corpus", "hand_made"])
def test_extractors_match_reference(source, corpus):
    records = corpus if source == "corpus" else hand_made_records()
    caps = fit_p99_caps(records)
    for minutes in DEFAULT_WINDOW_SWEEP + (full_horizon(records),):
        w = WindowSpec(minutes)
        for record in records:
            assert_same_values(
                reference_extract_temporal(record, w, caps).as_mapping(), extract_temporal(record, w, caps).as_mapping()
            )
            assert_same_values(reference_extract_network(record, w).as_mapping(), extract_network(record, w).as_mapping())


@pytest.mark.parametrize("source", ["corpus", "hand_made"])
def test_labeling_matrix_matches_reference(source, corpus):
    records = corpus if source == "corpus" else hand_made_records()
    caps = fit_p99_caps(records)
    for minutes in DEFAULT_WINDOW_SWEEP + (None,):
        ref = reference_labeling_feature_matrix(records, caps, window_minutes=minutes)
        new = labeling_feature_matrix(records, caps, window_minutes=minutes)
        assert new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()


def test_scores_match_reference_in_either_key_order(data, corpus):
    # fitted weights keep LABELING_FEATURES order, loaded ones are sorted;
    # each order sums the products differently, and both must be reproduced
    fitted = data.artifacts.weights
    loaded = HybridWeights(dict(sorted(fitted.weights.items())), fitted.source_windows)
    subset = HybridWeights({"time_to_takeoff": 0.5, "norm_score": 1.0}, fitted.source_windows)
    for weights in (fitted, loaded, subset):
        for records in (corpus, hand_made_records()):
            ref = reference_score_records(records, data.artifacts.caps, weights)
            assert score_records(records, data.artifacts.caps, weights).tobytes() == ref.tobytes()


def test_window_matrices_match_reference(data, corpus):
    windows = DEFAULT_WINDOW_SWEEP + (full_horizon(corpus),)
    for ref, new in zip(reference_build_window_matrices(data, windows), build_window_matrices(data, windows), strict=True):
        assert new.window == ref.window
        assert_same_matrix(ref.train, new.train)
        assert_same_matrix(ref.test, new.test)


def test_ablation_matrices_match_reference(data):
    full = build_window_matrices(data, [120.0])[0]
    for excluded in MODALITIES:
        include = [m for m in MODALITIES if m != excluded]
        ref = reference_build_window_matrices(data, [120.0], include_modalities=include)[0]
        assert_same_matrix(ref.train, full.train.without_modality(excluded))
        assert_same_matrix(ref.test, full.test.without_modality(excluded))


def test_no_windows_no_matrices(data):
    assert build_window_matrices(data, []) == []
