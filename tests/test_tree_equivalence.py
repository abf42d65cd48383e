"""The tree learners grow, predict and serialize exactly as their references.

Both learners build the shared flat-array tree; ``oracles`` keeps the random
forest on linked nodes and the GBT on five parallel lists. Every comparison
is bit for bit.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viralearly import evaluation, experiments, ingest, labeling, models, preprocess, synth
from viralearly.models import fit_gbt, fit_random_forest, forest, gbt
from viralearly.models._common import _Tree

from conftest import TOP_FRAC, WEIGHT_WINDOWS
from oracles import (
    reference_bin_columns,
    reference_fit_gbt,
    reference_fit_random_forest,
    reference_forest_predict_proba,
    reference_preorder,
)


def tricky_data(seed, n=240, d=7):
    """Ties, a few-valued column, a constant column and duplicated rows
    (some with the opposite label)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 1] = np.round(X[:, 1], 1)
    X[:, 2] = rng.integers(0, 3, size=n)
    X[:, 4] = 1.5
    y = ((X[:, 0] + X[:, 1] > 0.2) ^ (rng.random(n) < 0.15)).astype(int)
    half, dup = n // 2, n // 6
    X[half : half + dup] = X[:dup]
    y[half : half + dup] = y[:dup]
    y[half : half + 5] ^= 1
    return X, y


def flat_preorder(tree: _Tree):
    """(feature, threshold, prob) in preorder, following the child links."""
    out, stack = [], [0]
    while stack:
        i = stack.pop()
        feature = int(tree.feature[i])
        out.append((feature, float(tree.value[i]), float(tree.leaf_value[i])))
        if feature >= 0:
            stack += [int(tree.right[i]), int(tree.left[i])]
    return out


FOREST_CASES = [
    ({}, 0),
    ({"max_depth": 3}, 1),
    ({"max_features": 3, "min_samples_split": 6}, 2),
    ({"n_trees": 30, "max_depth": 1}, 3),
]


def assert_forest_matches_reference(X, y, **params):
    """Fit both forests; every tree and the importances must agree bit for bit."""
    model = fit_random_forest(X, y, **params)
    ref_trees, ref_importance = reference_fit_random_forest(X, y, **params)

    assert len(model.trees) == len(ref_trees)
    for tree, root in zip(model.trees, ref_trees):
        walked = flat_preorder(tree)
        expected = reference_preorder(root)
        assert walked == expected
        # nodes are stored in preorder, so the links only ever point forward
        feature, value, prob = (np.array(column) for column in zip(*expected))
        assert tree.feature.tobytes() == feature.astype(np.int32).tobytes()
        assert tree.value.tobytes() == value.tobytes()
        assert tree.leaf_value.tobytes() == prob.tobytes()
    assert model.importances.tobytes() == ref_importance.tobytes()
    return model, ref_trees


@pytest.mark.parametrize("params,seed", FOREST_CASES)
def test_forest_matches_linked_node_reference(params, seed):
    X, y = tricky_data(seed)
    model, ref_trees = assert_forest_matches_reference(X, y, seed=seed + 11, **params)

    probe = np.vstack([X, tricky_data(seed + 100, n=60)[0]])
    assert model.predict_proba(probe).tobytes() == reference_forest_predict_proba(ref_trees, probe).tobytes()


@pytest.fixture(scope="module")
def labeling_matrices():
    """The labeling forests' inputs on the benchmark's corpus: the training
    split's matrices at 30, 60 and 120 min and the preliminary target (5%
    positives, so bootstraps draw many duplicate rows)."""
    records, _ = synth.generate(synth.SynthConfig(n_posts=2000, signal="temporal", seed=7))
    by_id = {r.post_id: r for r in records}
    train = [by_id[i] for i in evaluation.chronological_split(records, train_frac=0.8).train_ids]
    caps = labeling.fit_p99_caps(train)
    *matrices, full = labeling.labeling_feature_matrices(train, caps, [*WEIGHT_WINDOWS, None])
    prelim = labeling.make_preliminary_target(full[:, : len(labeling.METRICS)], [r.post_id for r in train], TOP_FRAC)
    return matrices, prelim


@pytest.mark.parametrize("index", range(3), ids=[f"{w:g}min" for w in WEIGHT_WINDOWS])
def test_forest_matches_reference_on_the_labeling_matrices(labeling_matrices, index):
    matrices, prelim = labeling_matrices
    assert_forest_matches_reference(matrices[index], prelim, seed=42)


def signed_zero_data(seed, n=200):
    """Columns mixing -0.0, 0.0 and subnormals (equal under < or far apart
    only in their last bits), and adjacent floats whose midpoint rounds."""
    rng = np.random.default_rng(seed)
    tiny = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1.0])
    one_up = np.nextafter(1.0, 2.0)
    X = np.hstack([rng.choice(tiny, size=(n, 3)), rng.choice([1.0, one_up, np.nextafter(one_up, 2.0)], size=(n, 1))])
    return X, (rng.random(n) < 0.4).astype(int)


def forest_edge_cases():
    X, y = tricky_data(4)
    yield "max_features_at_least_d", X, y, {"max_features": 50, "n_trees": 10}
    yield "min_samples_split_above_n", X, y, {"min_samples_split": len(X) + 1, "n_trees": 5}
    yield "max_depth_0", X, y, {"max_depth": 0, "n_trees": 5}
    yield "one_tree", X, y, {"n_trees": 1}
    yield "one_column", X[:, :1], y, {"n_trees": 10}
    yield "signed_zeros_and_subnormals", *signed_zero_data(5), {"n_trees": 30}
    yield "zero_columns", np.zeros((30, 0)), np.arange(30) % 2, {"n_trees": 3}


@pytest.mark.parametrize("name,X,y,params", list(forest_edge_cases()), ids=[c[0] for c in forest_edge_cases()])
def test_forest_matches_reference_on_edge_cases(name, X, y, params):
    assert_forest_matches_reference(X, y, seed=13, **params)


def test_forest_matches_reference_on_a_wide_window_matrix():
    """A sweep window matrix as preprocessing leaves it: 218 columns, one-hot
    groups and constant columns, so each node draws 14 candidates."""
    records, _ = synth.generate(synth.SynthConfig(n_posts=1000, seed=7))
    data = experiments.prepare(records)
    (matrices,) = experiments.build_window_matrices(data, [120.0])
    X = preprocess.transform(preprocess.fit(matrices.train), matrices.train).X
    assert X.shape[1] >= 218
    assert_forest_matches_reference(X, data.y_train, n_trees=20, seed=5)


def test_forest_is_the_same_in_search_batches_and_tree_groups(monkeypatch):
    """Nodes searched in batches of a few rows and trees grown a few at a
    time give the same forest as the reference."""
    X, y = tricky_data(6)
    monkeypatch.setattr(forest, "_SEARCH_ROWS", 64)
    monkeypatch.setattr(forest, "_GROUP_ROWS", 3 * len(X))
    assert_forest_matches_reference(X, y, n_trees=10, seed=2)


def test_forest_splits_where_the_midpoint_overflows():
    X = np.array([[1e308], [1.5e308]] * 4)
    y = np.array([0, 1] * 4)
    model = fit_random_forest(X, y, n_trees=5, seed=0)
    for tree in model.trees:
        assert np.all(np.isfinite(tree.value))
    assert np.all(model.predict_proba(X)[y == 1] > model.predict_proba(X)[y == 0])


def test_forest_fit_memory(labeling_matrices):
    """A labeling forest (1600 x 6, 100 trees) allocates at most this much at
    once; every step's arrays are freed before the next, and the split search
    runs in batches of ``forest._SEARCH_ROWS`` rows."""
    matrices, prelim = labeling_matrices
    fit_random_forest(*tricky_data(0, n=40), n_trees=2)  # the first fit's one-time imports are not the fit's
    tracemalloc.start()
    try:
        fit_random_forest(matrices[0], prelim, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def saved(payload: dict) -> ingest._Document:
    """``payload`` as a model file's object reads it back: through JSON text."""
    return ingest._Document(ingest.decode_json(json.dumps(payload)), "payload")


def test_forest_payload_round_trip_is_exact():
    X, y = tricky_data(5)
    model = fit_random_forest(X, y, n_trees=20, seed=3)
    for tree in model.trees:
        back = _Tree.from_payload(saved(tree.to_payload()), model.n_features)
        for name in _Tree.__slots__:
            assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()
    probe = tricky_data(6)[0]
    restored = type(model).from_payload(saved(model.to_payload()))
    assert restored.predict_proba(probe).tobytes() == model.predict_proba(probe).tobytes()


def xor_data():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 25)
    y = (X[:, 0] != X[:, 1]).astype(int)
    return X, y


def sweep_shaped_data(seed, n=300):
    """Columns as a sweep window has them: wide numeric ones (one of them
    few-valued), one-hot groups, constant columns and duplicated columns."""
    rng = np.random.default_rng(seed)
    wide = rng.normal(size=(n, 5))
    wide[:, 1] = np.round(wide[:, 1], 1)
    wide[:, 2] = rng.integers(0, 4, size=n)
    groups = [np.eye(k)[rng.integers(0, k, size=n)] for k in (2, 5, 9)]
    onehot = np.hstack(groups)
    X = np.hstack([wide, onehot, np.full((n, 3), 2.5), wide[:, [0, 3]], onehot[:, [3, 8]]])
    y = ((wide[:, 0] + 1.5 * onehot[:, 3] - onehot[:, 9] > 0.4) ^ (rng.random(n) < 0.1)).astype(int)
    return X, y


def exactly_twice_mcw_data():
    """16 balanced rows: with scale_pos_weight 1 the first round has p = 0.5
    and h = 0.25 everywhere, so the root's H is 4.0 and only an 8/8 split
    leaves H = 2.0 on each side; column 0's has the larger gain."""
    x0 = np.repeat([0.0, 1.0], 8)
    x1 = np.tile([0.0, 1.0, 2.0, 3.0], 4)
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0])
    return np.column_stack([x0, x1]), y


def separable_data(n=200):
    """One column separates the classes by a wide margin, so the hessians
    collapse after a few rounds and most levels cannot split."""
    rng = np.random.default_rng(12)
    y = (rng.random(n) < 0.3).astype(int)
    X = np.column_stack([np.where(y == 1, 5.0, -5.0) + rng.normal(size=n), rng.normal(size=(n, 2))])
    return X, y


def tied_counts_data(n=64):
    """A column that halves the rows and one that alternates, so many splits
    leave two children with the same row count."""
    rng = np.random.default_rng(0)
    half = np.repeat([0.0, 1.0], n // 2)
    rng.shuffle(half)
    X = np.column_stack([half, np.tile([0.0, 1.0], n // 2), rng.normal(size=n)])
    y = ((half + rng.normal(size=n) * 0.8) > 0.5).astype(int)
    return X, y


def many_counts_data(n=400):
    """Columns with 2 to 40 distinct values each (1 to 39 thresholds, so
    many threshold counts), a few continuous ones and a one-hot pair."""
    rng = np.random.default_rng(14)
    levels = [2, 3, 4, 5, 7, 9, 12, 16, 21, 27, 33, 40]
    counted = np.column_stack([rng.integers(0, k, size=n) for k in levels]).astype(float)
    onehot = np.eye(2)[rng.integers(0, 2, size=n)]
    X = np.hstack([rng.normal(size=(n, 3)), counted, onehot])
    y = ((X[:, 0] + X[:, 5] / 4 - onehot[:, 0] > 0.5) ^ (rng.random(n) < 0.1)).astype(int)
    return X, y


def gbt_cases():
    X, y = tricky_data(7)
    yield "tricky", X, y, {"n_rounds": 25}
    yield "tricky_capped_coarse", X, y, {"n_rounds": 15, "max_depth": 2, "max_bins": 8}
    Xb, yb = tricky_data(8, n=300, d=5)
    yield "tricky_unweighted", Xb, yb, {"n_rounds": 10, "scale_pos_weight": 1.0, "min_child_weight": 3.0}
    yield "xor", *xor_data(), {"n_rounds": 20}
    yield "zero_columns", np.zeros((40, 0)), np.arange(40) % 2, {"n_rounds": 5}
    # The histogram layout: column 0 owns the node totals, wide and narrow
    # (one-threshold) columns sit in separate blocks, constant ones in none.
    Xs, ys = sweep_shaped_data(9)
    binary = Xs[:, 5:7]
    yield "sweep_shaped", Xs, ys, {"n_rounds": 30}
    yield "col0_constant", np.hstack([np.full((len(Xs), 1), -1.0), Xs]), ys, {"n_rounds": 15}
    yield "col0_binary", np.hstack([binary[:, 1:], Xs]), ys, {"n_rounds": 15}
    yield "col0_wide", Xs[:, 1:], ys, {"n_rounds": 15}
    yield "narrow_only", Xs[:, 5:21], ys, {"n_rounds": 15}
    one_varies = np.hstack([np.full((len(Xs), 2), 4.0), Xs[:, :1], np.zeros((len(Xs), 3))])
    yield "one_column_varies", one_varies, ys, {"n_rounds": 10}
    yield "all_constant", np.full((len(Xs), 3), 1.0), ys, {"n_rounds": 5}
    # depth 3 is reached with several leaves on the last level
    yield "full_depth", Xs, ys, {"n_rounds": 10, "max_depth": 3, "min_child_weight": 0.5}
    yield "min_child_weight_0", Xs, ys, {"n_rounds": 15, "min_child_weight": 0.0}
    yield "max_bins_2", Xs, ys, {"n_rounds": 15, "max_bins": 2}
    # Live and dead nodes, and the count plane only where mcw needs it.
    yield "hessian_exactly_2mcw", *exactly_twice_mcw_data(), {"n_rounds": 1, "scale_pos_weight": 1.0, "min_child_weight": 2.0}
    yield "root_never_splits", X, y, {"n_rounds": 5, "min_child_weight": 1e6}
    yield "tiny_min_child_weight", Xs, ys, {"n_rounds": 15, "min_child_weight": 1e-12}
    # On XOR a split that leaves one side empty can pass HL >= 1e-15 on a
    # rounding residual: only the row counts rule it out.
    yield "xor_min_child_weight_below_residual", *xor_data(), {"n_rounds": 20, "min_child_weight": 1e-15}
    yield "hessians_collapse", *separable_data(), {"n_rounds": 100}
    # Children with equal row counts: the left one is summed, the right derived.
    yield "tied_children", *tied_counts_data(), {"n_rounds": 10, "max_depth": 3}
    # Wide-block layout: many threshold counts, and one shared count.
    Xm, ym = many_counts_data()
    yield "many_threshold_counts", Xm, ym, {"n_rounds": 15}
    yield "max_bins_3", Xm, ym, {"n_rounds": 15, "max_bins": 3}


def parent_gbt_payload(model):
    """The GBT payload written out field by field, as the format has it."""
    return {
        "base_logit": model.base_logit,
        "n_features": model.n_features,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "value": t.value.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "leaf_value": t.leaf_value.tolist(),
            }
            for t in model.trees
        ],
        "importance": model.importances.tolist(),
    }


def assert_gbt_matches_reference(X, y, **params):
    """Fit both GBTs; every tree, the gains and the probabilities must agree bit for bit."""
    model = fit_gbt(X, y, **params)
    ref = reference_fit_gbt(X, y, **params)
    assert model.to_payload() == parent_gbt_payload(ref)
    for tree, ref_tree in zip(model.trees, ref.trees):
        for field in _Tree.__slots__:
            assert getattr(tree, field).tobytes() == getattr(ref_tree, field).tobytes()
    assert model.importances.tobytes() == ref.importances.tobytes()
    assert model.predict_proba(X).tobytes() == ref.predict_proba(X).tobytes()
    return model


@pytest.mark.parametrize("name,X,y,params", list(gbt_cases()), ids=[c[0] for c in gbt_cases()])
def test_gbt_matches_parallel_list_reference(name, X, y, params):
    assert_gbt_matches_reference(X, y, **params)


def test_gbt_splits_a_node_whose_hessian_is_exactly_twice_min_child_weight():
    """H = 2 * min_child_weight can still split, into two sides of exactly
    min_child_weight; those children cannot split again. The gbt_cases
    entry ``hessian_exactly_2mcw`` compares the fit with the reference."""
    (tree,) = fit_gbt(*exactly_twice_mcw_data(), n_rounds=1, scale_pos_weight=1.0, min_child_weight=2.0).trees
    assert tree.feature.tolist() == [0, -1, -1]


def test_gbt_root_too_light_to_split_is_one_leaf():
    """As the gbt_cases entry ``root_never_splits``."""
    model = fit_gbt(*tricky_data(7), n_rounds=5, min_child_weight=1e6)
    assert all(tree.feature.tolist() == [-1] for tree in model.trees)


def test_gbt_wide_columns_span_several_blocks_and_match_the_reference():
    """Wide columns are grouped by the power of two at or above their
    threshold count; the candidates keep their feature-major order, so the
    trees are the same whatever the blocks."""
    X, y = many_counts_data()
    sizes = np.array([len(t) for t in gbt._bin_columns(X, 64)[1]])
    blocks = gbt._wide_blocks(sizes)
    assert len(blocks) >= 3
    assert sorted(np.concatenate(blocks).tolist()) == np.nonzero(sizes >= 2)[0].tolist()
    assert_gbt_matches_reference(X, y, n_rounds=10)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    min_child_weight=st.sampled_from([0.0, 1e-12, 0.5, 1.0, 3.0]),
    max_bins=st.sampled_from([2, 3, 8, 64]),
    max_depth=st.integers(1, 4),
    scale_pos_weight=st.sampled_from(["auto", 1.0]),
)
def test_gbt_matches_reference_on_small_random_matrices(data, min_child_weight, max_bins, max_depth, scale_pos_weight):
    """Columns of 1 to 80 distinct values (constant, binary, few-valued,
    nearly continuous) with ties, on 4 to 60 rows of both classes."""
    n = data.draw(st.integers(4, 60), label="rows")
    levels = data.draw(st.lists(st.integers(1, 80), min_size=1, max_size=5), label="distinct values per column")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = np.column_stack([rng.choice(rng.normal(size=k), size=n) for k in levels])
    y = (rng.random(n) < data.draw(st.sampled_from([0.2, 0.5]), label="positive rate")).astype(int)
    y[:2] = [0, 1]
    assert_gbt_matches_reference(
        X, y, n_rounds=4, min_child_weight=min_child_weight, max_bins=max_bins, max_depth=max_depth,
        scale_pos_weight=scale_pos_weight,
    )


@pytest.mark.parametrize("max_bins", [2, 3, 8, 64])
def test_gbt_bins_as_the_column_by_column_reference(max_bins):
    """Codes and thresholds, to the bit, on columns with signed zeros,
    subnormals, few values, many values and constants."""
    rng = np.random.default_rng(3)
    mixed = rng.choice([-0.0, 0.0, -1.0, 2.5], size=(300, 2))
    zeros_in_many = rng.normal(size=300)
    zeros_in_many[rng.random(300) < 0.3] = -0.0
    zeros_in_many[rng.random(300) < 0.3] = 0.0
    matrices = [tricky_data(1)[0], signed_zero_data(2)[0], many_counts_data()[0], np.column_stack([mixed, zeros_in_many])]
    for X in matrices:
        codes, thresholds = gbt._bin_columns(X, max_bins)
        ref_codes, ref_thresholds = reference_bin_columns(X, max_bins)
        assert codes.dtype == ref_codes.dtype and codes.tobytes() == ref_codes.tobytes()
        assert [t.tobytes() for t in thresholds] == [t.tobytes() for t in ref_thresholds]


def test_gbt_matches_reference_on_a_window_matrix():
    """A real sweep input: a synthetic corpus prepared, windowed and
    preprocessed as the sweep does it, fitted with the default GBT config."""
    records, _ = synth.generate(synth.SynthConfig(n_posts=300, seed=7))
    data = experiments.prepare(records)
    (matrices,) = experiments.build_window_matrices(data, [120.0])
    X = preprocess.transform(preprocess.fit(matrices.train), matrices.train).X
    params = models.default_config("gbt").resolved_params()
    model = fit_gbt(X, data.y_train, **params)
    ref = reference_fit_gbt(X, data.y_train, **params)
    assert model.to_payload() == parent_gbt_payload(ref)
    assert model.predict_proba(X).tobytes() == ref.predict_proba(X).tobytes()
