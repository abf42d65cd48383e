"""The tree learners grow, predict and serialize exactly as their references.

Both learners build the shared flat-array tree; ``oracles`` keeps the random
forest on linked nodes and the GBT on five parallel lists. Every comparison
is bit for bit.
"""

import json

import numpy as np
import pytest

from viralearly import experiments, ingest, models, preprocess, synth
from viralearly.models import fit_gbt, fit_random_forest
from viralearly.models._common import _Tree

from oracles import (
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


@pytest.mark.parametrize("params,seed", FOREST_CASES)
def test_forest_matches_linked_node_reference(params, seed):
    X, y = tricky_data(seed)
    model = fit_random_forest(X, y, seed=seed + 11, **params)
    ref_trees, ref_importance = reference_fit_random_forest(X, y, seed=seed + 11, **params)

    assert len(model.trees) == len(ref_trees)
    for tree, root in zip(model.trees, ref_trees):
        walked = flat_preorder(tree)
        assert walked == reference_preorder(root)
        # nodes are stored in preorder, so the links only ever point forward
        assert [(int(f), float(v), float(p)) for f, v, p in zip(tree.feature, tree.value, tree.leaf_value)] == walked
    assert model.importances.tobytes() == ref_importance.tobytes()

    probe = np.vstack([X, tricky_data(seed + 100, n=60)[0]])
    assert model.predict_proba(probe).tobytes() == reference_forest_predict_proba(ref_trees, probe).tobytes()


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
        "importance": {k: model.importance(k).tolist() for k in ("gain", "cover", "frequency")},
    }


@pytest.mark.parametrize("name,X,y,params", list(gbt_cases()), ids=[c[0] for c in gbt_cases()])
def test_gbt_matches_parallel_list_reference(name, X, y, params):
    model = fit_gbt(X, y, **params)
    ref = reference_fit_gbt(X, y, **params)
    assert model.to_payload() == parent_gbt_payload(ref)
    for tree, ref_tree in zip(model.trees, ref.trees):
        for field in _Tree.__slots__:
            assert getattr(tree, field).tobytes() == getattr(ref_tree, field).tobytes()
    assert model.predict_proba(X).tobytes() == ref.predict_proba(X).tobytes()


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
