import json

import numpy as np
import pytest

from viralearly import experiments, models
from viralearly.errors import ConfigError, FitError, SchemaError
from viralearly.models import (
    LogisticModel,
    ModelConfig,
    default_config,
    init_params,
    load_model,
    loss_and_gradients,
    save_model,
    train,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def separable_1d(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x_neg = rng.uniform(-3.0, -0.5, n // 2)
    x_pos = rng.uniform(0.5, 3.0, n - n // 2)
    X = np.concatenate([x_neg, x_pos])[:, None]
    y = np.concatenate([np.zeros(n // 2), np.ones(n - n // 2)]).astype(int)
    return X, y


class TestCommon:
    def test_single_class_rejected_everywhere(self):
        X = np.zeros((10, 2))
        y = np.ones(10, dtype=int)
        for kind in models.MODEL_KINDS:
            with pytest.raises(FitError):
                train(default_config(kind), X, y)

    def test_non_finite_features_rejected_everywhere(self):
        X, y = separable_1d()
        X[3, 0] = np.inf
        for kind in models.MODEL_KINDS:
            with pytest.raises(FitError, match="non-finite"):
                train(default_config(kind), X, y)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            default_config("svm")
        with pytest.raises(ConfigError):
            ModelConfig("gbt", {"bogus_param": 1}).resolved_params()
        with pytest.raises(ConfigError):
            ModelConfig("svm").resolved_params()
        with pytest.raises(ConfigError):
            train(ModelConfig("svm"), *separable_1d())

    # a fit signature's defaults are every study manifest's model_configs
    # hash, so a changed default must show here
    @pytest.mark.parametrize(
        "kind, params, digest",
        [
            ("logreg", {"C": 1.0, "class_weight": "balanced", "tol": 1e-06, "max_iter": 10000}, "e87a45cee04c936c"),
            (
                "gbt",
                {"n_rounds": 100, "learning_rate": 0.3, "max_depth": 6, "min_child_weight": 1.0, "reg_lambda": 1.0,
                 "max_bins": 64, "scale_pos_weight": "auto"},
                "e9d1b4316cc3d601",
            ),
            (
                "mlp",
                {"hidden": (100, 50), "learning_rate": 0.001, "batch_size": 256, "max_epochs": 500,
                 "early_stopping": True, "validation_fraction": 0.1, "tol": 0.0001, "patience": 10,
                 "class_weight": "balanced"},
                "2ec85a0373fbd984",
            ),
            ("random_forest", {"n_trees": 100, "max_features": "sqrt", "min_samples_split": 2, "max_depth": None},
             "184121552c9208a1"),
        ],
    )
    def test_default_settings_are_pinned(self, kind, params, digest):
        assert default_config(kind).resolved_params() == params
        assert experiments._config_hash(default_config(kind, seed=7)) == digest

    def test_predict_column_mismatch(self):
        X, y = separable_1d()
        model = train(default_config("logreg"), X, y)
        with pytest.raises(SchemaError):
            model.predict_proba(np.zeros((3, 5)))


class TestLogreg:
    def test_separable_perfect_accuracy(self):
        X, y = separable_1d()
        model = train(default_config("logreg"), X, y)
        assert (((model.predict_proba(X) >= 0.5).astype(int)) == y).all()
        assert model.inner.grad_norm < 1e-6

    def test_balanced_beats_unweighted_on_minority_recall(self):
        rng = np.random.default_rng(3)
        n_neg, n_pos = 475, 25
        X = np.concatenate([rng.normal(-1.0, 1.0, n_neg), rng.normal(1.2, 1.0, n_pos)])[:, None]
        y = np.concatenate([np.zeros(n_neg), np.ones(n_pos)]).astype(int)
        balanced = train(ModelConfig("logreg", {"class_weight": "balanced"}), X, y)
        unweighted = train(ModelConfig("logreg", {"class_weight": None}), X, y)

        def recall(m):
            pred = (m.predict_proba(X) >= 0.5).astype(int)
            return (pred[y == 1] == 1).mean()

        assert recall(balanced) >= recall(unweighted)

    def test_duplication_invariance(self):
        X, y = separable_1d()
        base = train(default_config("logreg"), X, y)
        doubled = train(default_config("logreg"), np.vstack([X, X]), np.concatenate([y, y]))
        assert np.allclose(base.inner.coef, doubled.inner.coef, atol=1e-6)
        assert base.inner.intercept == pytest.approx(doubled.inner.intercept, abs=1e-6)

    def test_zero_weights_predict_half(self):
        model = LogisticModel(coef=np.zeros(3), intercept=0.0, n_iter=0, grad_norm=0.0)
        assert np.allclose(model.predict_proba(np.random.default_rng(0).normal(size=(5, 3))), 0.5)

    def test_importances_are_absolute_coefficients(self):
        X, y = separable_1d()
        model = train(default_config("logreg"), X, y)
        assert np.array_equal(model.importances, np.abs(model.inner.coef))


class TestGbt:
    def test_xor_solved_exactly(self):
        # 4-point hessians are 0.25 each, so the hessian floor must be lifted
        config = ModelConfig("gbt", {"min_child_weight": 0.0, "max_depth": 2, "n_rounds": 50})
        model = train(config, XOR_X, XOR_Y)
        assert (((model.predict_proba(XOR_X) >= 0.5).astype(int)) == XOR_Y).all()

    def test_planted_signal_has_max_gain(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 6))
        y = (X[:, 2] > 0.2).astype(int)
        model = train(default_config("gbt"), X, y)
        assert int(np.argmax(model.importances)) == 2

    def test_zero_rounds_is_weighted_base_rate(self):
        X = np.arange(16.0).reshape(8, 2)
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        auto = train(ModelConfig("gbt", {"n_rounds": 0}), X, y)
        # scale_pos_weight = neg/pos balances the classes: weighted rate 0.5
        assert np.allclose(auto.predict_proba(X), 0.5)
        plain = train(ModelConfig("gbt", {"n_rounds": 0, "scale_pos_weight": 1.0}), X, y)
        assert np.allclose(plain.predict_proba(X), 0.25)
        assert plain.inner.base_logit == pytest.approx(np.log(0.25 / 0.75))

    def test_constant_predictor_is_constant(self):
        X = np.arange(16.0).reshape(8, 2)
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        model = train(ModelConfig("gbt", {"n_rounds": 0}), X, y)
        probs = model.predict_proba(np.random.default_rng(0).normal(size=(9, 2)))
        assert len(set(probs.tolist())) == 1

    def test_unused_feature_importance_exactly_zero(self):
        rng = np.random.default_rng(5)
        X = np.hstack([rng.normal(size=(300, 1)), np.full((300, 1), 3.14)])
        y = (X[:, 0] > 0).astype(int)
        model = train(default_config("gbt"), X, y)
        assert model.importances[1] == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 4))
        y = ((X[:, 0] + 0.5 * X[:, 1]) > 0.3).astype(int)
        base = train(default_config("gbt"), X, y)
        Xt = X.copy()
        Xt[:, 0] = np.exp(Xt[:, 0])
        Xt[:, 2] = np.arctan(Xt[:, 2]) * 3 + 7
        transformed = train(default_config("gbt"), Xt, y)
        assert np.allclose(base.predict_proba(X), transformed.predict_proba(Xt))

    def test_adversarial_scale_probabilities_finite(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3)) * 1e6
        y = (X[:, 0] > 0).astype(int)
        for kind, params in (
            ("gbt", {}),
            ("logreg", {}),
            ("mlp", {"max_epochs": 15}),
            ("random_forest", {"n_trees": 10}),
        ):
            model = train(ModelConfig(kind, params), X, y)
            p = model.predict_proba(X)
            assert np.isfinite(p).all() and p.min() >= 0.0 and p.max() <= 1.0

    def test_importance_types_exposed(self):
        X, y = separable_1d()
        model = train(default_config("gbt"), X, y)
        for kind in ("gain", "cover", "frequency"):
            imp = model.inner.importance(kind)
            assert (imp >= 0).all()
        with pytest.raises(ValueError):
            model.inner.importance("shapley")

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(150, 5))
        y = (X[:, 1] > 0).astype(int)
        a = train(default_config("gbt"), X, y)
        b = train(default_config("gbt"), X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestMlp:
    def test_separable_2d(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        X_test = rng.normal(size=(200, 2))
        y_test = (X_test[:, 0] + X_test[:, 1] > 0).astype(int)
        model = train(default_config("mlp", seed=1), X, y)
        acc = (((model.predict_proba(X_test) >= 0.5).astype(int)) == y_test).mean()
        assert acc >= 0.95

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(5, 4))
        y = np.array([0, 1, 1, 0, 1])
        s = np.array([1.0, 2.0, 1.0, 1.5, 0.5])
        params = init_params(4, (6, 3), rng)
        loss, grads = loss_and_gradients(params, X, y, s)
        flat = params.flatten()
        analytic = grads.flatten()
        h = 1e-6
        worst = 0.0
        for i in range(len(flat)):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            lu, _ = loss_and_gradients(params.with_flat(up), X, y, s)
            ld, _ = loss_and_gradients(params.with_flat(down), X, y, s)
            numeric = (lu - ld) / (2 * h)
            denom = max(abs(numeric), abs(analytic[i]), 1e-8)
            worst = max(worst, abs(numeric - analytic[i]) / denom)
        assert worst < 1e-4

    def test_seeded_determinism_bit_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(120, 3))
        y = (X[:, 0] > 0).astype(int)
        a = train(default_config("mlp", seed=9), X, y)
        b = train(default_config("mlp", seed=9), X, y)
        for wa, wb in zip(a.inner.params.weights, b.inner.params.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.inner.params.biases, b.inner.params.biases):
            assert np.array_equal(ba, bb)

    def test_no_importances(self):
        X, y = separable_1d()
        model = train(default_config("mlp"), X, y)
        assert model.importances is None


class TestRandomForest:
    def test_single_informative_binary_feature(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 5))
        X[:, 3] = (rng.random(400) < 0.5).astype(float)
        y = X[:, 3].astype(int)
        model = train(default_config("random_forest"), X, y)
        assert model.importances[3] > 0.8

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(int)
        model = train(default_config("random_forest"), X, y)
        assert model.importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert (model.importances >= 0).all()

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 4))
        y = (X[:, 1] > 0).astype(int)
        base = train(default_config("random_forest", seed=5), X, y)
        perm = rng.permutation(150)
        shuffled = train(default_config("random_forest", seed=5), X[perm], y[perm])
        assert np.array_equal(base.importances, shuffled.importances)
        probe = rng.normal(size=(30, 4))
        assert np.array_equal(base.predict_proba(probe), shuffled.predict_proba(probe))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 3))
        y = (X[:, 2] > 0).astype(int)
        a = train(default_config("random_forest", seed=7), X, y)
        b = train(default_config("random_forest", seed=7), X, y)
        probe = rng.normal(size=(20, 3))
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_monotone_transform_invariance_structural(self):
        # tree structure and importances are rank-based, hence invariant;
        # exact prediction equality only holds for each tree's own bootstrap
        # rows (out-of-bag points between node-local value gaps may flip)
        rng = np.random.default_rng(10)
        X = rng.normal(size=(200, 3))
        y = ((X[:, 0] + X[:, 2]) > 0.2).astype(int)
        base = train(default_config("random_forest", seed=4), X, y)
        Xt = X.copy()
        Xt[:, 0] = np.expm1(Xt[:, 0])
        transformed = train(default_config("random_forest", seed=4), Xt, y)
        assert np.array_equal(base.importances, transformed.importances)

        for ta, tb in zip(base.inner.trees, transformed.inner.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.left, tb.left) and np.array_equal(ta.right, tb.right)
            leaves = ta.feature < 0
            assert np.array_equal(ta.leaf_value[leaves], tb.leaf_value[leaves])


class TestSerialization:
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_round_trip_predictions(self, kind, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(int)
        params = {"n_rounds": 10} if kind == "gbt" else {}
        if kind == "mlp":
            params = {"max_epochs": 20}
        if kind == "random_forest":
            params = {"n_trees": 10}
        model = train(ModelConfig(kind, params, seed=3), X, y, feature_names=["a", "b", "c"])
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_names == ["a", "b", "c"]
        assert loaded.config.seed == 3
        assert np.allclose(model.predict_proba(X), loaded.predict_proba(X))

    def test_version_1_file_is_schema_error(self, tmp_path):
        # a forest in the version-1 layout: one nested node dict per tree
        tree = {"feature": 0, "threshold": 0.5, "prob": 0.5, "left": {"prob": 0.0}, "right": {"prob": 1.0}}
        doc = {
            "format_version": 1,
            "kind": "random_forest",
            "seed": 3,
            "params": {"n_trees": 1},
            "feature_names": ["a"],
            "payload": {"n_features": 1, "importance": [1.0], "trees": [tree]},
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match="version 1"):
            load_model(path)

    @pytest.mark.parametrize(
        "tree, message",
        [
            # the probe that made prediction loop forever: the root is its own child
            ({"feature": [0], "value": [0.5], "left": [0], "right": [0], "leaf_value": [0.1]}, "tree node 0"),
            # a child before its parent, and one past the end
            ({"feature": [-1, 0], "value": [0.0, 0.5], "left": [-1, 0], "right": [-1, 0], "leaf_value": [0.1, 0.0]}, "tree node 1"),
            ({"feature": [0, -1], "value": [0.5, 0.0], "left": [1, -1], "right": [2, -1], "leaf_value": [0.0, 0.1]}, "tree node 0"),
            # a split on a column the model does not have
            ({"feature": [3, -1, -1], "value": [0.5, 0, 0], "left": [1, -1, -1], "right": [2, -1, -1], "leaf_value": [0, 0.1, 0.9]}, "tree node 0"),
            ({"feature": [0, -1], "value": [0.5, 0.0], "left": [1, -1], "right": [1, -1], "leaf_value": [0.0]}, "unequal length"),
            ({"feature": [], "value": [], "left": [], "right": [], "leaf_value": []}, "empty"),
            ({"feature": [-1], "value": [0.0], "left": [-1], "right": [-1], "leaf_value": [None]}, "'leaf_value'\\[0\\] is not a finite number"),
            ({"feature": [-1.5], "value": [0.0], "left": [-1], "right": [-1], "leaf_value": [0.1]}, "'feature'\\[0\\] is not an integer"),
        ],
    )
    @pytest.mark.parametrize("kind", ["gbt", "random_forest"])
    def test_malformed_tree_is_schema_error(self, kind, tree, message, tmp_path):
        X = np.random.default_rng(4).normal(size=(40, 3))
        model = train(ModelConfig(kind, {"n_rounds": 2} if kind == "gbt" else {"n_trees": 2}), X, (X[:, 0] > 0).astype(int))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["payload"]["trees"][1] = tree
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "edits, message",
        [
            # one column short: a numpy broadcast error at predict time
            ({("weights", 1): lambda w: [row[:-1] for row in w]}, "'weights'\\[1\\] is not 5 rows of 4 numbers"),
            # a ragged row: numpy's "inhomogeneous shape" error
            ({("weights", 0, 2): lambda row: row[:-1]}, "'weights'\\[0\\] is not 3 rows of 5 numbers"),
            ({("weights", 0): lambda w: w[:-1]}, "'weights'\\[0\\] is not 3 rows of 5 numbers"),
            ({("weights", 1): lambda w: w[:-1]}, "'weights'\\[1\\] is not 5 rows of 4 numbers"),
            ({("biases", 0): lambda b: b[:-1]}, "'weights'\\[0\\] is not 3 rows of 4 numbers, one per 'biases'\\[0\\] item"),
            ({("biases",): lambda b: b[:-1]}, "'biases' is not a list of length 3"),
            (
                {("weights", 2): lambda w: [row + [0.5] for row in w], ("biases", 2): lambda b: b + [0.0]},
                "the last layer of 'weights' has 2 columns, not 1",
            ),
            ({("weights",): lambda w: [], ("biases",): lambda b: []}, "the last layer of 'weights' has 3 columns, not 1"),
        ],
        ids=["short_column", "ragged_row", "missing_row", "missing_hidden_row", "short_bias", "missing_bias", "two_outputs", "no_layers"],
    )
    def test_malformed_mlp_is_schema_error(self, edits, message, tmp_path):
        X = np.random.default_rng(4).normal(size=(40, 3))
        model = train(ModelConfig("mlp", {"hidden": [5, 4], "max_epochs": 2}), X, (X[:, 0] > 0).astype(int))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for keys, edit in edits.items():
            parent = doc["payload"]
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = edit(parent[keys[-1]])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"model file {path}: {message}"):
            load_model(path)

    def test_feature_names_must_match_the_payload(self, tmp_path):
        # a split on column 2 of a model saved with two feature names would
        # be an IndexError at predict time
        X = np.random.default_rng(4).normal(size=(40, 3))
        model = train(ModelConfig("gbt", {"n_rounds": 2}), X, (X[:, 2] > 0).astype(int), feature_names=["a", "b", "c"])
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["feature_names"] = ["a", "b"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match="the payload has 3 features, 'feature_names' 2"):
            load_model(path)
