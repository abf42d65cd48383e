import numpy as np
import pytest

from viralearly import preprocess
from viralearly.errors import FitError, SchemaError
from viralearly.features import ColumnSpec, FeatureMatrix


def matrix_from(columns, rows, ids=None):
    """columns: list of (name, kind); rows: list of row dicts."""
    ids = ids or [f"r{i}" for i in range(len(rows))]
    specs = [ColumnSpec(name, "temporal", kind) for name, kind in columns]
    data = {}
    for name, kind in columns:
        values = [row.get(name) for row in rows]
        if kind == "numeric":
            data[name] = np.array([np.nan if v is None else float(v) for v in values])
        else:
            data[name] = np.array(values, dtype=object)
    return FeatureMatrix(ids, specs, data)


class TestFit:
    def test_median_excludes_missing(self):
        m = matrix_from([("x", "numeric")], [{"x": 1}, {"x": 2}, {"x": None}, {"x": 100}])
        model = preprocess.fit(m)
        assert model.numeric["x"].median == pytest.approx(2.0)

    def test_even_count_median_averages_middles(self):
        m = matrix_from([("x", "numeric")], [{"x": 1}, {"x": 2}, {"x": 3}, {"x": 100}])
        model = preprocess.fit(m)
        assert model.numeric["x"].median == pytest.approx(2.5)

    def test_vocab_includes_missing_token(self):
        m = matrix_from([("c", "categorical")], [{"c": "a"}, {"c": "a"}, {"c": None}])
        model = preprocess.fit(m)
        assert model.vocab["c"] == ["a", "missing"]

    def test_constant_column_std_stored_as_one(self):
        m = matrix_from([("x", "numeric")], [{"x": 4}, {"x": 4}, {"x": 4}])
        model = preprocess.fit(m)
        assert model.numeric["x"].std == 1.0
        out = preprocess.transform(model, m)
        assert np.allclose(out.X, 0.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(FitError):
            preprocess.fit(matrix_from([("x", "numeric")], []))

    def test_deterministic(self):
        m = matrix_from(
            [("x", "numeric"), ("c", "categorical")],
            [{"x": 1, "c": "a"}, {"x": 5, "c": "b"}, {"x": None, "c": None}],
        )
        assert preprocess.fit(m).to_json() == preprocess.fit(m).to_json()


class TestTransform:
    def test_standardization_identity(self):
        rng = np.random.default_rng(0)
        rows = [{"x": float(v)} for v in rng.normal(3.0, 2.0, size=200)]
        m = matrix_from([("x", "numeric")], rows)
        out = preprocess.transform(preprocess.fit(m), m)
        assert abs(out.X[:, 0].mean()) < 1e-9
        assert out.X[:, 0].std() == pytest.approx(1.0, abs=1e-9)

    def test_unseen_category_folds_into_missing(self):
        train = matrix_from([("c", "categorical")], [{"c": "a"}, {"c": "b"}])
        model = preprocess.fit(train)
        test = matrix_from([("c", "categorical")], [{"c": "z"}])
        out = preprocess.transform(model, test)
        assert out.names == ["c=a", "c=b", "c=missing"]
        assert out.X.tolist() == [[0.0, 0.0, 1.0]]

    def test_one_hot_rows_sum_to_one(self):
        train = matrix_from([("c", "categorical")], [{"c": "a"}, {"c": "b"}, {"c": None}])
        model = preprocess.fit(train)
        test = matrix_from([("c", "categorical")], [{"c": "a"}, {"c": "q"}, {"c": None}])
        out = preprocess.transform(model, test)
        assert np.all(out.X.sum(axis=1) == 1.0)

    def test_output_has_no_missing(self):
        m = matrix_from(
            [("x", "numeric"), ("c", "categorical")],
            [{"x": None, "c": None}, {"x": 2.0, "c": "a"}],
        )
        out = preprocess.transform(preprocess.fit(m), m)
        assert np.isfinite(out.X).all()

    def test_unknown_column_rejected(self):
        train = matrix_from([("x", "numeric")], [{"x": 1}, {"x": 2}])
        model = preprocess.fit(train)
        test = matrix_from([("y", "numeric")], [{"y": 1}])
        with pytest.raises(SchemaError):
            preprocess.transform(model, test)
        # a fitted column the matrix lacks, as a temporal-only matrix lacks the static ones
        two = preprocess.fit(matrix_from([("x", "numeric"), ("z", "numeric")], [{"x": 1, "z": 3}, {"x": 2, "z": 4}]))
        with pytest.raises(SchemaError, match=r"absent from the matrix: \['z'\]"):
            preprocess.transform(two, train)

    def test_parents_track_source_columns(self):
        m = matrix_from(
            [("x", "numeric"), ("c", "categorical")],
            [{"x": 1, "c": "a"}, {"x": 2, "c": "b"}],
        )
        out = preprocess.transform(preprocess.fit(m), m)
        assert out.parents == ["x", "c", "c", "c"]

    def test_transform_does_not_mutate_model(self):
        train = matrix_from([("x", "numeric")], [{"x": 1}, {"x": 5}])
        model = preprocess.fit(train)
        before = model.to_json()
        test = matrix_from([("x", "numeric")], [{"x": 1e9}])
        preprocess.transform(model, test)
        assert model.to_json() == before


def test_save_load_round_trip(tmp_path):
    m = matrix_from(
        [("x", "numeric"), ("c", "categorical")],
        [{"x": 1, "c": "a"}, {"x": 5, "c": None}],
    )
    model = preprocess.fit(m)
    path = tmp_path / "prep.json"
    model.save(path)
    loaded = preprocess.PreprocessModel.load(path)
    assert loaded.to_json() == model.to_json()
    out_a = preprocess.transform(model, m)
    out_b = preprocess.transform(loaded, m)
    assert np.array_equal(out_a.X, out_b.X)
