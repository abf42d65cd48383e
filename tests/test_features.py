import numpy as np
import pytest

from viralearly import features, ingest
from viralearly.errors import ConfigError, DatasetError, SchemaError
from viralearly.features import (
    FeatureMatrix,
    WindowSpec,
    assemble_matrix,
    extract_network,
    extract_static,
    extract_temporal,
)
from viralearly.ingest import observed_count
from viralearly.labeling import NormalizationCaps

from conftest import make_record
from oracles import STATIC_CATALOG, truncate_record

WIDE = NormalizationCaps({"score": 1e12, "comments": 1e12, "crossposts": 1e12})


class TestWindowView:
    def test_boundary_excludes_future(self):
        assert observed_count(np.array([0.0, 5.0, 35.0]), 30.0) == 2
        # a batch's rows, padded with +inf past each post's last snapshot
        assert observed_count(np.array([[0.0, 5.0, 35.0], [0.0, 40.0, np.inf]]), 30.0).tolist() == [2, 1]

    def test_window_larger_than_series(self):
        assert observed_count(np.array([0.0, 5.0, 10.0, np.inf]), 1e6) == 3

    def test_boundary_inclusive(self):
        assert observed_count(np.array([0.0, 30.0]), 30.0) == 2

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ConfigError):
            WindowSpec(0.0)


class TestExtractTemporal:
    def test_flat_series(self):
        r = make_record(times=[0, 5, 10, 15], scores=[7, 7, 7, 7])
        f = extract_temporal(r, WindowSpec(30.0), WIDE)
        assert f.peak_velocity == 0.0
        assert f.burst_count == 0.0
        assert f.timing_entropy == 0.0
        assert f.momentum_ratio == 1.0
        assert f.time_to_takeoff is None

    def test_closed_form_ramp(self):
        times = [0, 5, 10, 15, 20, 25, 30]
        r = make_record(times=times, scores=times, subscribers=100_000)
        f = extract_temporal(r, WindowSpec(30.0), WIDE)
        assert f.peak_velocity == pytest.approx(1.0)
        assert f.engagement_auc == pytest.approx(450.0)
        assert f.norm_score == pytest.approx(30.0)
        assert f.time_to_takeoff == pytest.approx(5.0)
        assert f.takeoff_velocity == pytest.approx(1.0)
        assert f.momentum_ratio == pytest.approx(3.0, rel=1e-6)
        assert f.half_life_minutes == pytest.approx(np.sqrt(450.0))
        assert f.time_to_peak == pytest.approx(30.0)

    def test_step_series(self):
        times = [0, 5, 10, 15, 20, 25, 30]
        scores = [0, 0, 0, 0, 0, 100, 100]
        r = make_record(times=times, scores=scores, subscribers=100_000)
        f = extract_temporal(r, WindowSpec(30.0), WIDE)
        assert f.first_vote_min == pytest.approx(25.0)
        assert f.time_to_takeoff == pytest.approx(25.0)
        assert f.takeoff_velocity == pytest.approx(20.0)

    def test_submission_time_fields(self):
        r = make_record(created_minutes=9 * 60 + 30)  # 2024-01-01 09:30 UTC, a Monday
        f = extract_temporal(r, WindowSpec(30.0), WIDE)
        assert f.hour_of_day == 9.0
        assert f.day_of_week == 0.0
        assert f.is_weekend == 0.0

    def test_empty_window_keeps_submission_fields(self):
        r = make_record(times=[40, 50], scores=[1, 2])
        f = extract_temporal(r, WindowSpec(30.0), WIDE)
        assert f.hour_of_day is not None
        assert f.norm_score is None
        assert f.peak_velocity is None
        assert f.engagement_auc is None

    def test_caps_respected(self):
        caps = NormalizationCaps({"score": 5.0, "comments": 5.0, "crossposts": 5.0})
        r = make_record(times=[0, 5, 10], scores=[0, 500, 900], subscribers=1000)
        f = extract_temporal(r, WindowSpec(30.0), caps)
        assert f.norm_score <= 5.0

    def test_pct_time_fields_bounded(self):
        r = make_record(
            times=[0, 5, 10, 15],
            scores=[0, 1, 2, 3],
            categories=["new", "rising", "hot", "unknown"],
        )
        f = extract_temporal(r, WindowSpec(30.0), WIDE)
        pcts = [f.pct_time_in_new, f.pct_time_in_rising, f.pct_time_in_hot, f.pct_time_in_top]
        assert all(0.0 <= p <= 1.0 for p in pcts)
        assert sum(pcts) <= 1.0 + 1e-12

    def test_category_snapshot_is_last_in_window(self):
        r = make_record(times=[0, 5, 40], scores=[0, 1, 2], categories=["new", "rising", "top"])
        f = extract_temporal(r, WindowSpec(30.0), WIDE)
        assert f.category_snapshot == "rising"


class TestExtractNetwork:
    def test_hand_counted_path(self):
        r = make_record(
            times=[0, 5, 10, 15],
            scores=[0, 1, 2, 3],
            categories=["new", "new", "rising", "hot"],
        )
        f = extract_network(r, WindowSpec(30.0))
        assert f.category_transitions == 2.0
        assert f.unique_categories == 3.0
        assert f.time_to_hot == 15.0
        assert f.time_to_rising == 10.0
        assert f.time_to_top is None
        assert f.promotion_demotion_ratio == 2.0
        assert f.progression_pattern == "new>rising>hot"

    def test_single_snapshot(self):
        r = make_record(times=[0], scores=[1])
        f = extract_network(r, WindowSpec(30.0))
        assert f.category_transitions == 0.0
        assert f.category_stability == 1.0

    def test_karma_per_day(self):
        r = make_record(total_karma=3650, account_age_days=365.0)
        f = extract_network(r, WindowSpec(30.0))
        assert f.author_karma_per_day == pytest.approx(10.0)

    def test_fresh_account_age_floor(self):
        r = make_record(total_karma=100, account_age_days=0.2)
        f = extract_network(r, WindowSpec(30.0))
        assert f.author_karma_per_day == pytest.approx(100.0)


class TestExtractStatic:
    def test_blob_passthrough_with_modality(self):
        r = make_record(static_features={"template_name": "stonks", "relatability_score": 7, "is_offensive": True})
        static = extract_static(r)
        assert static["visual"]["template_name"] == "stonks"
        assert static["contextual"]["relatability_score"] == 7.0
        assert type(static["contextual"]["is_offensive"]) is float

    def test_title_fallbacks(self):
        r = make_record(title="three word title", static_features={})
        static = extract_static(r)
        assert static["textual"]["title_word_count"] == 3.0
        assert static["textual"]["is_title_present"] == 1.0

    def test_missing_blob_gives_missing_values(self):
        r = make_record(static_features=None, title="")
        static = extract_static(r)
        assert static["visual"]["template_name"] is None
        assert static["textual"]["is_title_present"] == 0.0

    def test_non_finite_numeric_rejected(self):
        # json.loads accepts Infinity/NaN and float("inf") parses; neither
        # may reach a matrix, where logreg and the MLP would predict NaN
        for bad in ("inf", float("-inf"), float("nan")):
            r = make_record(post_id="p7", static_features={"controversy_score": bad})
            with pytest.raises(DatasetError, match="p7.*controversy_score"):
                extract_static(r)


def test_static_catalogs_agree_with_schema():
    # the static catalog is read from the schema, so it is checked against
    # the pinned hand-written one; the readers' table comes from the same
    # schema and must give each key the same modality and kind
    derived = tuple((name, m, kind) for m in features.STATIC_MODALITIES for name, kind in features.MODALITY_CATALOG[m])
    assert derived == STATIC_CATALOG
    assert len(derived) == 46
    table = {(name, f.modality, f.kind) for name, f in ingest.STATIC_FEATURES.items()}
    assert table == set(STATIC_CATALOG)


def assert_same_windowed_rows(records, cut_records, w):
    """Every temporal and network column of the two batches' matrices is equal."""
    full = assemble_matrix(records, w, WIDE, include_modalities=features.WINDOWED_MODALITIES)
    cut = assemble_matrix(cut_records, w, WIDE, include_modalities=features.WINDOWED_MODALITIES)
    assert cut.column_names == full.column_names
    for name in full.column_names:
        np.testing.assert_array_equal(cut.column(name), full.column(name), err_msg=name)


class TestCausality:
    def test_truncation_equivalence(self, temporal_corpus):
        records = temporal_corpus[0][:20]
        assert_same_windowed_rows(records, [truncate_record(r, 120.0) for r in records], WindowSpec(120.0))

    def test_small_window_blind_to_later_data(self, temporal_corpus):
        records = temporal_corpus[0][:20]
        assert_same_windowed_rows(records, [truncate_record(r, 300.0) for r in records], WindowSpec(60.0))


class TestAssembleMatrix:
    def test_temporal_only_has_exact_catalog(self):
        records = [make_record(post_id=f"p{i}") for i in range(3)]
        m = assemble_matrix(records, WindowSpec(30.0), WIDE, include_modalities={"temporal"})
        expected = {f"temporal__{name}" for name, _ in features.TEMPORAL_COLUMNS}
        assert set(m.column_names) == expected
        assert m.n_rows == 3

    def test_empty_include_set(self):
        records = [make_record(post_id=f"p{i}") for i in range(4)]
        m = assemble_matrix(records, WindowSpec(30.0), WIDE, include_modalities=set())
        assert m.n_rows == 4
        assert m.columns == []

    def test_unknown_modality_rejected(self):
        with pytest.raises(ConfigError):
            assemble_matrix([make_record()], WindowSpec(30.0), WIDE, include_modalities={"audio"})

    def test_column_order_deterministic(self):
        records = [make_record()]
        a = assemble_matrix(records, WindowSpec(30.0), WIDE)
        b = assemble_matrix(records, WindowSpec(30.0), WIDE)
        assert a.column_names == b.column_names
        modality_rank = {m: i for i, m in enumerate(features.MODALITIES)}
        pairs = [(modality_rank[c.modality], c.name) for c in a.columns]
        assert pairs == sorted(pairs)

    def test_missing_blob_is_not_an_error(self):
        m = assemble_matrix([make_record(static_features=None)], WindowSpec(30.0), WIDE)
        col = m.column("visual__template_name")
        assert col[0] is None

    def test_take_subsets_rows(self, temporal_corpus):
        records, _ = temporal_corpus
        m = assemble_matrix(records[:10], WindowSpec(30.0), WIDE)
        sub = m.take([1, 3, 5])
        assert sub.row_ids == [records[1].post_id, records[3].post_id, records[5].post_id]
        assert np.array_equal(
            sub.column("temporal__norm_score"),
            m.column("temporal__norm_score")[[1, 3, 5]],
            equal_nan=True,
        )


class TestMatrixExport:
    def test_csv_round_trip(self, tmp_path, temporal_corpus):
        records, _ = temporal_corpus
        m = assemble_matrix(records[:25], WindowSpec(60.0), WIDE)
        path = tmp_path / "feat.csv"
        manifest = m.to_csv(path)
        assert manifest.exists()
        back = FeatureMatrix.from_csv(path)
        assert back.row_ids == m.row_ids
        assert back.column_names == m.column_names
        for c in m.columns:
            if c.kind == "numeric":
                assert np.allclose(back.column(c.name), m.column(c.name), equal_nan=True)
            else:
                assert list(back.column(c.name)) == list(m.column(c.name))

    def test_unknown_column_raises(self):
        m = assemble_matrix([make_record()], WindowSpec(30.0), WIDE)
        with pytest.raises(SchemaError):
            m.column("nope")
