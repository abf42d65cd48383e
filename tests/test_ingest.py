import json

import pytest

from viralearly import ingest
from viralearly.errors import DatasetError

from conftest import make_record


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestParseDataset:
    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        diags = []
        assert list(ingest.parse_dataset(path, on_error=diags.append)) == []
        assert diags == []

    def test_malformed_line_routed_with_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = json.dumps(make_record().to_json_dict())
        write_lines(path, [good, "{not json"])
        diags = []
        records = list(ingest.parse_dataset(path, on_error=diags.append))
        assert len(records) == 1
        assert len(diags) == 1
        assert diags[0].line_no == 2

    def test_static_features_must_be_an_object(self, tmp_path):
        path = tmp_path / "d.jsonl"
        doc = make_record().to_json_dict()
        write_lines(path, [json.dumps({**doc, "static_features": ["inf"]}), json.dumps({**doc, "static_features": None})])
        diags = []
        records = list(ingest.parse_dataset(path, on_error=diags.append))
        assert len(records) == 1
        assert [(d.line_no, d.message) for d in diags] == [(1, "bad post record: static_features is not an object")]

    def test_malformed_raises_without_error_channel(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, ["{}"])
        with pytest.raises(DatasetError, match="line 1"):
            list(ingest.parse_dataset(path))

    def test_round_trip_identity(self, tmp_path):
        record = make_record(
            comments=[0, 1, 3],
            crossposts=[0, 0, 1],
            categories=["new", "rising", "hot"],
            static_features={"template_name": "stonks", "relatability_score": 7},
        )
        path = tmp_path / "d.jsonl"
        ingest.write_dataset([record], path)
        (parsed,) = ingest.parse_dataset(path)
        assert parsed == record

    def test_parse_is_deterministic(self, tmp_path):
        path = tmp_path / "d.jsonl"
        ingest.write_dataset([make_record(post_id=f"p{i}") for i in range(5)], path)
        first = list(ingest.parse_dataset(path))
        second = list(ingest.parse_dataset(path))
        assert first == second

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            list(ingest.parse_dataset(tmp_path / "nope.jsonl"))


def long_times():
    return list(range(0, 1501, 60))


class TestQualityFilters:
    def test_short_tracking_boundary_dropped(self):
        record = make_record(times=[0, 720, 1439.9], scores=[0, 1, 2])
        assert list(ingest.apply_quality_filters([record])) == []

    def test_long_enough_kept(self):
        times = long_times()
        record = make_record(times=times, scores=list(range(len(times))))
        assert list(ingest.apply_quality_filters([record])) == [record]

    def test_exact_boundary_kept(self):
        times = [0, 360, 720, 1080, 1440]
        record = make_record(times=times, scores=[0, 1, 2, 3, 4])
        assert list(ingest.apply_quality_filters([record])) == [record]

    def test_planted_violation_counts(self):
        times = long_times()
        scores = list(range(len(times)))
        clean = [make_record(post_id=f"ok{i}", times=times, scores=scores) for i in range(4)]
        removed = [make_record(post_id="r1", times=times, scores=scores, removed=True)]
        no_media = [make_record(post_id="m1", times=times, scores=scores, media_url=None)]
        short = [make_record(post_id="s1", times=[0, 100], scores=[0, 1]) for _ in range(2)]
        gappy = [make_record(post_id="g1", times=[0, 500, 1500], scores=[0, 1, 2])]
        summary = ingest.FilterSummary()
        kept = list(ingest.apply_quality_filters(clean + removed + no_media + short + gappy, summary=summary))
        assert [r.post_id for r in kept] == [r.post_id for r in clean]
        assert summary.total == 9
        assert summary.kept == 4
        assert summary.dropped_removed == 1
        assert summary.dropped_no_media == 1
        assert summary.dropped_short_tracking == 2
        assert summary.dropped_gap == 1

    def test_idempotent(self):
        times = long_times()
        records = [make_record(post_id=f"p{i}", times=times, scores=list(range(len(times)))) for i in range(3)]
        records.append(make_record(post_id="bad", times=[0, 10], scores=[0, 1]))
        once = list(ingest.apply_quality_filters(records))
        twice = list(ingest.apply_quality_filters(once))
        assert once == twice


class TestValidateRecord:
    def test_non_increasing_time_reports_first_index(self):
        record = make_record(times=[0, 5, 5], scores=[0, 1, 2])
        report = ingest.validate_record(record)
        assert "non-increasing time at index 2" in report.violations

    def test_zero_subscribers(self):
        record = make_record(subscribers=0)
        assert "subscribers < 1" in ingest.validate_record(record).violations

    def test_valid_record_empty_report(self):
        report = ingest.validate_record(make_record(comments=[0, 1, 2]))
        assert report.ok
        assert report.violations == []

    def test_negative_counts_flagged(self):
        record = make_record(comments=[0, -1, 2])
        assert any("negative comments" in v for v in ingest.validate_record(record).violations)

    def test_unknown_category_flagged(self):
        record = make_record(categories=["new", "weird", "new"])
        assert any("unknown category" in v for v in ingest.validate_record(record).violations)

    def test_non_finite_static_number_flagged(self):
        # the values extract_static would reject, caught before any sweep
        for bad, shown in (("inf", "inf"), ("-Infinity", "-inf"), (float("nan"), "nan"), (10**400, "inf"), (-(10**400), "-inf")):
            record = make_record(static_features={"controversy_score": bad, "template_name": "inf"})
            assert ingest.validate_record(record).violations == [
                f"static feature 'controversy_score' is not finite ({shown})"
            ]

    def test_readable_static_values_pass(self):
        blob = {"controversy_score": 3, "image_width": "640.5", "is_offensive": True, "title_word_count": "n/a", "template_name": "inf"}
        assert ingest.validate_record(make_record(static_features=blob)).ok


def test_dataset_schema_ships():
    schema = ingest.dataset_schema()
    assert schema["title"] == "PostRecord"
    static = schema["properties"]["static_features"]["properties"]
    assert "template_name" in static
    assert "text_sentiment_overall" in static
    assert "relatability_score" in static


def test_truncate_record():
    record = make_record(times=[0, 5, 35], scores=[0, 1, 2])
    cut = ingest.truncate_record(record, 30.0)
    assert [s.t_minutes for s in cut.snapshots] == [0.0, 5.0]
