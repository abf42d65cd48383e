import ast
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from viralearly import ingest, synth
from viralearly.errors import DatasetError

from conftest import make_record, make_snapshots


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

    @pytest.mark.parametrize(
        "snapshots",
        [
            make_snapshots([], []),
            make_snapshots([4], [2], categories=["top"]),
            make_snapshots([0, 5, 10, 15], [0, 2, 5, 9], ratios=[None, 0.5, None, 0.75]),
        ],
        ids=["none", "one", "some_ratios"],
    )
    def test_round_trip_identity_of_a_series(self, tmp_path, snapshots):
        record = replace(make_record(), snapshots=snapshots)
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
    assert list(cut.snapshots.t_minutes) == [0.0, 5.0]


# One valid synthetic record; each example below breaks one leaf of it.
SYNTH_DOC = synth.generate(synth.SynthConfig(n_posts=20, seed=0))[0][0].to_json_dict()
SNAPSHOT_LEAVES = ("t_minutes", "score", "comments", "crossposts", "upvote_ratio")
OTHER_LEAVES = (("author", "total_karma"), ("author", "account_age_days"), ("subreddit", "subscribers"))
INTEGER_LEAVES = {"score", "comments", "crossposts", "total_karma", "subscribers"}
# NaN and +-infinity as bare tokens, as strings in JSON's and Python's
# spelling, and as numbers too large for a float; then the other JSON types,
# a numeric string and an integer too large for a float
NOT_A_NUMBER_JSON = (
    "NaN", "Infinity", "-Infinity",
    '"NaN"', '"Infinity"', '"-Infinity"', '"nan"', '"inf"', '"-inf"',
    "1e400", "-1e400",
    "true", "false", '"12"', '"0.5"', "null", "[]", "[3]", "{}", '{"value": 3}', str(10**400), "9" * 5000,
)
# a count must be whole
FRACTION_JSON = ("12.9", "0.5", "-3.25")
FLAG_LEAVES = (("removed",), ("author", "is_premium"))
NOT_A_FLAG_JSON = ('"false"', '"true"', "0", "1", "null", "[]")
CONTAINER_LEAVES = (("author",), ("subreddit",), ("snapshots",), ("snapshots", 0))
NOT_A_CONTAINER_JSON = ("null", "1", '"x"', "true", "[]", "{}", "[null]", '{"0": {}}')


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(
        st.tuples(
            st.one_of(
                st.tuples(st.just("snapshots"), st.integers(0, len(SYNTH_DOC["snapshots"]) - 1), st.sampled_from(SNAPSHOT_LEAVES)),
                st.sampled_from(OTHER_LEAVES),
            ),
            st.sampled_from(NOT_A_NUMBER_JSON + FRACTION_JSON),
        ),
        st.tuples(st.sampled_from(FLAG_LEAVES), st.sampled_from(NOT_A_FLAG_JSON)),
        st.tuples(st.sampled_from(CONTAINER_LEAVES), st.sampled_from(NOT_A_CONTAINER_JSON)),
    ),
)
def test_a_non_finite_leaf_never_yields_a_clean_record(case):
    leaf, text = case
    # a fraction is a valid time or ratio, and a missing ratio is valid
    assume(text not in FRACTION_JSON or leaf[-1] in INTEGER_LEAVES)
    assume(not (leaf[-1] == "upvote_ratio" and text == "null"))
    doc = json.loads(json.dumps(SYNTH_DOC))
    parent = doc
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = "<leaf>"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text(json.dumps(doc).replace('"<leaf>"', text) + "\n", encoding="utf-8")
        try:
            records = list(ingest.parse_dataset(path))
        except DatasetError:
            return
    (record,) = records
    assert not ingest.validate_record(record).ok


@pytest.mark.parametrize(
    "reader, value, expected",
    [
        (ingest.read_int, 12, 12),
        (ingest.read_int, 12.0, 12),
        (ingest.read_int, -3, -3),
        (ingest.read_number, 12, 12.0),
        (ingest.read_number, 0.25, 0.25),
        (ingest.read_flag, False, False),
        (ingest.read_text, "", ""),
        (ingest.read_object, {}, {}),
        (ingest.read_list, [None], [None]),
    ],
)
def test_readers_accept_their_json_type(reader, value, expected):
    got = reader(value, "field")
    assert got == expected and type(got) is type(expected)


def test_only_ingest_decodes_json():
    # every value from outside goes through ingest.decode_json and its readers
    package = Path(ingest.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "ingest.py" and path.parent == package:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("loads", "load", "JSONDecoder"):
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.extend(f"{path.name}:{node.lineno}" for a in node.names if a.name in ("loads", "load", "JSONDecoder"))
    assert found == []


@pytest.mark.parametrize("field", ["t_minutes", "upvote_ratio", "account_age_days"])
def test_non_finite_value_is_rejected_naming_the_field(tmp_path, field):
    doc = make_record().to_json_dict()
    (doc["author"] if field == "account_age_days" else doc["snapshots"][1])[field] = "inf"
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps(make_record().to_json_dict()), json.dumps(doc)])
    diags = []
    assert len(list(ingest.parse_dataset(path, on_error=diags.append))) == 1
    assert [str(d) for d in diags] == [f"line 2: bad post record: {field} is not a finite number ('inf')"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_token_is_malformed(tmp_path, token):
    line = json.dumps(make_record().to_json_dict()).replace('"t_minutes": 5.0', f'"t_minutes": {token}')
    path = tmp_path / "d.jsonl"
    write_lines(path, [line])
    with pytest.raises(DatasetError, match=f"line 1: {token} is not a JSON number"):
        list(ingest.parse_dataset(path))
