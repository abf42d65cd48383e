import ast
import gc
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from viralearly import ingest, synth
from viralearly.errors import DatasetError
from viralearly.features import extract_static

from conftest import make_record, make_snapshots
from oracles import (
    reference_drop_reason,
    reference_series_violations,
    reference_snapshots_from_json_list,
    reference_write_dataset,
    truncate_record,
)


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

    def test_repeated_post_id_is_a_malformed_line(self, tmp_path):
        # the studies looked posts up by id, so a repeat silently replaced the first record
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps(make_record(post_id=p).to_json_dict()) for p in ("a", "b", "a", "c", "b")])
        diags = []
        assert [r.post_id for r in ingest.parse_dataset(path, on_error=diags.append)] == ["a", "b", "c"]
        assert [str(d) for d in diags] == ["line 3: post id 'a' repeats line 1", "line 5: post id 'b' repeats line 2"]
        with pytest.raises(DatasetError, match="^line 3: post id 'a' repeats line 1$"):
            list(ingest.parse_dataset(path))

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
        cases = (
            ("controversy_score", "inf", "is not an integer ('inf')"),
            ("controversy_score", float("nan"), "is not an integer (nan)"),
            ("controversy_score", 10**400, "is too large for a float"),
            ("image_width", "-Infinity", "is not a finite number ('-Infinity')"),
            ("image_width", float("inf"), "is not a finite number (inf)"),
            ("image_width", -(10**400), "is too large for a float"),
            ("image_width", "640.5", "is not a finite number ('640.5')"),
            ("title_word_count", "n/a", "is not an integer ('n/a')"),
            ("controversy_score", 2.5, "is not an integer (2.5)"),
            ("is_offensive", 1, "is not true or false"),
            ("template_name", [1, 2], "is not a string"),
        )
        for name, bad, message in cases:
            record = make_record(static_features={"template_name": "inf", name: bad})
            assert ingest.validate_record(record).violations == [f"static_features.{name} {message}"]

    def test_readable_static_values_pass(self):
        # an int in a number key, an integral float in an integer key, a
        # boolean in a boolean key, any string in a string key, null as missing
        blob = {"controversy_score": 3, "image_width": 640, "is_offensive": True, "title_word_count": 12.0, "template_name": "inf", "panels": None}
        assert ingest.validate_record(make_record(static_features=blob)).ok


def test_dataset_schema_ships():
    schema = ingest.dataset_schema()
    assert schema["title"] == "PostRecord"
    static = schema["properties"]["static_features"]["properties"]
    assert "template_name" in static
    assert "text_sentiment_overall" in static
    assert "relatability_score" in static


def test_a_renamed_copy_of_the_package_reads_its_own_schema(tmp_path):
    copy = tmp_path / "renamed_viralearly"
    shutil.copytree(Path(ingest.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    schema_path = copy / "data" / "post_record.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    schema["properties"]["media_type"]["enum"].append("hologram")
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    # viralearly stays importable, so a copy that read viralearly's schema would import and show it
    path = os.pathsep.join([str(tmp_path), str(Path(ingest.__file__).parents[1])])
    script = "import renamed_viralearly.ingest as i; print(','.join(i.MEDIA_TYPES))"
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [",".join(ingest.MEDIA_TYPES + ("hologram",))]
    assert "hologram" not in ingest.MEDIA_TYPES


def test_truncate_record():
    # the causality tests' truncation keeps the prefix the window rule observes
    record = make_record(times=[0, 5, 35], scores=[0, 1, 2])
    cut = truncate_record(record, 30.0)
    assert cut.snapshots == make_snapshots([0, 5], [0, 1])
    assert len(cut.snapshots) == ingest.observed_count(np.array(record.snapshots.t_minutes), 30.0)


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


# For each JSON type of a static feature: values of the other JSON types,
# numbers that are not finite or past the float range (a bare NaN or Infinity
# token and an integer of over 4300 digits fail parsing), and fractions in
# an integer key; null is a missing value
NOT_A_STATIC_NUMBER_JSON = tuple(t for t in NOT_A_NUMBER_JSON if t != "null")
NOT_OF_STATIC_TYPE_JSON = {
    "number": NOT_A_STATIC_NUMBER_JSON,
    "integer": NOT_A_STATIC_NUMBER_JSON + FRACTION_JSON,
    "boolean": tuple(t for t in NOT_A_FLAG_JSON if t != "null") + ("0.5", "[true]", "{}", '"x"'),
    "string": ("0", "12", "0.5", "1e400", "NaN", str(10**400), "true", "false", "[1, 2]", '["x"]', "{}"),
}
STATIC_CASES = tuple(
    (name, text)
    for name, spec in ingest.dataset_schema()["properties"]["static_features"]["properties"].items()
    for text in NOT_OF_STATIC_TYPE_JSON[spec["type"]]
)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(STATIC_CASES))
def test_a_static_value_off_its_schema_type_never_yields_a_clean_record(case):
    name, text = case
    doc = json.loads(json.dumps(SYNTH_DOC))
    doc["static_features"][name] = "<leaf>"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text(json.dumps(doc).replace('"<leaf>"', text) + "\n", encoding="utf-8")
        try:
            records = list(ingest.parse_dataset(path))
        except DatasetError:
            return
    (record,) = records
    assert [v.split(" is ")[0] for v in ingest.validate_record(record).violations] == [f"static_features.{name}"]
    with pytest.raises(DatasetError, match=rf"^post {record.post_id}: static_features\.{name} is "):
        extract_static(record)


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


# -- typed columns -------------------------------------------------------------


def test_series_are_held_as_typed_columns(tmp_path):
    records = [
        replace(make_record(post_id="a"), snapshots=make_snapshots([0, 5, 10, 15], [0, 2, 5, 9], ratios=[None, 0.5, None, 0.75])),
        make_record(post_id="b", categories=["new", "rising", "hot"], static_features={"template_name": "stonks"}),
        make_record(post_id="c", categories=["hot", "hot", "top"], static_features={"template_name": "drake"}),
    ]
    path = tmp_path / "d.jsonl"
    ingest.write_dataset(records, path)
    parsed = list(ingest.parse_dataset(path))
    assert parsed == records  # missing ratios included
    for record in parsed:
        snaps = record.snapshots
        assert [(type(c), c.typecode) for c in (snaps.t_minutes, snaps.score, snaps.comments, snaps.crossposts)] == [
            (array, "d"), (array, "q"), (array, "q"), (array, "q")
        ]
        assert type(snaps.upvote_ratio) is tuple and type(snaps.category) is tuple
    # each category name and static-feature key is one string across records
    assert parsed[1].snapshots.category[2] is parsed[2].snapshots.category[0]
    assert next(iter(parsed[1].static_features)) is next(iter(parsed[2].static_features))


def test_snapshots_convert_other_sequences():
    snaps = ingest.Snapshots([0, 5.5], [1, 2], [0, 0], [0, 1], [None, 0.5], ["new", "hot"])
    assert snaps == make_snapshots([0.0, 5.5], [1, 2], crossposts=[0, 1], categories=["new", "hot"], ratios=[None, 0.5])
    assert snaps.t_minutes == array("d", [0.0, 5.5]) and snaps.score == array("q", [1, 2])
    assert ingest.Snapshots() == make_snapshots([], []) and len(ingest.Snapshots()) == 0
    with pytest.raises(DatasetError, match=r"^comments is too large for a 64-bit integer \(-9223372036854775809\)$"):
        ingest.Snapshots([0.0, 1.0], [1, 2], [0, -(2**63) - 1], [0, 0])


@pytest.mark.parametrize("field", ["score", "comments", "crossposts"])
@pytest.mark.parametrize("count", [2**63, -(2**63) - 1, float(2**64)], ids=["2**63", "-2**63-1", "float_2**64"])
def test_a_count_past_64_bits_is_rejected_naming_the_field(tmp_path, field, count):
    doc = make_record().to_json_dict()
    doc["snapshots"][1][field] = count
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps(doc)])
    with pytest.raises(DatasetError, match=rf"^line 1: bad post record: {field} is too large for a 64-bit integer \({int(count)}\)$"):
        list(ingest.parse_dataset(path))
    doc["snapshots"][1][field] = 2**63 - 1 if count > 0 else -(2**63)  # the largest counts a column holds
    write_lines(path, [json.dumps(doc)])
    (record,) = ingest.parse_dataset(path)
    assert getattr(record.snapshots, field)[1] == doc["snapshots"][1][field]


def retained_bytes(build):
    """What ``build()`` returns and the bytes it keeps allocated, after a collection."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_parsed_corpus_holds_its_series_as_columns(tmp_path):
    # Bounded against the same corpus with its four numeric columns boxed, one
    # Python value per snapshot field as a tuple holds them, measured in the
    # same process so that the bound does not rest on one interpreter's object
    # sizes. A 200-post synth corpus keeps 0.84 of the boxed corpus's bytes
    # (Python 3.11, 64-bit); a parser that held tuples would keep 1.0 or more.
    records, _ = synth.generate(synth.SynthConfig(n_posts=200, seed=7))
    path = tmp_path / "posts.jsonl"
    ingest.write_dataset(records, path)
    del records
    parsed, parsed_bytes = retained_bytes(lambda: list(ingest.parse_dataset(path)))
    assert len(parsed) == 200
    columns = [[(code, getattr(r.snapshots, name)) for name, code in ingest.COLUMN_TYPECODES.items()] for r in parsed]
    _, typed_bytes = retained_bytes(lambda: [[array(code, c) for code, c in post] for post in columns])
    _, boxed_bytes = retained_bytes(lambda: [[tuple(c) for _, c in post] for post in columns])
    assert parsed_bytes < 0.9 * (parsed_bytes - typed_bytes + boxed_bytes)


# -- the column reader and the template writer ---------------------------------


def outcome(read, value):
    """What ``read(value)`` gives: ("value", its result) or ("error", its type and message)."""
    try:
        return "value", read(value)
    except ValueError as exc:
        return "error", (type(exc), str(exc))


@pytest.mark.parametrize("signal", synth.SIGNAL_PLACEMENTS)
def test_column_reader_and_template_writer_match_the_references_on_synth(tmp_path, signal):
    records, _ = synth.generate(synth.SynthConfig(n_posts=60, signal=signal, seed=11))
    path, reference_path = tmp_path / "posts.jsonl", tmp_path / "reference.jsonl"
    assert ingest.write_dataset(records, path) == reference_write_dataset(records, reference_path) == 60
    assert path.read_bytes() == reference_path.read_bytes()
    parsed = list(ingest.parse_dataset(path))
    assert parsed == records
    lines = path.read_text(encoding="utf-8").splitlines()
    for record, line in zip(parsed, lines):
        assert record.snapshots == reference_snapshots_from_json_list(ingest.decode_json(line)["snapshots"])


SNAPSHOT = {"t_minutes": 5.0, "score": 3, "comments": 1, "crossposts": 0, "category": "new", "upvote_ratio": 0.5}


def series(*changes, n=3):
    """``n`` copies of :data:`SNAPSHOT` at times 0, 5, 10, ...; each change is
    (index, field, value), a value of ``...`` removing the field."""
    objects = [{**SNAPSHOT, "t_minutes": 5.0 * i} for i in range(n)]
    for i, name, value in changes:
        if value is ...:
            del objects[i][name]
        else:
            objects[i][name] = value
    return objects


HAND_MADE_SERIES = {
    "integer_times": series((0, "t_minutes", 0), (2, "t_minutes", 10)),
    "huge_integer_time": series((1, "t_minutes", 2**53 + 1)),
    "integral_float_counts": series((0, "score", 3.0), (1, "comments", -2.0), (2, "crossposts", 1e15)),
    "missing_ratio_and_category": series((0, "upvote_ratio", ...), (1, "category", ...), (2, "upvote_ratio", None)),
    "every_ratio_missing": series(*((i, "upvote_ratio", ...) for i in range(3))),
    "int_ratios_0_and_1": series((0, "upvote_ratio", 0), (2, "upvote_ratio", 1)),
    "ratio_bounds": series((0, "upvote_ratio", -0.0), (1, "upvote_ratio", 1.0), (2, "upvote_ratio", 5e-324)),
    "empty_list": [],
    "one_snapshot": series(n=1),
    "true_count": series((1, "score", True)),
    "false_count": series((2, "crossposts", False)),
    "count_2_63": series((1, "comments", 2**63)),
    "count_minus_2_63_minus_1": series((0, "crossposts", -(2**63) - 1)),
    "counts_of_64_bits": series((0, "score", 2**63 - 1), (1, "score", -(2**63))),
    "float_count_past_64_bits": series((2, "score", 1e300)),
    "infinite_float_count": series((1, "score", float("inf"))),
    "fractional_count": series((1, "comments", 12.5)),
    "count_past_the_float_range": series((1, "score", 10**400)),
    "null_count": series((1, "score", None)),
    "string_count": series((0, "score", "3")),
    "time_1e400": series((1, "t_minutes", float("inf"))),  # json reads 1e400 as inf
    "time_minus_1e400": series((2, "t_minutes", float("-inf"))),
    "nan_time": series((1, "t_minutes", float("nan"))),
    "time_past_the_float_range": series((1, "t_minutes", 10**400)),
    "missing_time": series((1, "t_minutes", ...)),
    "true_time": series((0, "t_minutes", True)),
    "string_time": series((2, "t_minutes", "5")),
    "times_whose_sum_overflows": series((1, "t_minutes", 1.7e308), (2, "t_minutes", 1.7e308)),
    "ratio_1_0000001": series((1, "upvote_ratio", 1.0000001)),
    "negative_ratio": series((2, "upvote_ratio", -0.25)),
    "nan_ratio": series((1, "upvote_ratio", float("nan"))),
    "infinite_ratio": series((0, "upvote_ratio", float("inf"))),
    "int_ratio_2": series((1, "upvote_ratio", 2)),
    "ratio_past_the_float_range": series((1, "upvote_ratio", 10**400)),
    "true_ratio": series((1, "upvote_ratio", True)),
    "string_ratio": series((1, "upvote_ratio", "0.5")),
    "unknown_category": series((1, "category", "weird")),
    "null_category": series((1, "category", None)),
    "int_category": series((2, "category", 3)),
    "non_object_snapshot": [*series(n=2), [1, 2]],
    "null_snapshot": [None, *series(n=1)],
    "first_error_in_snapshot_order": series((2, "t_minutes", float("inf")), (1, "score", 1.5)),
    "first_error_in_field_order": series((1, "category", 3), (1, "comments", "x"), (1, "upvote_ratio", 7.0)),
    "value_errors_before_the_count_range": series((0, "score", 2**63), (2, "upvote_ratio", 2.0)),
    "first_count_column_past_64_bits": series((2, "score", 2**63), (0, "comments", -(2**63) - 1)),
}


@pytest.mark.parametrize("objects", HAND_MADE_SERIES.values(), ids=HAND_MADE_SERIES.keys())
def test_the_column_reader_gives_the_reference_record_or_error(objects):
    got, expected = outcome(ingest.Snapshots.from_json_list, objects), outcome(reference_snapshots_from_json_list, objects)
    assert got == expected
    if got[0] == "value":  # the same value types too
        for name, code in ingest.COLUMN_TYPECODES.items():
            assert getattr(got[1], name).typecode == code
        assert [type(r) for r in got[1].upvote_ratio] == [type(r) for r in expected[1].upvote_ratio]


@pytest.mark.parametrize("value", [None, {}, "[]", 3], ids=["null", "object", "string", "number"])
def test_a_series_that_is_not_a_list_is_rejected_as_before(value):
    assert outcome(ingest.Snapshots.from_json_list, value) == outcome(reference_snapshots_from_json_list, value)


def test_a_bad_series_in_a_dataset_line_names_the_field(tmp_path):
    doc = make_record().to_json_dict()
    path = tmp_path / "d.jsonl"
    line = json.dumps({**doc, "snapshots": HAND_MADE_SERIES["first_error_in_snapshot_order"]})
    write_lines(path, [line.replace("Infinity", "1e400")])  # json reads 1e400 as inf
    with pytest.raises(DatasetError, match=r"^line 1: bad post record: score is not an integer \(1\.5\)$"):
        list(ingest.parse_dataset(path))


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
)
COUNTS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([0, 2**63 - 1, -(2**63 - 1), -(2**63)]))
RATIOS = st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 5e-324]))
CATEGORY_NAMES = st.one_of(st.sampled_from(ingest.CATEGORIES), st.text(max_size=4))


@st.composite
def snapshot_series(draw):
    n = draw(st.integers(0, 6))
    columns = [draw(st.lists(values, min_size=n, max_size=n)) for values in (FINITE_FLOATS, COUNTS, COUNTS, COUNTS, RATIOS, CATEGORY_NAMES)]
    return ingest.Snapshots(*columns)


@settings(max_examples=200, deadline=None)
@given(snaps=snapshot_series(), account_age_days=FINITE_FLOATS)
def test_write_then_parse_gives_the_record_and_the_reference_bytes(snaps, account_age_days):
    record = replace(make_record(account_age_days=account_age_days, static_features={"relatability_score": 0.5}), snapshots=snaps)
    with tempfile.TemporaryDirectory() as tmp:
        path, reference_path = Path(tmp) / "d.jsonl", Path(tmp) / "reference.jsonl"
        ingest.write_dataset([record], path)
        reference_write_dataset([record], reference_path)
        assert path.read_bytes() == reference_path.read_bytes()
        (parsed,) = ingest.parse_dataset(path)
    assert parsed == record
    # -0.0 == 0.0, so compare the signs as well
    assert [math.copysign(1.0, t) for t in parsed.snapshots.t_minutes] == [math.copysign(1.0, t) for t in snaps.t_minutes]


def test_writing_a_float_that_is_not_finite_names_the_post_and_the_field(tmp_path):
    # json reads 1e400 as inf; the dataset's writer must not write it as Infinity
    records, _ = synth.generate(synth.SynthConfig(n_posts=40, seed=3))
    path = tmp_path / "posts.jsonl"
    ingest.write_dataset(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    doc["static_features"]["primary_topic"] = "<inf>"
    lines[0] = json.dumps(doc).replace('"<inf>"', "1e400")
    write_lines(path, lines)
    parsed = list(ingest.parse_dataset(path))
    assert parsed[0].static_features["primary_topic"] == math.inf
    with pytest.raises(DatasetError, match=r"^post p000000: static_features\.primary_topic is not a finite number \(inf\)$"):
        ingest.write_dataset(parsed, tmp_path / "out.jsonl")


@pytest.mark.parametrize(
    "record, message",
    [
        (make_record(post_id="p7", account_age_days=math.inf), "author.account_age_days is not a finite number (inf)"),
        (make_record(post_id="p7", times=[0, math.nan, 10], scores=[0, 1, 2]), "snapshots[1].t_minutes is not a finite number (nan)"),
        (
            replace(make_record(post_id="p7"), snapshots=make_snapshots([0, 5], [0, 1], ratios=[0.5, -math.inf])),
            "snapshots[1].upvote_ratio is not a finite number (-inf)",
        ),
        (
            make_record(post_id="p7", static_features={"relatability_score": [1.0, {"x": math.nan}]}),
            "static_features.relatability_score[1].x is not a finite number (nan)",
        ),
    ],
    ids=["author", "time", "ratio", "nested_static"],
)
def test_no_line_is_written_with_a_float_json_cannot_hold(tmp_path, record, message):
    with pytest.raises(DatasetError) as caught:
        ingest.write_dataset([make_record(post_id="p6"), record], tmp_path / "d.jsonl")
    assert str(caught.value) == f"post p7: {message}"
    assert not (tmp_path / "d.jsonl").exists()


def test_a_failed_write_leaves_no_partial_file(tmp_path):
    def records():
        yield make_record(post_id="p6")
        raise KeyError("source gone")

    path = tmp_path / "d.jsonl"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(KeyError):
        ingest.write_dataset(records(), path)
    assert not path.exists()


@settings(max_examples=300, deadline=None)
@given(
    times=st.lists(st.one_of(st.floats(-50, 3000), st.sampled_from([0.0, -0.0, -1.0, 360.0, 1440.0, math.nan, math.inf, -math.inf])), max_size=8),
    comments=st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    crossposts=st.lists(st.integers(-2, 2), min_size=8, max_size=8),
)
def test_numpy_column_checks_report_what_the_loops_reported(times, comments, crossposts):
    n = len(times)
    record = replace(make_record(), snapshots=make_snapshots(times, [0] * n, comments[:n], crossposts[:n]))
    expected = ([] if n else ["no snapshots"]) + reference_series_violations(record.snapshots)
    assert ingest.validate_record(record).violations == expected
    assert ingest._drop_reason(record) == reference_drop_reason(record)
