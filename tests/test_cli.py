import ast
import json
from pathlib import Path

import numpy as np
import pytest

from viralearly import cli, experiments, ingest, models
from viralearly.cli import main
from viralearly.labeling import LabelingArtifacts

from conftest import make_record


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "synth"
    code = main(["synth", "--n", "240", "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["validate"]) == 1

    def test_jobs_flag_is_usage_error(self, synth_dir, tmp_path):
        argv = ["sweep", "--data", str(synth_dir / "posts.jsonl"), "--out", str(tmp_path), "--jobs", "2"]
        assert main(argv) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["validate", "--data", str(tmp_path / "nope.jsonl")]) == 2

    def test_malformed_data_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"post_id": 1}\nnot json\n', encoding="utf-8")
        assert main(["validate", "--data", str(path)]) == 2

    def test_clean_data_validates_ok(self, synth_dir):
        assert main(["validate", "--data", str(synth_dir / "posts.jsonl")]) == 0

    def test_non_finite_static_feature_is_data_error(self, tmp_path, capsys):
        assert main(["synth", "--n", "300", "--signal", "mixed", "--seed", "3", "--out", str(tmp_path)]) == 0
        path = tmp_path / "posts.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            doc = json.loads(line)
            if doc["post_id"] == "p000005":
                doc["static_features"]["controversy_score"] = "inf"
                lines[i] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", "--data", str(path)]) == 2
        out = capsys.readouterr().out
        assert "p000005: static feature 'controversy_score' is not finite (inf)" in out
        assert "invalid_records=1 " in out

    @pytest.mark.parametrize(
        "value, message",
        [("nan", "bad post record: t_minutes is not a finite number ('nan')"), (float("nan"), "NaN is not a JSON number")],
        ids=["string", "token"],
    )
    def test_non_finite_time_is_data_error(self, synth_dir, tmp_path, capsys, value, message):
        lines = (synth_dir / "posts.jsonl").read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[5])
        assert doc["post_id"] == "p000005"
        doc["snapshots"][10]["t_minutes"] = value
        lines[5] = json.dumps(doc)
        path = tmp_path / "posts.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", "--data", str(path)]) == 2
        out = capsys.readouterr().out
        assert f"parse line 6: {message}" in out
        assert "malformed_lines=1 invalid_records=0" in out
        assert main(["label", "--data", str(path), "--out", str(tmp_path / "lab")]) == 2
        err = capsys.readouterr().err
        assert f"error: line 6: {message}" in err
        assert not (tmp_path / "lab" / "labels.csv").exists()

    @pytest.mark.parametrize("field", ["score", "comments", "crossposts", "subscribers", "total_karma"])
    def test_count_too_large_for_a_float_is_data_error(self, synth_dir, tmp_path, capsys, field):
        lines = (synth_dir / "posts.jsonl").read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[5])
        assert doc["post_id"] == "p000005"
        owner = {"subscribers": doc["subreddit"], "total_karma": doc["author"]}.get(field, doc["snapshots"][-1])
        owner[field] = 10**400
        lines[5] = json.dumps(doc)
        path = tmp_path / "posts.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        message = f"line 6: bad post record: {field} is too large for a float"
        assert main(["validate", "--data", str(path)]) == 2
        assert f"parse {message}" in capsys.readouterr().out
        assert main(["label", "--data", str(path), "--out", str(tmp_path / "lab")]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("snapshots", -1, "score"), 12.9, "score is not an integer (12.9)"),
            (("snapshots", -1, "score"), "12", "score is not an integer ('12')"),
            (("snapshots", -1, "score"), True, "score is not an integer (True)"),
            (("removed",), "false", "removed is not true or false"),
            (("snapshots",), {"0": {"t_minutes": 0.0}}, "snapshots is not a list"),
            (("snapshots", 3), None, "snapshot is not an object"),
            (("snapshots", 3, "upvote_ratio"), 1.5, "upvote_ratio is not in [0, 1] (1.5)"),
        ],
        ids=["fraction", "string", "bool", "string_flag", "object_snapshots", "null_snapshot", "ratio_above_1"],
    )
    def test_value_of_the_wrong_type_is_a_malformed_line(self, synth_dir, tmp_path, capsys, keys, value, message):
        # each was read as another value (12, 12, 1, a removed post), crashed
        # validate with an AttributeError, or (the ratio) passed the parse
        path = tmp_path / "posts.jsonl"
        write_edited(synth_dir / "posts.jsonl", path, keys, value, line=5)
        capsys.readouterr()
        assert main(["validate", "--data", str(path)]) == 2
        out = capsys.readouterr().out
        assert f"parse line 6: bad post record: {message}" in out
        assert "records=239 malformed_lines=1 invalid_records=0" in out
        assert main(["label", "--data", str(path), "--out", str(tmp_path / "lab")]) == 2
        err = capsys.readouterr().err
        assert f"error: line 6: bad post record: {message}" in err
        assert "Traceback" not in err

    def test_zero_subscribers_is_data_error(self, synth_dir, tmp_path, capsys):
        # was a ZeroDivisionError in the caps fit
        path = tmp_path / "posts.jsonl"
        write_edited(synth_dir / "posts.jsonl", path, ("subreddit", "subscribers"), 0, line=5)
        capsys.readouterr()
        assert main(["label", "--data", str(path), "--out", str(tmp_path / "lab")]) == 2
        err = capsys.readouterr().err
        assert "error: post p000005: subscribers must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, keys, text, message",
        [
            # a NaN cap blanked every normalized score column and exited 0
            ("features", ("caps", "score"), "NaN", " is not valid JSON: NaN is not a JSON number"),
            ("sweep", ("hybrid_weights", "source_windows"), "5", ": 'source_windows' is not a list"),
            ("sweep", ("threshold", "tau"), "null", ": 'tau' is not a finite number (None)"),
            ("sweep", ("caps", "comments"), '"0.5"', ": 'comments' is not a finite number ('0.5')"),
        ],
        ids=["nan_cap", "int_source_windows", "null_tau", "string_cap"],
    )
    def test_bad_labeling_value_is_data_error(self, synth_dir, trained_flow, tmp_path, capsys, command, keys, text, message):
        broken = tmp_path / "labeling.json"
        write_edited(trained_flow[0] / "labeling.json", broken, keys, text, raw=True)
        argv = [command, "--data", str(synth_dir / "posts.jsonl"), "--artifacts", str(broken), "--out", str(tmp_path / "o")]
        argv += ["--window", "120"] if command == "features" else ["--windows", "120", "--models", "gbt", "--no-cv"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: labeling file {broken}{message}" in err
        assert "Traceback" not in err

    def test_looping_tree_is_data_error(self, trained_flow, tmp_path, capsys):
        # a child index pointing back at its own node made evaluate hang
        lab, feats, trained = trained_flow
        broken = tmp_path / "model.json"
        tree = {"feature": [0], "value": [0.5], "left": [0], "right": [0], "leaf_value": [0.1]}
        write_edited(trained / "model.json", broken, ("payload", "trees", 0), tree)
        capsys.readouterr()
        assert main(evaluate_argv(feats, trained, lab / "labels.csv", tmp_path / "e", model=broken)) == 2
        err = capsys.readouterr().err
        assert f"error: model file {broken}: tree node 0 splits on 0 with children 0 and 0" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            # was a StopIteration traceback (exit 1)
            (lambda lines: [], "does not match its manifest"),
            # inf in every cell passed evaluate with exit 0 and a pr_auc of 0.067
            (lambda lines: [lines[0]] + [_set_cell(line, lines[0], "temporal__peak_velocity", "inf") for line in lines[1:]],
             "row 1, column 'temporal__peak_velocity': 'inf' is not a finite number"),
            (lambda lines: lines[:3] + [_set_cell(lines[3], lines[0], "temporal__peak_velocity", "fast")] + lines[4:],
             "row 3, column 'temporal__peak_velocity': 'fast' is not a finite number"),
            # an extra cell was dropped without a word
            (lambda lines: lines[:2] + [lines[2] + ",0.5"] + lines[3:], "row 2 has"),
        ],
        ids=["empty", "inf", "text", "extra_cell"],
    )
    def test_bad_values_file_is_data_error(self, trained_flow, tmp_path, capsys, edit, message):
        lab, feats, trained = trained_flow
        matrix = tmp_path / "features_120.csv"
        (tmp_path / "features_120.manifest.json").write_bytes((feats / "features_120.manifest.json").read_bytes())
        lines = edit((feats / "features_120.csv").read_text(encoding="utf-8").splitlines())
        matrix.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        capsys.readouterr()
        assert main(evaluate_argv(feats, trained, lab / "labels.csv", tmp_path / "e", matrix=matrix)) == 2
        err = capsys.readouterr().err
        assert f"error: values file {matrix}" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            # a std of 0 was divided by: exit 0 and a pr_auc of 0.068
            (("numeric", "contextual__controversy_score", "std"), 0.0, "the 'std' of 'contextual__controversy_score' is not positive (0.0)"),
            (("numeric", "contextual__controversy_score", "std"), -1.0, "the 'std' of 'contextual__controversy_score' is not positive (-1.0)"),
            # the other three were KeyError tracebacks (exit 1)
            (("numeric", "contextual__controversy_score"), None, "lacks the key 'contextual__controversy_score'"),
            (("vocab", "contextual__controversy_type"), None, "lacks the key 'contextual__controversy_type'"),
            (("vocab", "contextual__controversy_type"), ["a", "b"], "the vocab of 'contextual__controversy_type' lacks 'missing'"),
        ],
        ids=["zero_std", "negative_std", "no_stats", "no_vocab", "no_missing_token"],
    )
    def test_bad_preprocess_value_is_data_error(self, trained_flow, tmp_path, capsys, keys, value, message):
        lab, feats, trained = trained_flow
        doc = json.loads((trained / "preprocess.json").read_text(encoding="utf-8"))
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value is None:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        broken = tmp_path / "preprocess.json"
        broken.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(evaluate_argv(feats, trained, lab / "labels.csv", tmp_path / "e", preprocess=broken)) == 2
        err = capsys.readouterr().err
        assert f"error: preprocess file {broken}" in err and message in err
        assert "Traceback" not in err


def _set_cell(line, header, column, value):
    """The CSV ``line`` with its cell under ``column`` of ``header`` set to ``value``."""
    cells = line.split(",")
    cells[header.split(",").index(column)] = value
    return ",".join(cells)


def write_edited(source, path, keys, value, raw=False, line=0):
    """``source`` written to ``path`` with the value at ``keys`` of its JSON
    document on ``line`` (0-based) replaced by ``value``, JSON text itself
    when ``raw``. Line 5 of the synth dataset is post p000005."""
    lines = source.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[line])
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = "<value>" if raw else value
    lines[line] = json.dumps(doc).replace('"<value>"', value) if raw else json.dumps(doc)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSynthCommand:
    def test_outputs_written(self, synth_dir):
        assert (synth_dir / "posts.jsonl").exists()
        assert (synth_dir / "planted_labels.csv").exists()
        manifest = json.loads((synth_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["params"]["seed"] == 7

    def test_planted_labels_align(self, synth_dir):
        rows = experiments.read_csv(synth_dir / "planted_labels.csv")
        records = list(ingest.parse_dataset(synth_dir / "posts.jsonl"))
        assert [r["post_id"] for r in rows] == [r.post_id for r in records]


class TestLabelAndSweep:
    def test_label_then_sweep_compose(self, synth_dir, tmp_path):
        lab = tmp_path / "lab"
        assert main(["label", "--data", str(synth_dir / "posts.jsonl"), "--out", str(lab)]) == 0
        assert (lab / "labeling.json").exists()
        labels = experiments.read_csv(lab / "labels.csv")
        assert {"post_id", "hybrid_score", "label", "split"} <= set(labels[0])

        end_to_end = tmp_path / "sweep_a"
        via_artifacts = tmp_path / "sweep_b"
        base = [
            "sweep", "--data", str(synth_dir / "posts.jsonl"),
            "--windows", "30,120", "--models", "gbt", "--no-cv", "--seed", "42",
        ]
        assert main(base + ["--out", str(end_to_end)]) == 0
        assert main(base + ["--out", str(via_artifacts), "--artifacts", str(lab / "labeling.json")]) == 0

        manifest = json.loads((via_artifacts / "window_sweep_manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["params"]["data"] == str(synth_dir / "posts.jsonl")
        assert manifest["params"]["artifacts"] == str(lab / "labeling.json")
        assert manifest["dataset_fingerprint"].startswith("240:")
        assert sorted(p.name for p in via_artifacts.glob("*.json")) == ["window_sweep_manifest.json"]

        rows_a = experiments.read_csv(end_to_end / "window_sweep.csv")
        rows_b = experiments.read_csv(via_artifacts / "window_sweep.csv")
        assert len(rows_a) == 2
        for a, b in zip(rows_a, rows_b):
            assert a["window"] == b["window"]
            assert a["pr_auc"] == b["pr_auc"]
            assert a["roc_auc"] == b["roc_auc"]
            assert a["f1"] == b["f1"]

    def test_label_writes_the_scores_it_labeled_with(self, synth_dir, tmp_path):
        lab = tmp_path / "lab"
        assert main(["label", "--data", str(synth_dir / "posts.jsonl"), "--out", str(lab)]) == 0
        # rescored with the in-memory artifacts
        records = list(ingest.parse_dataset(synth_dir / "posts.jsonl"))
        data = experiments.prepare(records, forest_config=models.default_config("random_forest", seed=42))
        rows = experiments.read_csv(lab / "labels.csv")
        recs = data.train_records + data.test_records
        scores, labels = data.artifacts.label_records(recs)
        assert [r["post_id"] for r in rows] == [r.post_id for r in recs]
        assert [float(r["hybrid_score"]) for r in rows] == scores.tolist()
        assert [int(r["label"]) for r in rows] == labels.tolist()

    def test_reloaded_artifacts_rescore_identically(self, synth_dir, tmp_path):
        lab = tmp_path / "lab"
        assert main(["label", "--data", str(synth_dir / "posts.jsonl"), "--out", str(lab)]) == 0
        records = list(ingest.parse_dataset(synth_dir / "posts.jsonl"))
        data = experiments.prepare(records, artifacts=LabelingArtifacts.load(lab / "labeling.json"))
        rows = experiments.read_csv(lab / "labels.csv")
        scores = np.concatenate([data.scores_train, data.scores_test])
        assert [r["hybrid_score"] for r in rows] == [str(float(s)) for s in scores]

    def test_each_study_writes_one_manifest(self, synth_dir, tmp_path):
        data = str(synth_dir / "posts.jsonl")
        runs = {
            "ablate": (["--window", "30"], "ablation_manifest.json"),
            "importance": (["--windows", "30", "--top-k", "5"], "importance_over_time_manifest.json"),
        }
        for command, (flags, name) in runs.items():
            out = tmp_path / command
            assert main([command, "--data", data, "--out", str(out), "--seed", "4"] + flags) == 0
            assert sorted(p.name for p in out.glob("*.json")) == [name]
            manifest = json.loads((out / name).read_text())
            assert manifest["command"] == command
            assert manifest["params"]["data"] == data
            assert manifest["params"]["seed"] == manifest["seed"] == 4

    def test_sweep_row_count(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--data", str(synth_dir / "posts.jsonl"), "--windows", "30,120",
             "--models", "gbt", "--no-cv", "--out", str(out)]
        )
        assert code == 0
        rows = experiments.read_csv(out / "window_sweep.csv")
        assert len(rows) == 2
        assert [r["window"] for r in rows] == ["30.0", "120.0"]


@pytest.fixture(scope="module")
def trained_flow(synth_dir, tmp_path_factory):
    """label -> features (120 min) -> train gbt; returns the run directories."""
    root = tmp_path_factory.mktemp("flow")
    lab, feats, trained = root / "lab", root / "feats", root / "model"
    assert main(["label", "--data", str(synth_dir / "posts.jsonl"), "--out", str(lab)]) == 0
    assert main(
        ["features", "--data", str(synth_dir / "posts.jsonl"),
         "--artifacts", str(lab / "labeling.json"), "--window", "120", "--out", str(feats)]
    ) == 0
    assert main(
        ["train", "--matrix", str(feats / "features_120.csv"),
         "--labels", str(lab / "labels.csv"), "--model", "gbt", "--out", str(trained)]
    ) == 0
    return lab, feats, trained


class FakeResponse:
    """What ``urlopen`` returns for a JSON body."""

    def __init__(self, doc):
        self.body = json.dumps(doc).encode()

    def read(self):
        return self.body

    def __enter__(self):
        return self

    def __exit__(self, *args):
        return False


def evaluate_argv(feats, trained, labels, out, model=None, preprocess=None, matrix=None):
    return [
        "evaluate", "--model", str(model or trained / "model.json"),
        "--preprocess", str(preprocess or trained / "preprocess.json"),
        "--matrix", str(matrix or feats / "features_120.csv"),
        "--labels", str(labels), "--out", str(out),
    ]


class TestFeatureTrainEvaluate:
    def test_full_flow(self, trained_flow, tmp_path):
        lab, feats, trained = trained_flow
        assert (feats / "features_120.csv").exists()
        assert (feats / "features_120.manifest.json").exists()
        assert (trained / "model.json").exists()
        assert (trained / "preprocess.json").exists()

        evald = tmp_path / "eval"
        assert main(evaluate_argv(feats, trained, lab / "labels.csv", evald)) == 0
        metrics = json.loads((evald / "metrics.json").read_text())
        assert 0.0 <= metrics["pr_auc"] <= 1.0

    @pytest.mark.parametrize("defect", ["missing_row", "text_label", "empty_label", "no_label_column"])
    def test_bad_labels_are_data_errors(self, trained_flow, tmp_path, defect, capsys):
        lab, feats, trained = trained_flow
        lines = (lab / "labels.csv").read_text(encoding="utf-8").splitlines()
        header, rows = lines[0], lines[1:]
        label_at = header.split(",").index("label")

        def with_label(line, value):
            cells = line.split(",")
            cells[label_at] = value
            return ",".join(cells)

        if defect == "missing_row":
            rows = rows[1:]
        elif defect == "text_label":
            rows[3] = with_label(rows[3], "viral")
        elif defect == "empty_label":
            rows[3] = with_label(rows[3], "")
        else:
            header = header.replace("label", "verdict")
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")

        train_argv = ["train", "--matrix", str(feats / "features_120.csv"), "--labels", str(labels), "--out", str(tmp_path / "m")]
        assert main(train_argv) == 2
        assert main(evaluate_argv(feats, trained, labels, tmp_path / "e")) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_version_1_model_is_data_error(self, trained_flow, tmp_path, capsys):
        lab, feats, trained = trained_flow
        doc = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        doc["format_version"] = 1
        old = tmp_path / "model_v1.json"
        old.write_text(json.dumps(doc), encoding="utf-8")
        assert main(evaluate_argv(feats, trained, lab / "labels.csv", tmp_path / "e", model=old)) == 2
        assert "unsupported model file version 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "drop",
        [
            ("model", "payload"),
            ("model", "payload", "trees"),
            ("labeling", "threshold"),
            ("preprocess", "numeric"),
            ("manifest", "columns"),
            # None: the whole document is the list [1, 2]
            ("model", None),
            ("labeling", None),
            ("manifest", None),
            # a last item that is not a key: the value the key gets instead
            ("labeling", "caps", []),
            ("labeling", "hybrid_weights", 1),
            ("labeling", "hybrid_weights", "weights", []),
            ("labeling", "threshold", 0.5),
            ("labeling", "threshold", "centroids", [0.5]),
            ("labeling", "threshold", "centroids", {"low": 0.1, "high": 0.9}),
        ],
    )
    def test_file_without_a_key_is_data_error(self, synth_dir, trained_flow, tmp_path, capsys, drop):
        lab, feats, trained = trained_flow
        kind, *keys = drop
        replaced = len(keys) > 1 and not isinstance(keys[-1], str)
        if replaced:
            *keys, value = keys
        source = {
            "model": trained / "model.json",
            "labeling": lab / "labeling.json",
            "preprocess": trained / "preprocess.json",
            "manifest": feats / "features_120.manifest.json",
        }[kind]
        if keys == [None]:
            doc = [1, 2]
        else:
            doc = json.loads(source.read_text(encoding="utf-8"))
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            if replaced:
                parent[keys[-1]] = value
            else:
                del parent[keys[-1]]
        broken = tmp_path / source.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        if kind == "labeling":
            argv = ["sweep", "--data", str(synth_dir / "posts.jsonl"), "--artifacts", str(broken),
                    "--windows", "120", "--models", "gbt", "--no-cv", "--out", str(tmp_path / "s")]
        elif kind == "manifest":
            matrix = tmp_path / "features_120.csv"
            matrix.write_bytes((feats / "features_120.csv").read_bytes())
            argv = evaluate_argv(feats, trained, lab / "labels.csv", tmp_path / "e", matrix=matrix)
        else:
            argv = evaluate_argv(feats, trained, lab / "labels.csv", tmp_path / "e", **{kind: broken})
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        if replaced:
            kind_of = "a list of length 2" if keys[-1] == "centroids" else "an object"
            assert f"{broken}: {keys[-1]!r} is not {kind_of}" in err
        else:
            expected = "does not hold a JSON object" if keys == [None] else f"lacks the key {keys[-1]!r}"
            assert f"{broken} {expected}" in err
        assert "Traceback" not in err


class TestCollectCommand:
    def test_replay_collection(self, tmp_path):
        data = tmp_path / "replay.jsonl"
        ingest.write_dataset(
            [make_record(post_id=f"p{i}", times=[0, 5, 10], scores=[1, 2, 3]) for i in range(2)],
            data,
        )
        out = tmp_path / "collected"
        code = main(["collect", "--replay", str(data), "--until", "10", "--out", str(out)])
        assert code == 0
        lines = (out / "tracked.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["reason"] == "completed"
        assert len(first["snapshots"]) == 3
        outcome = json.loads((out / "run_manifest.json").read_text())["outcome"]
        assert outcome == {
            "polls": 6, "retries": 0, "skipped_polls": 0, "rate_limit_wait_minutes": 0.0, "reasons": {"completed": 2}
        }

    def test_http_collection_writes_each_post_when_it_finishes(self, tmp_path, monkeypatch):
        def fake_urlopen(request, timeout):
            if request.full_url.endswith("/b"):
                raise RuntimeError("transport crashed")
            return FakeResponse({"score": 7, "comments": 2, "crossposts": 0, "category": "new"})

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        out = tmp_path / "collected"
        argv = ["collect", "--base-url", "https://api.example/posts", "--post-ids", "a,b", "--until", "0", "--out", str(out)]
        with pytest.raises(RuntimeError):
            main(argv)
        lines = (out / "tracked.jsonl").read_text().splitlines()
        assert [json.loads(line)["post_id"] for line in lines] == ["a"]
        assert json.loads(lines[0])["snapshots"][0]["score"] == 7

    def test_manifest_counts_what_polling_took(self, tmp_path, monkeypatch):
        import urllib.error

        from viralearly import collector

        calls = {}

        def fake_urlopen(request, timeout):
            post = request.full_url.rsplit("/", 1)[1]
            calls[post] = n = calls.get(post, 0) + 1
            failure = {
                ("a", 1): (500, {}),  # retried once, then every poll answers
                ("b", 1): (429, {"Retry-After": "120"}),  # a 2-minute wait, then an answer
                ("b", 3): (404, {}),  # gone at its second poll
            }.get((post, n), (500, {}) if post == "c" else None)  # c never answers
            if failure:
                raise urllib.error.HTTPError(request.full_url, failure[0], "scripted", failure[1], None)
            return FakeResponse({"score": n, "comments": 0, "crossposts": 0, "category": "new"})

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        monkeypatch.setattr(collector, "SystemClock", collector.SimulatedClock)
        out = tmp_path / "collected"
        argv = ["collect", "--base-url", "https://api.example/posts", "--post-ids", "a,b,c", "--until", "10", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        # a: 3 polls, 1 retry; b: 2 polls, 1 retry; c: 3 polls, 3 retries each, all skipped
        assert manifest["outcome"] == {
            "polls": 8,
            "retries": 11,
            "skipped_polls": 3,
            "rate_limit_wait_minutes": 2.0,
            "reasons": {"completed": 1, "unavailable": 1, "unreachable": 1},
        }
        lines = [json.loads(line) for line in (out / "tracked.jsonl").read_text().splitlines()]
        assert [(d["post_id"], d["reason"], len(d["snapshots"])) for d in lines] == [
            ("a", "completed", 3), ("b", "unavailable", 1), ("c", "unreachable", 0)
        ]

    def test_needs_exactly_one_source(self, tmp_path):
        assert main(["collect", "--out", str(tmp_path / "x")]) == 1

    def test_replay_file_with_times_out_of_order_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "replay.jsonl"
        ingest.write_dataset(
            [make_record(post_id="p0"), make_record(post_id="p1", times=[0, 10, 5, 20], scores=[1, 2, 3, 4])], data
        )
        out = tmp_path / "collected"
        assert main(["collect", "--replay", str(data), "--until", "30", "--out", str(out)]) == 2
        assert f"{data}: post p1: non-increasing time at index 2" in capsys.readouterr().err
        assert not (out / "tracked.jsonl").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[synth]\nn = 60\nseed = 3\n", encoding="utf-8")
        out = tmp_path / "from-config"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        records = list(ingest.parse_dataset(out / "posts.jsonl"))
        assert len(records) == 60

        out2 = tmp_path / "flag-wins"
        assert main(["synth", "--config", str(cfg), "--n", "80", "--out", str(out2)]) == 0
        assert len(list(ingest.parse_dataset(out2 / "posts.jsonl"))) == 80

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "command, argv, line, flag, observe, from_config, from_flag",
        [
            ("synth", lambda d: ["--n", "60"], "signal = mixed", ["--signal", "network"],
             lambda out: _params(out)["signal"], "mixed", "network"),
            ("collect", lambda d: ["--replay", str(d["posts"]), "--post-ids", "p000000"], "until = 5", ["--until", "10"],
             lambda out: _params(out)["until"], 5.0, 10.0),
            ("label", lambda d: ["--data", str(d["posts"])], "train_frac = 0.5", ["--train-frac", "0.75"],
             lambda out: _params(out)["n_train"], 120, 180),
            ("features", lambda d: ["--data", str(d["posts"]), "--artifacts", str(d["lab"] / "labeling.json")],
             "window = 60", ["--window", "30"], lambda out: _params(out)["window"], 60.0, 30.0),
            ("train", lambda d: ["--matrix", str(d["feats"] / "features_120.csv"), "--labels", str(d["lab"] / "labels.csv")],
             "model = logreg", ["--model", "gbt"], lambda out: _params(out)["model"], "logreg", "gbt"),
            ("evaluate", lambda d: evaluate_argv(d["feats"], d["trained"], d["lab"] / "labels.csv", "-")[1:-2], "", [],
             lambda out: (out / "metrics.json").exists(), True, True),
            ("sweep", lambda d: ["--data", str(d["posts"]), "--windows", "120", "--no-cv"], "models = logreg",
             ["--models", "gbt"], lambda out: _params(out, "window_sweep")["models"], ["logreg"], ["gbt"]),
            ("sweep", lambda d: ["--data", str(d["posts"]), "--windows", "120", "--models", "gbt", "--no-cv"],
             "train_frac = 0.5", ["--train-frac", "0.75"], lambda out: _manifest(out, "window_sweep")["n_train"], 120, 180),
            ("sweep", lambda d: ["--data", str(d["posts"]), "--windows", "120", "--models", "gbt"], "cv = on",
             ["--no-cv"], lambda out: _manifest(out, "window_sweep")["with_cv"], True, False),
            ("ablate", lambda d: ["--data", str(d["posts"])], "window = 60", ["--window", "30"],
             lambda out: _params(out, "ablation")["window"], 60.0, 30.0),
            ("importance", lambda d: ["--data", str(d["posts"]), "--windows", "120"], "top_k = 3", ["--top-k", "5"],
             lambda out: _params(out, "importance_over_time")["top_k"], 3, 5),
        ],
        ids=["synth", "collect", "label", "features", "train", "evaluate", "sweep", "sweep-train_frac", "sweep-cv",
             "ablate", "importance"],
    )
    def test_config_key_reaches_the_run_and_its_flag_wins(
        self, synth_dir, trained_flow, tmp_path, command, argv, line, flag, observe, from_config, from_flag
    ):
        lab, feats, trained = trained_flow
        paths = {"posts": synth_dir / "posts.jsonl", "lab": lab, "feats": feats, "trained": trained}
        from_file, from_flags = tmp_path / "from-config", tmp_path / "from-flag"
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\n{line}\nout = {from_file}\n", encoding="utf-8")
        base = [command, "--config", str(cfg)] + argv(paths)
        assert main(base) == 0
        assert observe(from_file) == from_config
        assert main(base + flag + ["--out", str(from_flags)]) == 0
        assert observe(from_flags) == from_flag

    @pytest.mark.parametrize("value", ["False", "no", "0"])
    def test_cv_off_in_the_config_skips_cross_validation(self, synth_dir, tmp_path, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[sweep]\ncv = {value}\n", encoding="utf-8")
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--data", str(synth_dir / "posts.jsonl"), "--windows", "120", "--models", "gbt"]
        assert main(argv + ["--out", str(out)]) == 0
        header = (out / "window_sweep.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
        assert [c for c in header if c.startswith("cv_")] == []
        assert _manifest(out, "window_sweep")["with_cv"] is False

    def test_keys_that_name_no_setting_are_ignored(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[sweep]\njobs = 4\nno_cv = true\nartifacts = {tmp_path / 'missing.json'}\nhandler = x\ncommand = x\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--data", str(synth_dir / "posts.jsonl"), "--windows", "120", "--models", "gbt"]
        assert main(argv + ["--out", str(out)]) == 0
        manifest = _manifest(out, "window_sweep")
        assert manifest["with_cv"] is True
        assert manifest["params"]["artifacts"] is None

    @pytest.mark.parametrize(
        "command, flags, section",
        [
            ("sweep", ["--windows", "30,abc"], ""),
            ("label", ["--weight-windows", "30,abc"], ""),
            ("sweep", [], "windows = 30,abc"),
            ("label", [], "weight_windows = 30,abc"),
            ("sweep", [], "cv = maybe"),
            ("sweep", [], "folds = five"),
        ],
        ids=["flag-windows", "flag-weight_windows", "config-windows", "config-weight_windows", "config-cv", "config-folds"],
    )
    def test_bad_value_from_flag_or_config_is_usage_error(self, synth_dir, tmp_path, command, flags, section):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\n{section}\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), "--data", str(synth_dir / "posts.jsonl"), "--out", str(tmp_path / "o")]
        assert main(argv + flags) == 1

    @pytest.mark.parametrize("contents", ["windows = 30\n", None], ids=["not-ini", "a-directory"])
    def test_config_that_cannot_be_read_is_usage_error(self, tmp_path, contents):
        cfg = tmp_path / "run.ini"
        if contents is None:
            cfg.mkdir()
        else:
            cfg.write_text(contents, encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--n", "20", "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()


def _manifest(out, study=None):
    return json.loads((out / (f"{study}_manifest.json" if study else "run_manifest.json")).read_text(encoding="utf-8"))


def _params(out, study=None):
    return _manifest(out, study)["params"]


def test_only_the_config_loader_reads_configparser():
    # a setting reaches a handler through argparse only, never from the config object
    package = Path(cli.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            imported = isinstance(node, ast.Import) and any(a.name == "configparser" for a in node.names)
            if imported or (isinstance(node, ast.ImportFrom) and node.module == "configparser"):
                found.append(f"{path.name}: import")
            elif isinstance(node, ast.Name) and node.id == "configparser":
                owner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{path.name}: {owner[-1] if owner else 'module level'}")
    assert sorted(set(found)) == ["cli.py: _config_defaults", "cli.py: import"]
