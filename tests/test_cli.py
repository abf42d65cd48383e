import json

import numpy as np
import pytest

from viralearly import experiments, ingest, models
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
        [("nan", "bad post record: t_minutes is not finite ('nan')"), (float("nan"), "NaN is not a JSON number")],
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
        ],
    )
    def test_file_without_a_key_is_data_error(self, synth_dir, trained_flow, tmp_path, capsys, drop):
        lab, feats, trained = trained_flow
        kind, *keys = drop
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
