import json

import numpy as np
import pytest

from viralearly import synth
from viralearly.errors import ConfigError
from viralearly.experiments import (
    importance_over_time,
    prepare,
    run_ablation,
    run_window_sweep,
)
from viralearly.features import MODALITY_CATALOG

from conftest import make_record
from oracles import reference_window_sweep


def without_duration(rows):
    return [{k: v for k, v in row.items() if k != "duration_seconds"} for row in rows]


@pytest.fixture(scope="module")
def corpus():
    records, planted = synth.generate(synth.SynthConfig(n_posts=500, viral_frac=0.06, seed=13))
    return records


@pytest.fixture(scope="module")
def data(corpus):
    return prepare(corpus)


class TestWindowSweep:
    def test_single_cell_row_fully_populated(self, corpus, data, tmp_path):
        rows = run_window_sweep(
            corpus, windows=(60.0,), model_kinds=("gbt",), k_folds=3, seed=1,
            out_dir=tmp_path, data=data,
        )
        assert len(rows) == 1
        row = rows[0]
        for key in ("window", "model", "pr_auc", "roc_auc", "f1", "duration_seconds",
                    "cv_pr_auc", "cv_pr_auc_std"):
            assert row[key] is not None
        assert row["window"] == 60.0
        assert row["model"] == "gbt"
        assert 0.0 <= row["pr_auc"] <= 1.0
        assert (tmp_path / "window_sweep.csv").exists()
        manifest = json.loads((tmp_path / "window_sweep_manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["n_train"] == data.n_train
        assert "labeling_artifacts_sha256" in manifest

    def test_seeded_repeat_gives_identical_rows(self, corpus, data):
        kwargs = dict(windows=(30.0, 60.0), model_kinds=("logreg", "gbt"), k_folds=3, seed=3, data=data)
        first = run_window_sweep(corpus, **kwargs)
        second = run_window_sweep(corpus, **kwargs)
        assert without_duration(first) == without_duration(second)

    def test_matches_per_cell_reference(self, corpus, data):
        # shared per-window preprocessing and folds must reproduce the
        # per-cell path exactly: same keys, same order, same floats
        windows, kinds = (120.0, 30.0), ("logreg", "gbt", "mlp")
        rows = run_window_sweep(corpus, windows=windows, model_kinds=kinds, k_folds=3, seed=5, data=data)
        reference = reference_window_sweep(data, windows, kinds, seed=5, k_folds=3)
        assert [list(r) for r in rows] == [list(r) for r in reference]
        assert without_duration(rows) == without_duration(reference)

        baseline = run_ablation(corpus, window=120.0, modalities=(), seed=5, data=data)
        gbt_cell = next(r for r in reference if r["window"] == 120.0 and r["model"] == "gbt")
        assert baseline == [
            {"scenario": "baseline", "window": 120.0, "pr_auc": gbt_cell["pr_auc"], "roc_auc": gbt_cell["roc_auc"]}
        ]

    def test_rows_ordered_by_window_then_model(self, corpus, data):
        rows = run_window_sweep(
            corpus, windows=(60.0, 30.0), model_kinds=("logreg", "gbt"), with_cv=False, seed=3, data=data
        )
        assert [(r["window"], r["model"]) for r in rows] == [
            (30.0, "logreg"), (30.0, "gbt"), (60.0, "logreg"), (60.0, "gbt"),
        ]

    def test_csv_leads_with_report_layout(self, corpus, data, tmp_path):
        run_window_sweep(
            corpus, windows=(30.0,), model_kinds=("logreg",), k_folds=3, seed=1,
            out_dir=tmp_path, data=data,
        )
        header = (tmp_path / "window_sweep.csv").read_text().splitlines()[0]
        assert header.split(",")[:6] == [
            "window", "model", "pr_auc", "roc_auc", "f1", "duration_seconds",
        ]


class TestAblation:
    def test_baseline_matches_sweep_gbt_cell(self, corpus, data):
        sweep = run_window_sweep(
            corpus, windows=(120.0,), model_kinds=("gbt",), with_cv=False, seed=42, data=data
        )
        ablation = run_ablation(corpus, window=120.0, seed=42, data=data)
        baseline = next(r for r in ablation if r["scenario"] == "baseline")
        assert baseline["pr_auc"] == sweep[0]["pr_auc"]
        assert baseline["roc_auc"] == sweep[0]["roc_auc"]

    def test_all_scenarios_present(self, corpus, data, tmp_path):
        rows = run_ablation(corpus, window=120.0, seed=1, out_dir=tmp_path, data=data)
        names = [r["scenario"] for r in rows]
        assert names[0] == "baseline"
        assert set(names[1:]) == {f"exclude_{m}" for m in MODALITY_CATALOG}
        assert (tmp_path / "ablation_120.csv").exists()

    def test_unknown_modality_rejected(self, corpus, data):
        with pytest.raises(ConfigError, match="audio"):
            run_ablation(corpus, window=120.0, modalities=("audio",), data=data)

    def test_informationless_modality_equals_baseline(self):
        # no static blobs: visual columns exist but are all-missing, so
        # excluding them must not change the model at all
        times = list(range(0, 1501, 60))
        rng = np.random.default_rng(0)
        records = []
        for i in range(80):
            hot = i % 10 == 0
            level = 400 if hot else int(rng.integers(1, 30))
            records.append(
                make_record(
                    post_id=f"p{i:03d}",
                    times=times,
                    scores=[int(level * t / times[-1]) for t in times],
                    created_minutes=float(i),
                    static_features=None,
                )
            )
        rows = run_ablation(records, window=120.0, seed=2, modalities=("visual",))
        baseline = rows[0]["pr_auc"]
        excluded = rows[1]["pr_auc"]
        assert abs(baseline - excluded) < 1e-12


class TestImportanceOverTime:
    def test_counts_partition_top_k(self, corpus, data, tmp_path):
        counts, details = importance_over_time(
            corpus, windows=(30.0, 120.0), top_k=30, seed=1, out_dir=tmp_path, data=data
        )
        for window in (30.0, 120.0):
            at_w = [c for c in counts if c["window"] == window]
            n_parents = len({d["feature"] for d in details if d["window"] == window})
            assert sum(c["count"] for c in at_w) == min(30, n_parents)
        assert (tmp_path / "modality_importance.csv").exists()
        assert (tmp_path / "importance_features.csv").exists()

    def test_one_hot_importance_aggregates_to_parent(self, corpus, data):
        _, details = importance_over_time(corpus, windows=(120.0,), top_k=10, seed=1, data=data)
        names = {d["feature"] for d in details}
        # parents are original matrix columns, never one-hot expansions
        assert not any("=" in name for name in names)

    def test_small_top_k(self, corpus, data):
        counts, _ = importance_over_time(corpus, windows=(60.0,), top_k=3, seed=1, data=data)
        assert sum(c["count"] for c in counts) == 3


class TestPrepare:
    def test_split_sizes(self, corpus, data):
        assert data.n_train + data.n_test == len(corpus)
        assert data.n_train == int(np.ceil(0.8 * len(corpus)))

    def test_labels_are_binary_and_imbalanced(self, data):
        assert set(np.unique(data.y_train)) <= {0, 1}
        rate = data.y_train.mean()
        assert 0.0 < rate < 0.2

    def test_artifact_reuse_short_circuits_fit(self, corpus, data):
        again = prepare(corpus, artifacts=data.artifacts)
        assert again.artifacts is data.artifacts
        assert np.array_equal(again.y_train, data.y_train)
