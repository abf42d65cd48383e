import math

import numpy as np
import pytest

from viralearly import synth
from viralearly.errors import ConfigError
from viralearly.experiments import (
    importance_over_time,
    prepare,
    run_ablation,
    run_window_sweep,
    write_csv,
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
    def test_single_cell_row_fully_populated(self, data):
        rows = run_window_sweep(data, windows=(60.0,), model_kinds=("gbt",), k_folds=3, seed=1)
        assert len(rows) == 1
        row = rows[0]
        for key in ("window", "model", "pr_auc", "roc_auc", "f1", "duration_seconds",
                    "cv_pr_auc", "cv_pr_auc_std"):
            assert row[key] is not None
        assert row["window"] == 60.0
        assert row["model"] == "gbt"
        assert 0.0 <= row["pr_auc"] <= 1.0

    def test_seeded_repeat_gives_identical_rows(self, data):
        kwargs = dict(windows=(30.0, 60.0), model_kinds=("logreg", "gbt"), k_folds=3, seed=3)
        first = run_window_sweep(data, **kwargs)
        second = run_window_sweep(data, **kwargs)
        assert without_duration(first) == without_duration(second)

    # a nan window gave every windowed column missing and metrics anyway (gbt
    # PR-AUC 0.216 on synth n=300); an inf window got as far as a FitError on non-finite columns
    @pytest.mark.parametrize("window", [math.nan, math.inf])
    def test_window_that_is_not_finite_rejected(self, data, window):
        with pytest.raises(ConfigError, match="window minutes"):
            run_window_sweep(data, windows=(30.0, window), model_kinds=("gbt",), k_folds=None)

    # a weight window of 0 or below fitted a forest on empty windows
    @pytest.mark.parametrize("window", [0.0, -30.0, math.nan, math.inf])
    def test_weight_window_that_is_not_positive_and_finite_rejected(self, corpus, window):
        with pytest.raises(ConfigError, match="window minutes"):
            prepare(corpus, weight_windows=(30.0, window))

    def test_matches_per_cell_reference(self, data):
        # shared per-window preprocessing and folds must reproduce the
        # per-cell path exactly: same keys, same order, same floats
        windows, kinds = (120.0, 30.0), ("logreg", "gbt", "mlp")
        rows = run_window_sweep(data, windows=windows, model_kinds=kinds, k_folds=3, seed=5)
        reference = reference_window_sweep(data, windows, kinds, seed=5, k_folds=3)
        assert [list(r) for r in rows] == [list(r) for r in reference]
        assert without_duration(rows) == without_duration(reference)

        baseline = run_ablation(data, window=120.0, modalities=(), seed=5)
        gbt_cell = next(r for r in reference if r["window"] == 120.0 and r["model"] == "gbt")
        assert baseline == [
            {"scenario": "baseline", "window": 120.0, "pr_auc": gbt_cell["pr_auc"], "roc_auc": gbt_cell["roc_auc"]}
        ]

    def test_rows_ordered_by_window_then_model(self, data):
        rows = run_window_sweep(
            data, windows=(60.0, 30.0), model_kinds=("logreg", "gbt"), k_folds=None, seed=3
        )
        assert [(r["window"], r["model"]) for r in rows] == [
            (30.0, "logreg"), (30.0, "gbt"), (60.0, "logreg"), (60.0, "gbt"),
        ]

    def test_csv_leads_with_report_layout(self, data, tmp_path):
        rows = run_window_sweep(data, windows=(30.0,), model_kinds=("logreg",), k_folds=3, seed=1)
        write_csv(tmp_path / "window_sweep.csv", rows)
        header = (tmp_path / "window_sweep.csv").read_text().splitlines()[0]
        assert header.split(",")[:6] == [
            "window", "model", "pr_auc", "roc_auc", "f1", "duration_seconds",
        ]

    def test_no_folds_gives_rows_without_cv_keys(self, data):
        rows = run_window_sweep(data, windows=(30.0,), model_kinds=("logreg", "gbt"), k_folds=None, seed=3)
        assert len(rows) == 2
        assert [k for row in rows for k in row if k.startswith("cv_")] == []


class TestAblation:
    def test_baseline_matches_sweep_gbt_cell(self, data):
        sweep = run_window_sweep(
            data, windows=(120.0,), model_kinds=("gbt",), k_folds=None, seed=42
        )
        ablation = run_ablation(data, window=120.0, seed=42)
        baseline = next(r for r in ablation if r["scenario"] == "baseline")
        assert baseline["pr_auc"] == sweep[0]["pr_auc"]
        assert baseline["roc_auc"] == sweep[0]["roc_auc"]

    def test_all_scenarios_present(self, data):
        rows = run_ablation(data, window=120.0, seed=1)
        names = [r["scenario"] for r in rows]
        assert names[0] == "baseline"
        assert set(names[1:]) == {f"exclude_{m}" for m in MODALITY_CATALOG}

    def test_unknown_modality_rejected(self, data):
        with pytest.raises(ConfigError, match="audio"):
            run_ablation(data, window=120.0, modalities=("audio",))

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
        rows = run_ablation(prepare(records), window=120.0, seed=2, modalities=("visual",))
        baseline = rows[0]["pr_auc"]
        excluded = rows[1]["pr_auc"]
        assert abs(baseline - excluded) < 1e-12


class TestImportanceOverTime:
    def test_counts_partition_top_k(self, data):
        counts, details = importance_over_time(data, windows=(30.0, 120.0), top_k=30, seed=1)
        for window in (30.0, 120.0):
            at_w = [c for c in counts if c["window"] == window]
            n_parents = len({d["feature"] for d in details if d["window"] == window})
            assert sum(c["count"] for c in at_w) == min(30, n_parents)

    def test_one_hot_importance_aggregates_to_parent(self, data):
        _, details = importance_over_time(data, windows=(120.0,), top_k=10, seed=1)
        names = {d["feature"] for d in details}
        # parents are original matrix columns, never one-hot expansions
        assert not any("=" in name for name in names)

    def test_small_top_k(self, data):
        counts, _ = importance_over_time(data, windows=(60.0,), top_k=3, seed=1)
        assert sum(c["count"] for c in counts) == 3


# each repeat ran twice: four identical sweep rows for one cell, exclude_visual
# twice, and the 30-min forest weighted double in the hybrid weights
@pytest.mark.parametrize(
    "study, message",
    [
        (lambda d, c: run_window_sweep(d, windows=[30, 30.0], model_kinds=("gbt",), k_folds=None), "window 30.0 repeats"),
        (lambda d, c: run_window_sweep(d, windows=[30], model_kinds=("gbt", "gbt"), k_folds=None), "model kind 'gbt' repeats"),
        (lambda d, c: run_ablation(d, modalities=("visual", "textual", "visual")), "modality 'visual' repeats"),
        (lambda d, c: importance_over_time(d, windows=(120.0, 30.0, 120.0)), "window 120.0 repeats"),
        (lambda d, c: prepare(c, weight_windows=(30, 30, 120)), "weight window 30.0 repeats"),
    ],
    ids=["sweep_windows", "sweep_models", "ablation_modalities", "importance_windows", "weight_windows"],
)
def test_repeated_item_rejected(data, corpus, study, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        study(data, corpus)


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
