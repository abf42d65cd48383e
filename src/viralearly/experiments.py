"""The three studies: window sweep, modality ablation, importance over time.

Every run starts from raw records: chronological split, labeling artifacts
fitted on the training side only, labels applied everywhere, and per-window
feature matrices. Reports land as CSV files plus a JSON manifest (seeds,
config hashes, artifact fingerprints) sufficient to re-run bit-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, evaluation, models, preprocess, trajectory
from .features import DEFAULT_WINDOW_SWEEP, MODALITIES, STATIC_MODALITIES, WINDOWED_MODALITIES, FeatureMatrix, WindowSpec, assemble_matrix
from .ingest import PostRecord
from .labeling import DEFAULT_WEIGHT_WINDOWS, LabelingArtifacts, assign_labels, score_records

SWEEP_MODELS = ("logreg", "gbt", "mlp")
ABLATION_WINDOW_MINUTES = 120.0
DEFAULT_TOP_K = 30


@dataclass
class PreparedData:
    """Chronologically split records with train-fitted labeling applied."""

    train_records: list[PostRecord]
    test_records: list[PostRecord]
    artifacts: LabelingArtifacts
    scores_train: np.ndarray  # hybrid scores the labels were assigned from
    scores_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    boundary_iso: str

    @property
    def n_train(self) -> int:
        return len(self.train_records)

    @property
    def n_test(self) -> int:
        return len(self.test_records)


def prepare(
    records: Sequence[PostRecord],
    train_frac: float = 0.8,
    weight_windows: Sequence[float] = DEFAULT_WEIGHT_WINDOWS,
    top_frac: float = 0.05,
    forest_config: models.ModelConfig | None = None,
    artifacts: LabelingArtifacts | None = None,
) -> PreparedData:
    """Split chronologically and label both sides with train-only artifacts."""
    split = evaluation.chronological_split(records, train_frac=train_frac)
    by_id = {r.post_id: r for r in records}
    train = [by_id[i] for i in split.train_ids]
    test = [by_id[i] for i in split.test_ids]
    fitted = artifacts is None
    if fitted:
        artifacts = LabelingArtifacts.fit(train, windows=weight_windows, top_frac=top_frac, forest_config=forest_config)
    scores_train = artifacts.train_scores if fitted else score_records(train, artifacts.caps, artifacts.weights)
    y_train = assign_labels(scores_train, artifacts.threshold.tau)
    scores_test, y_test = artifacts.label_records(test)
    return PreparedData(
        train_records=train,
        test_records=test,
        artifacts=artifacts,
        scores_train=scores_train,
        scores_test=scores_test,
        y_train=y_train,
        y_test=y_test,
        boundary_iso=split.boundary.isoformat(),
    )


@dataclass
class WindowMatrices:
    window: float
    train: FeatureMatrix
    test: FeatureMatrix


def build_window_matrices(data: PreparedData, windows: Sequence[float]) -> list[WindowMatrices]:
    """Per window, that window's temporal and network columns joined to the
    static columns. The static columns and the padded snapshot arrays do not
    depend on the window and are built once per split."""
    caps, splits = data.artifacts.caps, (data.train_records, data.test_records)
    out, static, batches = [], None, None
    for minutes in windows:
        w = WindowSpec(float(minutes))
        static = static or [assemble_matrix(records, w, caps, STATIC_MODALITIES) for records in splits]
        batches = batches or [trajectory.pad_snapshots(records, caps) for records in splits]
        train, test = (
            assemble_matrix(r, w, caps, WINDOWED_MODALITIES, batch=b).join(s) for r, b, s in zip(splits, batches, static)
        )
        out.append(WindowMatrices(window=w.minutes, train=train, test=test))
    return out


def _evaluate_window(
    matrices: WindowMatrices,
    data: PreparedData,
    model_kinds: Sequence[str],
    seed: int,
    k_folds: int | None,
) -> list[dict]:
    """One row per model kind at one window: held-out test metrics, plus
    train-side CV unless ``k_folds`` is None. The preprocessing and the CV
    folds are fitted once and shared by every model kind."""
    prep = preprocess.fit(matrices.train)
    tr = preprocess.transform(prep, matrices.train)
    te = preprocess.transform(prep, matrices.test)
    folds = None
    if k_folds is not None:
        folds = evaluation.preprocessed_folds(matrices.train, data.y_train, k=k_folds, seed=seed)
    rows = []
    for kind in model_kinds:
        config = models.default_config(kind, seed=seed)
        start = time.perf_counter()
        model = models.train(config, tr.X, data.y_train, feature_names=tr.names)
        duration = time.perf_counter() - start
        report = evaluation.evaluate_predictions(data.y_test, model.predict_proba(te.X))
        row = {
            "window": matrices.window,
            "model": kind,
            "pr_auc": report.pr_auc,
            "roc_auc": report.roc_auc,
            "f1": report.f1,
            "duration_seconds": round(duration, 3),
        }
        if folds is not None:
            cv = evaluation.cross_validate(config, folds, data.y_train)
            row.update(
                {
                    "cv_pr_auc": cv.pr_auc,
                    "cv_pr_auc_std": cv.std["pr_auc"],
                    "cv_roc_auc": cv.roc_auc,
                    "cv_roc_auc_std": cv.std["roc_auc"],
                    "cv_f1": cv.f1,
                    "cv_f1_std": cv.std["f1"],
                }
            )
        rows.append(row)
    return rows


def run_window_sweep(
    records: Sequence[PostRecord],
    windows: Sequence[float] = DEFAULT_WINDOW_SWEEP,
    model_kinds: Sequence[str] = SWEEP_MODELS,
    seed: int = 42,
    k_folds: int = 5,
    with_cv: bool = True,
    out_dir: str | Path | None = None,
    data: PreparedData | None = None,
) -> list[dict]:
    """Per window in ascending order, per model: train on train, score the
    held-out test split, and (optionally) run stratified CV inside the
    training split. Deterministic under fixed seeds."""
    if data is None:
        data = prepare(records)
    rows = []
    for wm in build_window_matrices(data, sorted(windows)):
        rows.extend(_evaluate_window(wm, data, model_kinds, seed, k_folds if with_cv else None))

    if out_dir is not None:
        out_dir = Path(out_dir)
        write_csv(out_dir / "window_sweep.csv", rows)
        write_manifest(
            out_dir,
            "window_sweep",
            data,
            seed=seed,
            extra={
                "windows": list(windows),
                "models": list(model_kinds),
                "k_folds": k_folds,
                "with_cv": with_cv,
                "model_configs": {k: _config_hash(models.default_config(k, seed=seed)) for k in model_kinds},
            },
        )
    return rows


def run_ablation(
    records: Sequence[PostRecord],
    window: float = ABLATION_WINDOW_MINUTES,
    modalities: Sequence[str] = MODALITIES,
    seed: int = 42,
    out_dir: str | Path | None = None,
    data: PreparedData | None = None,
) -> list[dict]:
    """Baseline (all features) plus one gbt row per excluded modality."""
    if data is None:
        data = prepare(records)
    full = build_window_matrices(data, [window])[0]
    scenarios = [("baseline", full)] + [
        (f"exclude_{m}", WindowMatrices(full.window, full.train.without_modality(m), full.test.without_modality(m)))
        for m in modalities
    ]
    rows = []
    for name, matrices in scenarios:
        cell = _evaluate_window(matrices, data, ("gbt",), seed, k_folds=None)[0]
        rows.append({"scenario": name, "window": window, "pr_auc": cell["pr_auc"], "roc_auc": cell["roc_auc"]})
    if out_dir is not None:
        out_dir = Path(out_dir)
        write_csv(out_dir / f"ablation_{int(window)}.csv", rows)
        write_manifest(
            out_dir,
            "ablation",
            data,
            seed=seed,
            extra={"window": window, "modalities": list(modalities)},
        )
    return rows


def importance_over_time(
    records: Sequence[PostRecord],
    windows: Sequence[float] = DEFAULT_WINDOW_SWEEP,
    top_k: int = DEFAULT_TOP_K,
    seed: int = 42,
    out_dir: str | Path | None = None,
    data: PreparedData | None = None,
) -> tuple[list[dict], list[dict]]:
    """Per window: gbt gain importances, one-hot columns summed into their
    source feature, top-k membership counted per modality.

    Returns (modality count rows, per-feature detail rows); both are written
    as plot-ready long-format CSVs when ``out_dir`` is given.
    """
    if data is None:
        data = prepare(records)
    count_rows: list[dict] = []
    detail_rows: list[dict] = []
    modality_order = {m: i for i, m in enumerate(MODALITIES)}
    for wm in build_window_matrices(data, windows):
        prep = preprocess.fit(wm.train)
        tr = preprocess.transform(prep, wm.train)
        model = models.train(models.default_config("gbt", seed=seed), tr.X, data.y_train, feature_names=tr.names)
        importances = model.importances
        by_parent: dict[str, float] = {}
        for value, parent in zip(importances, tr.parents):
            by_parent[parent] = by_parent.get(parent, 0.0) + float(value)
        ranked = sorted(
            by_parent.items(),
            key=lambda kv: (-kv[1], modality_order[wm.train.spec(kv[0]).modality], kv[0]),
        )
        k = min(top_k, len(ranked))
        counts = {m: 0 for m in MODALITIES}
        for rank, (parent, value) in enumerate(ranked, start=1):
            modality = wm.train.spec(parent).modality
            if rank <= k:
                counts[modality] += 1
            detail_rows.append(
                {
                    "window": wm.window,
                    "feature": parent,
                    "modality": modality,
                    "importance": value,
                    "rank": rank,
                    "in_top_k": int(rank <= k),
                }
            )
        for m in MODALITIES:
            count_rows.append({"window": wm.window, "modality": m, "count": counts[m]})

    if out_dir is not None:
        out_dir = Path(out_dir)
        write_csv(out_dir / "modality_importance.csv", count_rows)
        write_csv(out_dir / "importance_features.csv", detail_rows)
        write_manifest(
            out_dir,
            "importance_over_time",
            data,
            seed=seed,
            extra={"windows": list(windows), "top_k": top_k},
        )
    return count_rows, detail_rows


def write_csv(path: str | Path, rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _config_hash(config: models.ModelConfig) -> str:
    payload = json.dumps({"kind": config.kind, "seed": config.seed, "params": config.resolved_params()}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def dataset_fingerprint(records: Sequence[PostRecord]) -> str:
    ids = ",".join(sorted(r.post_id for r in records))
    return f"{len(records)}:{hashlib.sha256(ids.encode()).hexdigest()[:12]}"


def write_manifest(
    out_dir: str | Path, study: str, data: PreparedData, seed: int, extra: dict | None = None
) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts_json = data.artifacts.to_json()
    doc = {
        "study": study,
        "package_version": __version__,
        "seed": seed,
        "n_train": data.n_train,
        "n_test": data.n_test,
        "split_boundary": data.boundary_iso,
        "dataset_fingerprint": dataset_fingerprint(data.train_records + data.test_records),
        "labeling_artifacts_sha256": hashlib.sha256(artifacts_json.encode()).hexdigest(),
        "threshold_fitted_on": data.artifacts.threshold.fitted_on,
    }
    if extra:
        doc.update(extra)
    path = out_dir / f"{study}_manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    return path
