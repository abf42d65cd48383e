"""Metrics, chronological splitting, and stratified cross-validation.

PR-AUC is average precision with step integration (no precision-recall
interpolation) and block handling of tied scores; ROC-AUC is the exact
Mann-Whitney statistic with half credit for ties. Both are invariant under
strictly increasing transforms of the scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Sequence

import numpy as np

from . import models, preprocess
from .errors import MetricError, SplitError
from .features import FeatureMatrix
from .ingest import PostRecord


def _check_binary(y) -> np.ndarray:
    y = np.asarray(y).astype(np.int8).ravel()
    if len(np.unique(y)) < 2:
        raise MetricError("metric undefined: labels contain a single class")
    return y


def _tie_block_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Last index of each run of equal values in a sorted score vector."""
    change = np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0]
    return np.concatenate([change, [len(sorted_scores) - 1]])


def pr_auc(y, scores) -> float:
    """Average precision: sum of precision * recall-increment at each threshold.

    Tied scores are processed as one block, so the value matches explicit
    threshold enumeration exactly.
    """
    y = _check_binary(y)
    s = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(-s, kind="mergesort")
    ends = _tie_block_ends(s[order])
    tp = np.cumsum(y[order])[ends].astype(np.float64)
    pp = ends + 1.0
    n_pos = float(y.sum())
    precision = tp / pp
    recall = tp / n_pos
    delta_recall = np.diff(np.concatenate([[0.0], recall]))
    return float(np.sum(precision * delta_recall))


def roc_auc(y, scores) -> float:
    """Exact Mann-Whitney: P(score+ > score-) + 0.5 * P(tie), via midranks."""
    y = _check_binary(y)
    s = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(s, kind="mergesort")
    ends = _tie_block_ends(s[order])
    starts = np.concatenate([[0], ends[:-1] + 1])
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)  # midranks (1-based)
    n_pos = float(y.sum())
    n_neg = float(len(y) - n_pos)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)


def f1_at_threshold(y, probs, threshold: float = 0.5) -> float:
    """F1 of the `prob >= threshold` rule; zero when nothing is predicted positive."""
    y = _check_binary(y)
    pred = (np.asarray(probs, dtype=np.float64).ravel() >= threshold).astype(np.int8)
    tp = float(np.sum((pred == 1) & (y == 1)))
    fp = float(np.sum((pred == 1) & (y == 0)))
    fn = float(np.sum((pred == 0) & (y == 1)))
    if tp == 0.0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class SplitAssignment:
    """Chronological partition: every train post strictly precedes every test post."""

    train_ids: list[str]
    test_ids: list[str]
    boundary: datetime  # earliest test creation time


def chronological_split(records: Sequence[PostRecord], train_frac: float = 0.8) -> SplitAssignment:
    """Sort by creation time (ties by post id) and cut at ceil(train_frac * n).

    Ties straddling the cut all go to train, which keeps the strict
    inequality between train and test timestamps.
    """
    n = len(records)
    if n < 2:
        raise SplitError("need at least two records to split")
    if not 0.0 < train_frac < 1.0:
        raise SplitError("train_frac must be in (0, 1)")
    order = sorted(range(n), key=lambda i: (records[i].created_utc, records[i].post_id))
    stamps = [records[i].created_utc for i in order]
    cut = int(np.ceil(train_frac * n))
    while cut < n and stamps[cut - 1] == stamps[cut]:
        cut += 1
    if cut >= n:
        raise SplitError("no valid chronological boundary: timestamps do not separate")
    return SplitAssignment(
        train_ids=[records[i].post_id for i in order[:cut]],
        test_ids=[records[i].post_id for i in order[cut:]],
        boundary=stamps[cut],
    )


def stratified_kfold(y, k: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Seeded stratified partition; per-fold class counts differ by at most one."""
    y = np.asarray(y).astype(np.int8).ravel()
    if k < 2:
        raise SplitError("k must be at least 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        if len(idx) < k:
            raise SplitError(f"class {int(cls)} has {len(idx)} samples, fewer than k={k}")
        idx = idx[rng.permutation(len(idx))]
        for j in range(k):
            folds[j].extend(idx[j::k].tolist())
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


@dataclass
class MetricReport:
    """PR-AUC / ROC-AUC / F1 with class counts; CV runs carry per-fold values."""

    pr_auc: float
    roc_auc: float
    f1: float
    n_pos: int
    n_neg: int
    per_fold: dict[str, list[float]] = field(default_factory=dict)
    std: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict[str, float]:
        return {"pr_auc": self.pr_auc, "roc_auc": self.roc_auc, "f1": self.f1}


def evaluate_predictions(y, probs, threshold: float = 0.5) -> MetricReport:
    y = _check_binary(y)
    return MetricReport(
        pr_auc=pr_auc(y, probs),
        roc_auc=roc_auc(y, probs),
        f1=f1_at_threshold(y, probs, threshold),
        n_pos=int(np.sum(y == 1)),
        n_neg=int(np.sum(y == 0)),
    )


@dataclass(frozen=True)
class PreprocessedFold:
    """One CV fold: its row indices, and its train and held-out matrices
    preprocessed by a fit on the fold's train rows only."""

    train_idx: np.ndarray
    held_idx: np.ndarray
    X_train: np.ndarray
    X_held: np.ndarray


def preprocessed_folds(matrix: FeatureMatrix, y, k: int = 5, seed: int = 0) -> list[PreprocessedFold]:
    """Stratified k folds, each with preprocessing fit on its other k-1 folds.

    Held-out rows can never influence a fold's fitted state. The folds depend
    on ``y`` and ``seed`` alone, so every model kind can share them.
    """
    y = np.asarray(y).astype(np.int8).ravel()
    all_idx = np.arange(len(y))
    folds = []
    for held in stratified_kfold(y, k=k, seed=seed):
        train_idx = np.setdiff1d(all_idx, held)
        train = matrix.take(train_idx)
        prep = preprocess.fit(train)
        folds.append(
            PreprocessedFold(
                train_idx=train_idx,
                held_idx=held,
                X_train=preprocess.transform(prep, train).X,
                X_held=preprocess.transform(prep, matrix.take(held)).X,
            )
        )
    return folds


def cross_validate(config: models.ModelConfig, folds: Sequence[PreprocessedFold], y) -> MetricReport:
    """Fit and score the model on every fold; mean and std over the folds."""
    y = np.asarray(y).astype(np.int8).ravel()
    per_fold: dict[str, list[float]] = {"pr_auc": [], "roc_auc": [], "f1": []}
    for fold in folds:
        model = models.train(config, fold.X_train, y[fold.train_idx])
        report = evaluate_predictions(y[fold.held_idx], model.predict_proba(fold.X_held))
        for name, value in report.as_row().items():
            per_fold[name].append(value)

    means = {name: float(np.mean(vals)) for name, vals in per_fold.items()}
    stds = {name: float(np.std(vals)) for name, vals in per_fold.items()}
    return MetricReport(
        pr_auc=means["pr_auc"],
        roc_auc=means["roc_auc"],
        f1=means["f1"],
        n_pos=int(np.sum(y == 1)),
        n_neg=int(np.sum(y == 0)),
        per_fold=per_fold,
        std=stds,
    )
