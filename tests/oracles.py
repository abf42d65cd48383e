"""Slow, independent reference implementations used only for checking.

The numeric oracles deliberately share no code with the package: average
precision by explicit threshold enumeration, ROC-AUC by the O(n+ * n-)
pairwise Mann-Whitney count, and percentiles via direct order-statistic
interpolation.

The window-sweep reference is the straightforward per-cell path: every
(window, model) cell fits its own preprocessing, and its CV re-fits the fold
preprocessing for that model alone. It reuses the package's models,
preprocessing, folds and metrics, but not the sweep's orchestration.
"""

import time

import numpy as np

from viralearly import evaluation, models, preprocess
from viralearly.experiments import build_window_matrices


def brute_force_average_precision(y, scores):
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=float)
    n_pos = y.sum()
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        pred = scores >= t
        tp = np.sum(pred & (y == 1))
        fp = np.sum(pred & (y == 0))
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return float(ap)


def pairwise_roc_auc(y, scores):
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=float)
    pos = scores[y == 1]
    neg = scores[y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return float(total / (len(pos) * len(neg)))


def interpolated_percentile(values, q):
    """Linear interpolation between order statistics at rank (n-1) * q / 100."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def trapezoid_auc(times, values, a, b, grid_step=1e-3):
    """Numeric quadrature of the constant-extended piecewise-linear curve."""
    xs = np.arange(a, b + grid_step, grid_step)
    ys = np.interp(xs, times, values)
    return float(np.trapezoid(ys, xs))


def reference_cross_validate(config, matrix, y, k, seed):
    """Stratified k-fold CV that fits the fold preprocessing for this model only."""
    y = np.asarray(y).astype(np.int8).ravel()
    all_idx = np.arange(len(y))
    per_fold = {"pr_auc": [], "roc_auc": [], "f1": []}
    for held in evaluation.stratified_kfold(y, k=k, seed=seed):
        train_idx = np.setdiff1d(all_idx, held)
        prep = preprocess.fit(matrix.take(train_idx))
        X_train = preprocess.transform(prep, matrix.take(train_idx)).X
        X_held = preprocess.transform(prep, matrix.take(held)).X
        model = models.train(config, X_train, y[train_idx])
        report = evaluation.evaluate_predictions(y[held], model.predict_proba(X_held))
        for name, value in report.as_row().items():
            per_fold[name].append(value)
    means = {name: float(np.mean(vals)) for name, vals in per_fold.items()}
    stds = {name: float(np.std(vals)) for name, vals in per_fold.items()}
    return means, stds


def reference_cell(kind, matrices, data, seed, k_folds, with_cv):
    """One (window, model) sweep row with its own preprocessing fit."""
    config = models.default_config(kind, seed=seed)
    prep = preprocess.fit(matrices.train)
    tr = preprocess.transform(prep, matrices.train)
    te = preprocess.transform(prep, matrices.test)
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
    if with_cv:
        means, stds = reference_cross_validate(config, matrices.train, data.y_train, k_folds, seed)
        for name in ("pr_auc", "roc_auc", "f1"):
            row[f"cv_{name}"] = means[name]
            row[f"cv_{name}_std"] = stds[name]
    return row


def reference_window_sweep(data, windows, model_kinds, seed, k_folds=5, with_cv=True):
    """Sweep rows cell by cell, sorted by window and then by model order."""
    cells = [(wm, kind) for wm in build_window_matrices(data, windows) for kind in model_kinds]
    rows = [reference_cell(kind, wm, data, seed, k_folds, with_cv) for wm, kind in cells]
    rows.sort(key=lambda r: (r["window"], list(model_kinds).index(r["model"])))
    return rows
