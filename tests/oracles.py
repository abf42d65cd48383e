"""Slow, independent reference implementations used only for checking.

The numeric oracles deliberately share no code with the package: average
precision by explicit threshold enumeration, ROC-AUC by the O(n+ * n-)
pairwise Mann-Whitney count, and percentiles via direct order-statistic
interpolation.

The window-sweep reference is the straightforward per-cell path: every
(window, model) cell fits its own preprocessing, and its CV re-fits the fold
preprocessing for that model alone. It reuses the package's models,
preprocessing, folds and metrics, but not the sweep's orchestration.

The feature references are the per-record derivations that the shared
engagement curve replaced: labeling rows with their own windowing and a
per-key dispatch, temporal and network extractors that each window,
normalize and count category transitions themselves, and window matrices
that extract every modality, static ones included, once per window. They
reuse the package's trajectory math, normalization, static extraction and
feature dataclasses.
"""

import time

import numpy as np

from viralearly import evaluation, models, preprocess, trajectory
from viralearly.errors import ConfigError, SchemaError
from viralearly.experiments import WindowMatrices, build_window_matrices
from viralearly.features import (
    MODALITIES,
    MODALITY_CATALOG,
    RANKED_CATEGORIES,
    SLOPE_LONG_MINUTES,
    SLOPE_SHORT_MINUTES,
    STATIC_MODALITIES,
    ColumnSpec,
    FeatureMatrix,
    NetworkFeatures,
    TemporalFeatures,
    WindowSpec,
    extract_static,
)
from viralearly.labeling import LABELING_FEATURES, normalize_metric


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


# -- per-record feature derivations -------------------------------------------


def reference_labeling_row(record, caps, window_minutes, keys):
    snaps = record.snapshots
    if window_minutes is not None:
        snaps = tuple(s for s in snaps if s.t_minutes <= window_minutes)
    subs = record.subreddit.subscribers
    if not snaps:
        horizon = window_minutes if window_minutes is not None else 0.0
        defaults = {k: 0.0 for k in LABELING_FEATURES}
        defaults["time_to_takeoff"] = horizon
        return [defaults[k] for k in keys]

    t = np.array([s.t_minutes for s in snaps])
    norm = np.array([normalize_metric(s.score, subs, caps.cap_for("score")) for s in snaps])
    horizon = window_minutes if window_minutes is not None else float(t[-1])

    values = {}
    for key in keys:
        if key == "norm_score":
            values[key] = float(norm[-1])
        elif key == "norm_comments":
            values[key] = normalize_metric(snaps[-1].comments, subs, caps.cap_for("comments"))
        elif key == "norm_crossposts":
            values[key] = normalize_metric(snaps[-1].crossposts, subs, caps.cap_for("crossposts"))
        elif key == "peak_velocity":
            _, v = trajectory.velocity_series(t, norm)
            values[key] = float(np.max(v)) if len(v) else 0.0
        elif key == "peak_acceleration":
            _, a = trajectory.acceleration_series(t, norm)
            values[key] = float(np.max(a)) if len(a) else 0.0
        elif key == "time_to_takeoff":
            point = trajectory.takeoff_point(t, norm)
            values[key] = point[0] if point is not None else horizon
        else:
            raise SchemaError(f"unknown labeling feature {key!r}")
    return [values[k] for k in keys]


def reference_labeling_feature_matrix(records, caps, window_minutes=None, keys=LABELING_FEATURES):
    return np.array([reference_labeling_row(r, caps, window_minutes, keys) for r in records])


def reference_score_records(records, caps, weights):
    keys = list(weights.weights)
    X = reference_labeling_feature_matrix(records, caps, window_minutes=None, keys=keys)
    return X @ np.array([weights.weights[k] for k in keys])


def _window_view(record, w):
    return tuple(s for s in record.snapshots if s.t_minutes <= w.minutes)


def _first_time(snaps, attr):
    for s in snaps:
        if getattr(s, attr) > 0:
            return float(s.t_minutes)
    return None


def _time_in_categories(snaps, window):
    out = {c: 0.0 for c in RANKED_CATEGORIES}
    for i, snap in enumerate(snaps):
        start = snap.t_minutes
        end = snaps[i + 1].t_minutes if i + 1 < len(snaps) else window
        if snap.category in out:
            out[snap.category] += max(0.0, end - start)
    return out


def reference_extract_temporal(record, w, caps):
    created = record.created_utc
    out = TemporalFeatures(
        hour_of_day=float(created.hour),
        day_of_week=float(created.weekday()),
        is_weekend=float(created.weekday() >= 5),
        window_minutes=float(w.minutes),
    )
    snaps = _window_view(record, w)
    if not snaps:
        return out

    subs = record.subreddit.subscribers
    t = np.array([s.t_minutes for s in snaps])
    norm = np.array([normalize_metric(s.score, subs, caps.cap_for("score")) for s in snaps])
    last = snaps[-1]

    out.norm_score = float(norm[-1])
    out.norm_comments = normalize_metric(last.comments, subs, caps.cap_for("comments"))
    out.norm_crossposts = normalize_metric(last.crossposts, subs, caps.cap_for("crossposts"))
    out.upvote_ratio = last.upvote_ratio
    out.category_snapshot = last.category

    _, v = trajectory.velocity_series(t, norm)
    if len(v):
        out.peak_velocity = float(np.max(v))
        out.burst_count = float(trajectory.burst_count(v))
    _, a = trajectory.acceleration_series(t, norm)
    if len(a):
        out.peak_acceleration = float(np.max(a))
        out.min_acceleration = float(np.min(a))

    out.engagement_auc = trajectory.curve_auc(t, norm, 0.0, w.minutes)
    out.momentum_ratio = trajectory.momentum_ratio(t, norm, w.minutes)
    out.half_life_minutes = trajectory.half_life(t, norm, w.minutes)
    out.timing_entropy = trajectory.timing_entropy(t, norm, w.minutes)

    t_end = float(min(t[-1], w.minutes))
    for attr, span in (("slope_5min", SLOPE_SHORT_MINUTES), ("slope_10min", SLOPE_LONG_MINUTES)):
        tail = t >= t_end - span
        setattr(out, attr, trajectory.least_squares_slope(t[tail], norm[tail]))

    out.time_to_peak = float(t[int(np.argmax(norm))])
    takeoff = trajectory.takeoff_point(t, norm)
    if takeoff is not None:
        out.time_to_takeoff, out.takeoff_velocity = takeoff

    out.first_vote_min = _first_time(snaps, "score")
    out.first_comment_min = _first_time(snaps, "comments")
    out.first_crosspost_min = _first_time(snaps, "crossposts")

    time_in = _time_in_categories(snaps, w.minutes)
    out.time_in_new = time_in["new"]
    out.time_in_rising = time_in["rising"]
    out.time_in_hot = time_in["hot"]
    out.time_in_top = time_in["top"]
    out.pct_time_in_new = time_in["new"] / w.minutes
    out.pct_time_in_rising = time_in["rising"] / w.minutes
    out.pct_time_in_hot = time_in["hot"] / w.minutes
    out.pct_time_in_top = time_in["top"] / w.minutes

    cats = [s.category for s in snaps]
    out.transitions_within = float(sum(a != b for a, b in zip(cats, cats[1:])))
    return out


def reference_extract_network(record, w):
    author = record.author
    out = NetworkFeatures(
        author_account_age_days=float(author.account_age_days),
        author_is_premium=float(author.is_premium),
        author_karma_per_day=float(author.total_karma) / max(author.account_age_days, 1.0),
        author_total_karma=float(author.total_karma),
    )
    snaps = _window_view(record, w)
    if not snaps:
        return out

    cats = [s.category for s in snaps]
    transitions = sum(a != b for a, b in zip(cats, cats[1:]))
    out.category_transitions = float(transitions)
    out.category_stability = 1.0 - transitions / (len(cats) - 1) if len(cats) > 1 else 1.0
    out.unique_categories = float(len(set(cats)))

    rank = {c: i for i, c in enumerate(RANKED_CATEGORIES)}
    promotions = demotions = 0
    for a, b in zip(cats, cats[1:]):
        if a in rank and b in rank and a != b:
            if rank[b] > rank[a]:
                promotions += 1
            else:
                demotions += 1
    out.promotion_demotion_ratio = promotions / demotions if demotions else float(promotions)

    path = []
    for c in cats:
        if not path or path[-1] != c:
            path.append(c)
    out.progression_pattern = ">".join(path[:4]) + (">+" if len(path) > 4 else "")

    time_in = _time_in_categories(snaps, w.minutes)
    out.pct_time_in_new = time_in["new"] / w.minutes

    for cat, attr in (("hot", "time_to_hot"), ("rising", "time_to_rising"), ("top", "time_to_top")):
        hit = next((s.t_minutes for s in snaps if s.category == cat), None)
        setattr(out, attr, float(hit) if hit is not None else None)
    return out


def reference_assemble_matrix(records, w, caps, include_modalities=None):
    """Every requested modality extracted per record at this window."""
    include = set(MODALITIES if include_modalities is None else include_modalities)
    if include - set(MODALITIES):
        raise ConfigError(f"unknown modalities: {sorted(include - set(MODALITIES))}")
    columns = [
        ColumnSpec(f"{m}__{name}", m, kind)
        for m in MODALITIES
        if m in include
        for name, kind in sorted(MODALITY_CATALOG[m])
    ]
    cells = {c.name: [] for c in columns}
    for record in records:
        values = {}
        if "temporal" in include:
            values["temporal"] = reference_extract_temporal(record, w, caps).as_mapping()
        if "network" in include:
            values["network"] = reference_extract_network(record, w).as_mapping()
        if include & set(STATIC_MODALITIES):
            values.update(extract_static(record))
        for c in columns:
            cells[c.name].append(values[c.modality][c.base_name])
    data = {}
    for c in columns:
        if c.kind == "numeric":
            data[c.name] = np.array([np.nan if v is None else float(v) for v in cells[c.name]], dtype=np.float64)
        else:
            data[c.name] = np.array([None if v is None else str(v) for v in cells[c.name]], dtype=object)
    return FeatureMatrix([r.post_id for r in records], columns, data)


def reference_build_window_matrices(data, windows, include_modalities=None):
    """Both splits assembled from scratch at every window."""
    caps = data.artifacts.caps
    return [
        WindowMatrices(
            window=float(minutes),
            train=reference_assemble_matrix(data.train_records, WindowSpec(float(minutes)), caps, include_modalities),
            test=reference_assemble_matrix(data.test_records, WindowSpec(float(minutes)), caps, include_modalities),
        )
        for minutes in windows
    ]
