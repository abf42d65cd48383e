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

The tree references are the two tree learners as they were before both came
to build the shared flat-array tree: the random forest with its linked
``_Node`` objects, recursive build and stack-based prediction, and the GBT
growing five parallel lists per tree. They reuse the package's input checks,
binning and sigmoid; the GBT one also builds the package's tree and model
types, so its payloads compare directly.

``reference_roc_auc`` is the midrank loop the vectorised tie-block ranks
replaced, and ``STATIC_CATALOG`` pins the static feature catalog as it was
written out by hand before it was derived from the shipped schema.
"""

import math
import time
from collections import namedtuple
from dataclasses import fields

import numpy as np

from viralearly import evaluation, models, preprocess
from viralearly.errors import ConfigError, SchemaError
from viralearly.experiments import WindowMatrices, build_window_matrices
from viralearly.features import (
    MODALITIES,
    MODALITY_CATALOG,
    STATIC_MODALITIES,
    ColumnSpec,
    FeatureMatrix,
    NetworkFeatures,
    TemporalFeatures,
    WindowSpec,
    extract_static,
)
from viralearly.ingest import Snapshots
from viralearly.labeling import LABELING_FEATURES, normalize_metric
from viralearly.models._common import _Tree, check_training_data, sigmoid
from viralearly.models.gbt import _GAIN_EPS, GBTModel, _bin_columns
from viralearly.trajectory import (
    ENTROPY_BINS,
    MOMENTUM_EPS,
    RANKED_CATEGORIES,
    SLOPE_LONG_MINUTES,
    SLOPE_SHORT_MINUTES,
    TAKEOFF_MIN_LEVEL,
    TAKEOFF_VELOCITY_FRACTION,
)


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


# -- per-record trajectory math --------------------------------------------
#
# Each function takes one post's parallel arrays ``t`` (strictly increasing
# minutes) and ``y`` (engagement level at those times); the curve between
# snapshots is piecewise linear and constant outside the observed range.


def velocity_series(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First differences dy/dt attributed to each interval's end time."""
    if len(t) < 2:
        return np.empty(0), np.empty(0)
    dt = np.diff(t)
    return t[1:], np.diff(y) / dt


def acceleration_series(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second differences dv/dt, again attributed to interval ends."""
    tv, v = velocity_series(t, y)
    if len(tv) < 2:
        return np.empty(0), np.empty(0)
    return tv[1:], np.diff(v) / np.diff(tv)


def takeoff_point(t: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Earliest snapshot where growth becomes substantial.

    The trigger is relative: velocity at or above ``TAKEOFF_VELOCITY_FRACTION``
    of the observed peak velocity, while the level has reached
    ``TAKEOFF_MIN_LEVEL``. Returns ``(time, velocity_there)`` or ``None`` when
    the series never takes off (including flat or shrinking series).
    """
    tv, v = velocity_series(t, y)
    if len(v) == 0:
        return None
    peak = float(np.max(v))
    if peak <= 0.0:
        return None
    level_at_v = y[1:]
    hits = np.nonzero((v >= TAKEOFF_VELOCITY_FRACTION * peak) & (level_at_v >= TAKEOFF_MIN_LEVEL))[0]
    if len(hits) == 0:
        return None
    i = int(hits[0])
    return float(tv[i]), float(v[i])


def curve_auc(t: np.ndarray, y: np.ndarray, a: float, b: float) -> float:
    """Trapezoidal integral of the extended piecewise-linear curve over [a, b]."""
    if b <= a or len(t) == 0:
        return 0.0
    inner = t[(t > a) & (t < b)]
    knots = np.concatenate(([a], inner, [b]))
    vals = np.interp(knots, t, y)
    return float(np.trapezoid(vals, knots))


def momentum_ratio(t: np.ndarray, y: np.ndarray, window: float) -> float:
    """Late-half AUC over early-half AUC; exactly 1 for a flat (equal) split.

    Halves that agree to within accumulation noise count as equal, so flat
    trajectories report exactly 1 regardless of how the trapezoids grouped.
    """
    early = curve_auc(t, y, 0.0, window / 2.0)
    late = curve_auc(t, y, window / 2.0, window)
    if abs(late - early) <= 1e-9 * max(abs(late), abs(early), 1.0):
        return 1.0
    return late / (early + MOMENTUM_EPS)


def half_life(t: np.ndarray, y: np.ndarray, window: float) -> float | None:
    """Earliest time where cumulative AUC reaches half the window AUC.

    Solved exactly on the piecewise-linear curve (the cumulative integral is
    piecewise quadratic). Returns ``None`` when the window AUC is zero.
    """
    total = curve_auc(t, y, 0.0, window)
    if total <= 0.0:
        return None
    target = 0.5 * total
    inner = t[(t > 0.0) & (t < window)]
    knots = np.concatenate(([0.0], inner, [window]))
    vals = np.interp(knots, t, y)
    cum = 0.0
    for i in range(len(knots) - 1):
        x0, x1 = knots[i], knots[i + 1]
        v0, v1 = vals[i], vals[i + 1]
        seg = 0.5 * (v0 + v1) * (x1 - x0)
        if cum + seg >= target:
            need = target - cum
            dx = _solve_segment(v0, v1, x1 - x0, need)
            return float(x0 + dx)
        cum += seg
    return float(window)


def _solve_segment(v0: float, v1: float, width: float, need: float) -> float:
    # Area from the segment start: v0*dx + 0.5*m*dx^2 with m the local slope.
    if width <= 0.0:
        return 0.0
    m = (v1 - v0) / width
    if abs(m) < 1e-15:
        if v0 <= 0.0:
            return width
        return min(width, need / v0)
    disc = v0 * v0 + 2.0 * m * need
    if disc < 0.0:
        return width
    root = math.sqrt(disc)
    candidates = [(-v0 + root) / m, (-v0 - root) / m]
    valid = [dx for dx in candidates if -1e-12 <= dx <= width + 1e-12]
    if not valid:
        return width
    return min(max(min(valid), 0.0), width)


def burst_count(v: np.ndarray) -> int:
    """Number of maximal runs with velocity above mean + one population std."""
    if len(v) == 0:
        return 0
    std = float(np.std(v))
    if std == 0.0:
        return 0
    above = v > (float(np.mean(v)) + std)
    starts = above & ~np.concatenate(([False], above[:-1]))
    return int(np.sum(starts))


def timing_entropy(t: np.ndarray, y: np.ndarray, window: float) -> float:
    """Shannon entropy (bits) of increment mass across ``ENTROPY_BINS``
    equal-width time bins.

    Each consecutive increment (clipped at zero) is attributed to the bin
    containing its interval end. Zero total mass gives zero entropy.
    """
    if len(t) < 2 or window <= 0.0:
        return 0.0
    inc = np.clip(np.diff(y), 0.0, None)
    ends = t[1:]
    idx = np.clip((ends / window * ENTROPY_BINS).astype(int), 0, ENTROPY_BINS - 1)
    mass = np.bincount(idx, weights=inc, minlength=ENTROPY_BINS)
    total = mass.sum()
    if total <= 0.0:
        return 0.0
    p = mass[mass > 0.0] / total
    return float(-np.sum(p * np.log2(p)))


def least_squares_slope(t: np.ndarray, y: np.ndarray) -> float | None:
    """OLS slope of y against t; ``None`` with fewer than two points."""
    if len(t) < 2:
        return None
    tc = t - t.mean()
    denom = float(np.dot(tc, tc))
    if denom == 0.0:
        return None
    return float(np.dot(tc, y - y.mean()) / denom)


# -- per-record feature derivations -------------------------------------------

#: One snapshot of a series, as the per-record references read it.
SnapshotRow = namedtuple("SnapshotRow", [f.name for f in fields(Snapshots)])


def snapshot_rows(snapshots):
    """The series as a tuple of one :data:`SnapshotRow` per snapshot."""
    return tuple(map(SnapshotRow._make, zip(*(getattr(snapshots, f.name) for f in fields(Snapshots)))))


def snapshots_from_rows(rows):
    """The :class:`Snapshots` value holding ``rows``, in their order."""
    return Snapshots(*zip(*rows))


def reference_labeling_row(record, caps, window_minutes, keys):
    snaps = snapshot_rows(record.snapshots)
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
            _, v = velocity_series(t, norm)
            values[key] = float(np.max(v)) if len(v) else 0.0
        elif key == "peak_acceleration":
            _, a = acceleration_series(t, norm)
            values[key] = float(np.max(a)) if len(a) else 0.0
        elif key == "time_to_takeoff":
            point = takeoff_point(t, norm)
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
    return tuple(s for s in snapshot_rows(record.snapshots) if s.t_minutes <= w.minutes)


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

    _, v = velocity_series(t, norm)
    if len(v):
        out.peak_velocity = float(np.max(v))
        out.burst_count = float(burst_count(v))
    _, a = acceleration_series(t, norm)
    if len(a):
        out.peak_acceleration = float(np.max(a))
        out.min_acceleration = float(np.min(a))

    out.engagement_auc = curve_auc(t, norm, 0.0, w.minutes)
    out.momentum_ratio = momentum_ratio(t, norm, w.minutes)
    out.half_life_minutes = half_life(t, norm, w.minutes)
    out.timing_entropy = timing_entropy(t, norm, w.minutes)

    t_end = float(min(t[-1], w.minutes))
    for attr, span in (("slope_5min", SLOPE_SHORT_MINUTES), ("slope_10min", SLOPE_LONG_MINUTES)):
        tail = t >= t_end - span
        setattr(out, attr, least_squares_slope(t[tail], norm[tail]))

    out.time_to_peak = float(t[int(np.argmax(norm))])
    takeoff = takeoff_point(t, norm)
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


# -- metrics ----------------------------------------------------------------


def reference_roc_auc(y, scores):
    """Mann-Whitney via midranks assigned by a Python scan over tie runs."""
    y = np.asarray(y).astype(np.int8).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank (1-based)
        i = j + 1
    n_pos = float(y.sum())
    n_neg = float(len(y) - n_pos)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)


# -- static feature catalog ---------------------------------------------------

#: (name, modality, kind) of every static column, in catalog order.
STATIC_CATALOG = (
    ("media_type", "visual", "categorical"),
    ("image_height", "visual", "numeric"),
    ("image_width", "visual", "numeric"),
    ("key_objects_primary", "visual", "categorical"),
    ("composition", "visual", "categorical"),
    ("panels", "visual", "categorical"),
    ("template_is_variant", "visual", "numeric"),
    ("template_name", "visual", "categorical"),
    ("facial_expression_is_face", "visual", "numeric"),
    ("facial_expression_primary_emotion", "visual", "categorical"),
    ("identified_person_is_celebrity", "visual", "numeric"),
    ("identified_person_is_character", "visual", "numeric"),
    ("identified_character_name", "visual", "categorical"),
    ("identified_person_celebrity_name", "visual", "categorical"),
    ("text_language", "textual", "categorical"),
    ("text_sentiment_overall", "textual", "categorical"),
    ("text_word_count", "textual", "numeric"),
    ("text_image_alignment", "textual", "categorical"),
    ("text_tone", "textual", "categorical"),
    ("is_title_present", "textual", "numeric"),
    ("title_word_count", "textual", "numeric"),
    ("title_sentiment", "textual", "categorical"),
    ("is_offensive", "contextual", "numeric"),
    ("offense_type", "contextual", "categorical"),
    ("cultural_reference_type", "contextual", "categorical"),
    ("primary_topic", "contextual", "categorical"),
    ("target_audience", "contextual", "categorical"),
    ("meme_type", "contextual", "categorical"),
    ("analyzed_media_type", "contextual", "categorical"),
    ("title_media_coherence", "contextual", "categorical"),
    ("controversy_score", "contextual", "numeric"),
    ("controversy_type", "contextual", "categorical"),
    ("emotional_resonance", "contextual", "categorical"),
    ("humor_type", "contextual", "categorical"),
    ("insight_commentary_score", "contextual", "numeric"),
    ("novelty_uniqueness_score", "contextual", "numeric"),
    ("profanity_level", "contextual", "categorical"),
    ("relatability_score", "contextual", "numeric"),
    ("format_effort", "contextual", "categorical"),
    ("format_simplicity", "contextual", "numeric"),
    ("format_appeal", "contextual", "numeric"),
    ("format_clarity", "contextual", "numeric"),
    ("social_platform", "contextual", "categorical"),
    ("social_shareability", "contextual", "categorical"),
    ("social_currency", "contextual", "categorical"),
    ("social_trend", "contextual", "categorical"),
)


# -- tree learners --------------------------------------------------------------


class ReferenceNode:
    __slots__ = ("feature", "threshold", "left", "right", "prob")

    def __init__(self, prob):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.prob = prob


def reference_preorder(root):
    """(feature, threshold, prob) of every node, root first, left before right."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append((node.feature, node.threshold, node.prob))
        if node.feature >= 0:
            stack += [node.right, node.left]
    return out


def reference_fit_random_forest(
    X, y, n_trees=100, max_features="sqrt", min_samples_split=2, max_depth=None, seed=42
):
    """(linked-node trees, importances) of the bagged Gini forest."""
    X, y = check_training_data(X, y)
    n, d = X.shape
    keys = (y.astype(np.float64),) + tuple(X[:, j] for j in range(d - 1, -1, -1))
    order = np.lexsort(keys)
    Xc, yc = X[order], y[order].astype(np.float64)
    mtry = max(1, int(np.sqrt(d))) if max_features == "sqrt" else max(1, int(max_features))
    depth_cap = np.inf if max_depth is None else max_depth

    importance = np.zeros(d)
    trees = []
    for child_seq in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seq)
        boot = rng.integers(0, n, size=n)
        tree_imp = np.zeros(d)
        root = _reference_build_node(Xc[boot], yc[boot], rng, mtry, min_samples_split, depth_cap, 0, tree_imp, n)
        total = tree_imp.sum()
        if total > 0:
            importance += tree_imp / total
        trees.append(root)
    total = importance.sum()
    if total > 0:
        importance /= total
    return trees, importance


def reference_forest_predict_proba(trees, X):
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(len(X))
    for root in trees:
        pred = np.empty(len(X))
        stack = [(root, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.feature < 0 or len(rows) == 0:
                pred[rows] = node.prob
                continue
            go_left = X[rows, node.feature] < node.threshold
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
        out += pred
    return out / len(trees)


def _gini_vec(n_pos, n):
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


def _reference_build_node(Xn, yn, rng, mtry, min_samples_split, depth_cap, depth, tree_imp, n_total):
    n = len(yn)
    n_pos = float(yn.sum())
    node = ReferenceNode(prob=n_pos / n)
    p = n_pos / n
    parent_gini = 2.0 * p * (1.0 - p)
    if n < min_samples_split or parent_gini == 0.0 or depth >= depth_cap:
        return node

    d = Xn.shape[1]
    candidates = np.sort(rng.choice(d, size=min(mtry, d), replace=False))
    best_imp, best_j, best_thr = 0.0, -1, 0.0
    for j in candidates:
        col = Xn[:, j]
        sort_idx = np.argsort(col, kind="mergesort")
        vals = col[sort_idx]
        cut = np.nonzero(vals[:-1] < vals[1:])[0]
        if len(cut) == 0:
            continue
        pos_cum = np.cumsum(yn[sort_idx])[cut]
        n_left = cut + 1.0
        n_right = n - n_left
        pos_right = n_pos - pos_cum
        child = (n_left * _gini_vec(pos_cum, n_left) + n_right * _gini_vec(pos_right, n_right)) / n
        improvement = parent_gini - child
        b = int(np.argmax(improvement))
        if best_j < 0 or improvement[b] > best_imp + 1e-15:
            lo, hi = float(vals[cut[b]]), float(vals[cut[b] + 1])
            mid = (lo + hi) / 2.0
            best_imp = float(improvement[b])
            best_j = int(j)
            best_thr = mid if lo < mid else hi

    if best_j < 0:
        return node

    go_left = Xn[:, best_j] < best_thr
    tree_imp[best_j] += (n / n_total) * best_imp
    node.feature = best_j
    node.threshold = best_thr
    node.left = _reference_build_node(
        Xn[go_left], yn[go_left], rng, mtry, min_samples_split, depth_cap, depth + 1, tree_imp, n_total
    )
    node.right = _reference_build_node(
        Xn[~go_left], yn[~go_left], rng, mtry, min_samples_split, depth_cap, depth + 1, tree_imp, n_total
    )
    return node


def reference_fit_gbt(
    X, y, n_rounds=100, learning_rate=0.3, max_depth=6, min_child_weight=1.0, reg_lambda=1.0,
    max_bins=64, scale_pos_weight="auto",
):
    X, y = check_training_data(X, y)
    n, d = X.shape
    if scale_pos_weight == "auto":
        n_pos = int(np.sum(y == 1))
        spw = (n - n_pos) / n_pos
    else:
        spw = float(scale_pos_weight)
    w = np.where(y == 1, spw, 1.0).astype(np.float64)

    base_rate = float(np.sum(w * y) / np.sum(w))
    base_rate = min(max(base_rate, 1e-12), 1.0 - 1e-12)
    base_logit = float(np.log(base_rate / (1.0 - base_rate)))

    codes, thresholds = _bin_columns(X, max_bins)
    n_bins = max(int(codes.max()) + 1, 2) if d else 2
    feat_offsets = (np.arange(d, dtype=np.int64) * n_bins)[None, :]
    codes64 = codes.astype(np.int64) + feat_offsets

    gain_imp = np.zeros(d)
    cover_imp = np.zeros(d)
    freq_imp = np.zeros(d)
    trees = []
    margin = np.full(n, base_logit)
    for _ in range(n_rounds):
        p = sigmoid(margin)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        tree = _reference_grow_tree(
            codes64, thresholds, g, h,
            n_bins=n_bins, max_depth=max_depth,
            min_child_weight=min_child_weight, reg_lambda=reg_lambda,
            learning_rate=learning_rate,
            gain_imp=gain_imp, cover_imp=cover_imp, freq_imp=freq_imp,
            margin=margin,
        )
        trees.append(tree)
    return GBTModel(base_logit, trees, d, gain_imp, cover_imp, freq_imp)


def _reference_grow_tree(
    codes64, thresholds, g, h, *, n_bins, max_depth, min_child_weight,
    reg_lambda, learning_rate, gain_imp, cover_imp, freq_imp, margin,
):
    n, d = codes64.shape
    lam = reg_lambda

    feature = [-1]
    value = [0.0]
    left = [-1]
    right = [-1]
    leaf_value = [0.0]

    row_node = np.zeros(n, dtype=np.int32)
    frontier = [0]
    hists = {}
    derive_from = {}

    for depth in range(max_depth + 1):
        if not frontier:
            break
        to_compute = [nid for nid in frontier if nid not in derive_from]
        if to_compute and d:
            slot = np.full(len(feature), -1, dtype=np.int64)
            for k, nid in enumerate(to_compute):
                slot[nid] = k
            row_slot = slot[row_node]
            rows = np.nonzero(row_slot >= 0)[0]
            flat = (row_slot[rows, None] * (d * n_bins) + codes64[rows]).ravel()
            size = len(to_compute) * d * n_bins
            hist_g = np.bincount(flat, weights=np.repeat(g[rows], d), minlength=size)
            hist_h = np.bincount(flat, weights=np.repeat(h[rows], d), minlength=size)
            hist_n = np.bincount(flat, minlength=size).astype(np.float64)
            hist_g = hist_g.reshape(len(to_compute), d, n_bins)
            hist_h = hist_h.reshape(len(to_compute), d, n_bins)
            hist_n = hist_n.reshape(len(to_compute), d, n_bins)
            for k, nid in enumerate(to_compute):
                hists[nid] = (hist_g[k], hist_h[k], hist_n[k])
        for nid in frontier:
            if nid in derive_from:
                pid, sib = derive_from.pop(nid)
                pg, ph, pn = hists.pop(pid)
                sg, sh, sn = hists[sib]
                hists[nid] = (pg - sg, ph - sh, pn - sn)

        next_frontier = []
        for nid in frontier:
            hg, hh, hn = hists[nid] if d else (None, None, None)
            G = float(hg[0].sum()) if d else 0.0
            H = float(hh[0].sum()) if d else 0.0
            N = float(hn[0].sum()) if d else float(n)
            make_leaf = True
            if d and N >= 2 and depth < max_depth:
                GLc = np.cumsum(hg, axis=1)
                HLc = np.cumsum(hh, axis=1)
                NLc = np.cumsum(hn, axis=1)
                GR = G - GLc
                HR = H - HLc
                NR = N - NLc
                parent_score = G * G / (H + lam)
                gains = 0.5 * (GLc**2 / (HLc + lam) + GR**2 / (HR + lam) - parent_score)
                valid = (HLc >= min_child_weight) & (HR >= min_child_weight) & (NLc >= 1) & (NR >= 1)
                gains = np.where(valid, gains, -np.inf)
                best_flat = int(np.argmax(gains))
                best_gain = float(gains.ravel()[best_flat])
                if np.isfinite(best_gain) and best_gain >= -_GAIN_EPS:
                    bj, bb = divmod(best_flat, n_bins)
                    gain_imp[bj] += max(best_gain, 0.0)
                    cover_imp[bj] += H
                    freq_imp[bj] += 1.0
                    lid, rid = len(feature), len(feature) + 1
                    feature.extend([-1, -1])
                    value.extend([0.0, 0.0])
                    left.extend([-1, -1])
                    right.extend([-1, -1])
                    leaf_value.extend([0.0, 0.0])
                    feature[nid] = bj
                    value[nid] = float(thresholds[bj][bb]) if bb < len(thresholds[bj]) else np.inf
                    left[nid] = lid
                    right[nid] = rid
                    node_rows = np.nonzero(row_node == nid)[0]
                    goes_left = codes64[node_rows, bj] - bj * n_bins <= bb
                    row_node[node_rows] = np.where(goes_left, lid, rid)
                    n_left = float(NLc[bj, bb])
                    small, big = (lid, rid) if n_left <= N - n_left else (rid, lid)
                    derive_from[big] = (nid, small)
                    next_frontier.extend([lid, rid])
                    make_leaf = False
            if make_leaf:
                leaf_value[nid] = learning_rate * (-G / (H + lam))
                hists.pop(nid, None)
        frontier = next_frontier

    tree = _Tree(feature, value, left, right, leaf_value)
    margin += tree.leaf_value[row_node]
    return tree
