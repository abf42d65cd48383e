"""Data-driven virality labeling.

Five steps, fitted on training records only and then applied everywhere:

1. per-subscriber normalization of the volume metrics, capped at the training
   99th percentile (:func:`normalize_metric`, :func:`fit_p99_caps`);
2. an auxiliary random forest trained on early-window engagement features
   against a preliminary top-fraction target, whose averaged importances
   become the hybrid weights (:func:`learn_hybrid_weights`);
3. the hybrid score, a weighted sum of final engagement features
   (:func:`hybrid_score`);
4. a 1-D two-cluster K-Means boundary over the training score distribution
   (:func:`fit_threshold`);
5. the binary label: score at or above the threshold (:func:`assign_label`).

:class:`LabelingArtifacts` bundles the three fitted artifacts and serializes
them to a versioned file so labeling runs are auditable and reusable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import models, trajectory
from .errors import DegenerateDistributionError, FitError, SchemaError
from .ingest import EngagementSnapshot, PostRecord, load_document, observed_by

METRICS = ("score", "comments", "crossposts")
PER_SUBSCRIBER_SCALE = 100_000.0

#: Feature set for the auxiliary forest and the hybrid score: normalized
#: final volumes plus the dynamic shape of the engagement curve.
LABELING_FEATURES = (
    "norm_score",
    "norm_comments",
    "norm_crossposts",
    "peak_velocity",
    "peak_acceleration",
    "time_to_takeoff",
)

DEFAULT_WEIGHT_WINDOWS = (30.0, 60.0, 120.0)
ARTIFACTS_FORMAT_VERSION = 1

# Floor for a percentile cap of zero (e.g. crossposts absent corpus-wide):
# keeps caps positive while pinning that metric's contribution to ~nothing.
_MIN_CAP = 1e-9


def normalize_metric(raw: float, subscribers: int, cap: float) -> float:
    """Engagement per 100k subscribers, clipped at the training cap."""
    if subscribers < 1:
        raise ValueError("subscribers must be >= 1")
    return min(raw / subscribers * PER_SUBSCRIBER_SCALE, cap)


@dataclass(frozen=True)
class NormalizationCaps:
    """Per-metric P99 caps (per-100k-subscriber units), fitted on train."""

    caps: dict[str, float]

    def cap_for(self, metric: str) -> float:
        try:
            return self.caps[metric]
        except KeyError:
            raise SchemaError(f"no cap fitted for metric {metric!r}") from None

    def to_json_dict(self) -> dict:
        return {m: self.caps[m] for m in METRICS}


def fit_p99_caps(train: Sequence[PostRecord]) -> NormalizationCaps:
    """Cap per metric: the 99th percentile of final per-100k values on train.

    Uses linear interpolation between order statistics, so the result is a
    deterministic function of the value multiset (input order irrelevant).
    """
    if not train:
        raise FitError("cannot fit caps on an empty training set")
    caps: dict[str, float] = {}
    for metric in METRICS:
        vals = np.array(
            [
                getattr(r.last_snapshot(), metric) / r.subreddit.subscribers * PER_SUBSCRIBER_SCALE
                for r in train
            ],
            dtype=np.float64,
        )
        cap = float(np.percentile(vals, 99.0))
        if not np.isfinite(cap):
            raise FitError(f"non-finite {metric} values in training data")
        caps[metric] = max(cap, _MIN_CAP)
    return NormalizationCaps(caps)


def make_preliminary_target(
    train: Sequence[PostRecord], caps: NormalizationCaps, top_frac: float = 0.05
) -> np.ndarray:
    """Top fraction by unweighted sum of the normalized final volume metrics.

    Exactly ``ceil(top_frac * n)`` positives; ties are broken by ascending
    post id so the target is deterministic.
    """
    if not 0.0 < top_frac < 1.0:
        raise FitError("top_frac must be in (0, 1)")
    n = len(train)
    sums = np.array(
        [
            sum(
                normalize_metric(
                    getattr(r.last_snapshot(), m), r.subreddit.subscribers, caps.cap_for(m)
                )
                for m in METRICS
            )
            for r in train
        ]
    )
    ids = np.array([r.post_id for r in train])
    order = np.lexsort((ids, -sums))
    n_pos = math.ceil(top_frac * n)
    labels = np.zeros(n, dtype=np.int8)
    labels[order[:n_pos]] = 1
    return labels


@dataclass(frozen=True)
class EngagementCurve:
    """A post's curve up to a window, the one source of the hybrid score's
    inputs and of the temporal features; ``norm`` is the capped per-100k score."""

    snapshots: tuple[EngagementSnapshot, ...]
    t: np.ndarray
    norm: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    takeoff: tuple[float, float] | None  # (time, velocity there), None if never
    norm_comments: float
    norm_crossposts: float


def engagement_curve(record: PostRecord, caps: NormalizationCaps, window_minutes: float | None = None) -> EngagementCurve | None:
    """The curve over snapshots with t <= W (all when W is None); None if nothing was observed by W."""
    snaps = record.snapshots if window_minutes is None else observed_by(record, window_minutes)
    if not snaps:
        return None
    subs = record.subreddit.subscribers
    t = np.array([s.t_minutes for s in snaps])
    norm = np.array([normalize_metric(s.score, subs, caps.cap_for("score")) for s in snaps])
    return EngagementCurve(
        snapshots=snaps,
        t=t,
        norm=norm,
        velocity=trajectory.velocity_series(t, norm)[1],
        acceleration=trajectory.acceleration_series(t, norm)[1],
        takeoff=trajectory.takeoff_point(t, norm),
        norm_comments=normalize_metric(snaps[-1].comments, subs, caps.cap_for("comments")),
        norm_crossposts=normalize_metric(snaps[-1].crossposts, subs, caps.cap_for("crossposts")),
    )


def labeling_feature_matrix(records: Sequence[PostRecord], caps: NormalizationCaps, window_minutes: float | None = None) -> np.ndarray:
    """Design matrix of :data:`LABELING_FEATURES`, windowed or over the full
    horizon. Takeoff never reached counts as the horizon; nothing observed in
    scope counts as zero engagement."""
    rows = []
    for record in records:
        c = engagement_curve(record, caps, window_minutes)
        if c is None:
            rows.append([0.0] * 5 + [window_minutes if window_minutes is not None else 0.0])
            continue
        horizon = window_minutes if window_minutes is not None else float(c.t[-1])
        peak_v = float(np.max(c.velocity)) if len(c.velocity) else 0.0
        peak_a = float(np.max(c.acceleration)) if len(c.acceleration) else 0.0
        takeoff = c.takeoff[0] if c.takeoff is not None else horizon
        rows.append([float(c.norm[-1]), c.norm_comments, c.norm_crossposts, peak_v, peak_a, takeoff])
    return np.array(rows)


@dataclass(frozen=True)
class HybridWeights:
    """Learned mixing weights, scaled so the top feature's is 1.0."""

    weights: dict[str, float]
    source_windows: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "weights": {k: self.weights[k] for k in sorted(self.weights)},
            "source_windows": list(self.source_windows),
        }


def learn_hybrid_weights(
    train: Sequence[PostRecord],
    prelim: np.ndarray,
    caps: NormalizationCaps,
    windows: Sequence[float] = DEFAULT_WEIGHT_WINDOWS,
    forest_config: models.ModelConfig | None = None,
) -> HybridWeights:
    """Average auxiliary-forest importances over early windows.

    One random forest per window is fit on the windowed labeling features
    against the preliminary target; the per-window importance vectors (each
    summing to one) are averaged and then scaled so the strongest feature
    gets weight 1.0.
    """
    if not windows:
        raise FitError("need at least one window to learn weights")
    prelim = np.asarray(prelim).ravel()
    if len(prelim) != len(train):
        raise FitError("prelim labels are not aligned to the training records")
    if len(np.unique(prelim)) < 2:
        raise FitError("preliminary target is constant")
    config = forest_config or models.default_config("random_forest")

    acc = np.zeros(len(LABELING_FEATURES))
    for w in windows:
        X = labeling_feature_matrix(train, caps, window_minutes=float(w))
        forest = models.train(config, X, prelim, feature_names=list(LABELING_FEATURES))
        acc += forest.importances
    acc /= len(windows)

    top = acc.max()
    if top <= 0.0:
        raise FitError("all importances are zero; cannot normalize weights")
    acc = acc / top
    return HybridWeights(
        weights={name: float(v) for name, v in zip(LABELING_FEATURES, acc)},
        source_windows=tuple(float(w) for w in windows),
    )


def hybrid_score(features: Mapping[str, float], weights: HybridWeights) -> float:
    """Weighted sum over the feature keys; key sets must match exactly."""
    if set(features) != set(weights.weights):
        missing = set(weights.weights) - set(features)
        extra = set(features) - set(weights.weights)
        raise SchemaError(f"feature keys do not match weights (missing={sorted(missing)}, extra={sorted(extra)})")
    return float(sum(weights.weights[k] * features[k] for k in weights.weights))


def score_records(
    records: Sequence[PostRecord], caps: NormalizationCaps, weights: HybridWeights
) -> np.ndarray:
    """Hybrid scores over the full tracked horizon for each record."""
    keys = list(weights.weights)
    unknown = set(keys) - set(LABELING_FEATURES)
    if unknown:
        raise SchemaError(f"unknown labeling features {sorted(unknown)}")
    # Columns in the weights' key order, C-ordered: the summation order of
    # the product, and so every score bit, depends on the memory layout.
    order = [LABELING_FEATURES.index(k) for k in keys]
    X = np.ascontiguousarray(labeling_feature_matrix(records, caps)[:, order])
    beta = np.array([weights.weights[k] for k in keys])
    return X @ beta


@dataclass(frozen=True)
class ViralityThreshold:
    """K-Means boundary tau with its two centroids and a training fingerprint."""

    tau: float
    centroids: tuple[float, float]
    fitted_on: str

    def to_json_dict(self) -> dict:
        return {"tau": self.tau, "centroids": list(self.centroids), "fitted_on": self.fitted_on}


def fit_threshold(scores: Iterable[float], fingerprint: str = "unspecified") -> ViralityThreshold:
    """1-D K-Means (k=2) with deterministic quantile init; tau = centroid midpoint.

    Centroids start at the 10th and 90th percentiles (falling back to min/max
    when those coincide) and Lloyd iterations run until assignments stop
    changing, for at most 200 iterations.
    """
    x = np.asarray(list(scores), dtype=np.float64)
    if len(np.unique(x)) < 2:
        raise DegenerateDistributionError("all scores identical; no threshold exists")
    lo, hi = np.percentile(x, [10.0, 90.0])
    if lo == hi:
        lo, hi = float(x.min()), float(x.max())
    centroids = np.array([lo, hi], dtype=np.float64)

    assign = None
    for _ in range(200):
        # nearest centroid; ties go to the lower one
        new_assign = np.abs(x - centroids[1]) < np.abs(x - centroids[0])
        for side in (False, True):
            members = x[new_assign == side]
            if len(members):
                centroids[int(side)] = members.mean()
            else:
                centroids[int(side)] = x.max() if side else x.min()
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign

    low, high = sorted((float(centroids[0]), float(centroids[1])))
    return ViralityThreshold(tau=(low + high) / 2.0, centroids=(low, high), fitted_on=fingerprint)


def assign_label(score: float, tau: float) -> bool:
    """Viral iff the hybrid score reaches the threshold (boundary inclusive)."""
    return score >= tau


def assign_labels(scores: np.ndarray, tau: float) -> np.ndarray:
    return (np.asarray(scores) >= tau).astype(np.int8)


def training_fingerprint(train: Sequence[PostRecord]) -> str:
    """Record count plus created-range hash, identifying the fitted-on set."""
    if not train:
        return "empty"
    stamps = [r.created_utc for r in train]
    payload = f"{len(train)}:{min(stamps).isoformat()}:{max(stamps).isoformat()}"
    return f"{len(train)}:{hashlib.sha256(payload.encode()).hexdigest()[:12]}"


@dataclass(frozen=True)
class LabelingArtifacts:
    """Everything the labeling procedure learned from the training split."""

    caps: NormalizationCaps
    weights: HybridWeights
    threshold: ViralityThreshold

    @classmethod
    def fit(
        cls,
        train: Sequence[PostRecord],
        windows: Sequence[float] = DEFAULT_WEIGHT_WINDOWS,
        top_frac: float = 0.05,
        forest_config: models.ModelConfig | None = None,
    ) -> "LabelingArtifacts":
        caps = fit_p99_caps(train)
        prelim = make_preliminary_target(train, caps, top_frac=top_frac)
        weights = learn_hybrid_weights(train, prelim, caps, windows=windows, forest_config=forest_config)
        scores = score_records(train, caps, weights)
        threshold = fit_threshold(scores, fingerprint=training_fingerprint(train))
        return cls(caps=caps, weights=weights, threshold=threshold)

    def label_records(self, records: Sequence[PostRecord]) -> tuple[np.ndarray, np.ndarray]:
        """(hybrid scores, binary labels) using the fitted artifacts only."""
        scores = score_records(records, self.caps, self.weights)
        return scores, assign_labels(scores, self.threshold.tau)

    def to_json(self) -> str:
        doc = {
            "format_version": ARTIFACTS_FORMAT_VERSION,
            "caps": self.caps.to_json_dict(),
            "hybrid_weights": self.weights.to_json_dict(),
            "threshold": self.threshold.to_json_dict(),
        }
        return json.dumps(doc, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "LabelingArtifacts":
        doc = load_document(path, "labeling file", ARTIFACTS_FORMAT_VERSION)
        hw = doc["hybrid_weights"]
        th = doc["threshold"]
        unknown = set(hw["weights"]) - set(LABELING_FEATURES)
        if unknown:
            raise SchemaError(f"unknown labeling features {sorted(unknown)} in artifacts")
        return cls(
            caps=NormalizationCaps({k: float(v) for k, v in doc["caps"].items()}),
            weights=HybridWeights(
                # LABELING_FEATURES order, as a fit has it: the scores sum in key order
                weights={k: float(hw["weights"][k]) for k in LABELING_FEATURES if k in hw["weights"]},
                source_windows=tuple(float(w) for w in hw["source_windows"]),
            ),
            threshold=ViralityThreshold(
                tau=float(th["tau"]),
                centroids=(float(th["centroids"][0]), float(th["centroids"][1])),
                fitted_on=str(th["fitted_on"]),
            ),
        )
