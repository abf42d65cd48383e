"""Data-driven virality labeling.

Five steps, fitted on training records only and then applied everywhere:

1. the volume metrics per 100k subscribers (:func:`trajectory.per_subscriber`),
   capped at the training split's 99th percentile of the last counts
   (:func:`fit_p99_caps`);
2. an auxiliary random forest trained on early-window engagement features
   against a preliminary top-fraction target, whose averaged importances
   become the hybrid weights (:func:`learn_hybrid_weights`);
3. the hybrid score, a weighted sum of final engagement features
   (:func:`score_records`);
4. a 1-D two-cluster K-Means boundary over the training score distribution
   (:func:`fit_threshold`);
5. the binary label: score at or above the threshold (:func:`assign_labels`).

:class:`LabelingArtifacts` bundles the three fitted artifacts and serializes
them to a versioned file so labeling runs are auditable and reusable.

The labeling features of step 2 (windowed) and step 3 (over each post's
full horizon) are read from the batched trajectory kernel
(:func:`trajectory.labeling_columns`), the same one that yields the temporal
features, with the window rule of :func:`ingest.observed_count`. A fit pads
its training posts once, for the weight windows' matrices and the
full-horizon one that gives the preliminary target and the training scores.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import models, trajectory
from .errors import DatasetError, DegenerateDistributionError, FitError, SchemaError
from .ingest import PostRecord, load_document, read_list, read_number, read_text

METRICS = trajectory.VOLUME_METRICS

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

ARTIFACTS_FORMAT_VERSION = 1

# Floor for a percentile cap of zero (e.g. crossposts absent corpus-wide):
# keeps caps positive while pinning that metric's contribution to ~nothing.
_MIN_CAP = 1e-9

# Posts padded at a time for the labeling matrices: bounds the padded arrays'
# memory whatever the corpus size (a row does not depend on its batch).
_PAD_CHUNK = 128


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
    """Cap per metric: the 99th percentile of the training posts' last counts
    per 100k subscribers (:func:`trajectory.per_subscriber`).

    Uses linear interpolation between order statistics, so the result is a
    deterministic function of the value multiset (input order irrelevant).
    """
    if not train:
        raise FitError("cannot fit caps on an empty training set")
    for r in train:  # the first post that cannot be normalized
        if r.subreddit.subscribers < 1 or not r.snapshots:
            raise DatasetError(f"post {r.post_id}" + (": subscribers must be >= 1" if r.subreddit.subscribers < 1 else " has no snapshots"))
    caps: dict[str, float] = {}
    for metric in METRICS:
        last = np.array([getattr(r.snapshots, metric)[-1] for r in train], dtype=np.int64)
        cap = float(np.percentile(trajectory.per_subscriber(last, [r.subreddit.subscribers for r in train]), 99.0))
        if not np.isfinite(cap):
            raise FitError(f"non-finite {metric} values in training data")
        caps[metric] = max(cap, _MIN_CAP)
    return NormalizationCaps(caps)


def make_preliminary_target(volumes: np.ndarray, post_ids: Sequence[str], top_frac: float) -> np.ndarray:
    """Top fraction by unweighted sum of the normalized final volume metrics,
    ``volumes`` (posts x :data:`METRICS`, as the first columns of a
    full-horizon labeling matrix hold them).

    Exactly ``ceil(top_frac * n)`` positives; ties are broken by ascending
    post id so the target is deterministic.
    """
    if not 0.0 < top_frac < 1.0:
        raise FitError("top_frac must be in (0, 1)")
    sums = sum(volumes[:, j] for j in range(len(METRICS)))
    order = np.lexsort((np.array(post_ids), -sums))
    labels = np.zeros(len(post_ids), dtype=np.int8)
    labels[order[: math.ceil(top_frac * len(post_ids))]] = 1
    return labels


def labeling_feature_matrices(records: Sequence[PostRecord], caps: NormalizationCaps, windows: Sequence[float | None]) -> list[np.ndarray]:
    """Design matrix of :data:`LABELING_FEATURES` at each of ``windows``
    (None: over the full horizon), from the batched kernel
    (:func:`trajectory.labeling_columns`), padding ``_PAD_CHUNK`` records at
    a time. Takeoff never reached counts as the horizon; nothing observed in
    scope counts as zero engagement."""
    parts = []
    for i in range(0, max(len(records), 1), _PAD_CHUNK):
        batch = trajectory.pad_snapshots(records[i : i + _PAD_CHUNK], caps)
        parts.append([trajectory.labeling_columns(batch, w) for w in windows])
    return [np.concatenate(matrices) for matrices in zip(*parts)]


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
    matrices: Sequence[np.ndarray], prelim: np.ndarray, windows: Sequence[float], seed: int
) -> HybridWeights:
    """Average auxiliary-forest importances over early windows.

    One random forest per window, seeded with ``seed``, is fit on that
    window's labeling design matrix (``matrices[i]`` at ``windows[i]``)
    against the preliminary target; the per-window importance vectors (each
    summing to one) are averaged and then scaled so the strongest feature
    gets weight 1.0.
    """
    if not windows or len(matrices) != len(windows):
        raise FitError("need one labeling matrix per window, and at least one window")
    prelim = np.asarray(prelim).ravel()
    if any(len(X) != len(prelim) for X in matrices):
        raise FitError("prelim labels are not aligned to the labeling matrices")
    if len(np.unique(prelim)) < 2:
        raise FitError("preliminary target is constant")
    config = models.default_config("random_forest", seed=seed)

    acc = np.zeros(len(LABELING_FEATURES))
    for X in matrices:
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


def score_records(
    records: Sequence[PostRecord], caps: NormalizationCaps, weights: HybridWeights
) -> np.ndarray:
    """Hybrid scores over the full tracked horizon for each record."""
    return _score_matrix(labeling_feature_matrices(records, caps, [None])[0], weights)


def _score_matrix(X: np.ndarray, weights: HybridWeights) -> np.ndarray:
    """Hybrid score of each row of a labeling design matrix ``X``."""
    keys = list(weights.weights)
    unknown = set(keys) - set(LABELING_FEATURES)
    if unknown:
        raise SchemaError(f"unknown labeling features {sorted(unknown)}")
    # Columns in the weights' key order, C-ordered: the summation order of
    # the product, and so every score bit, depends on the memory layout.
    order = [LABELING_FEATURES.index(k) for k in keys]
    beta = np.array([weights.weights[k] for k in keys])
    return np.ascontiguousarray(X[:, order]) @ beta


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


def assign_labels(scores: np.ndarray, tau: float) -> np.ndarray:
    """1 (viral) where the hybrid score reaches the threshold (boundary inclusive), else 0."""
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
    #: The training split's hybrid scores that :meth:`fit` set the threshold with; None when loaded.
    train_scores: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def fit(
        cls, train: Sequence[PostRecord], windows: Sequence[float], top_frac: float, seed: int
    ) -> "LabelingArtifacts":
        windows = trajectory.distinct([trajectory.WindowSpec(float(w)).minutes for w in windows], "weight window")
        caps = fit_p99_caps(train)
        *windowed, full = labeling_feature_matrices(train, caps, [*windows, None])
        prelim = make_preliminary_target(full[:, : len(METRICS)], [r.post_id for r in train], top_frac)
        weights = learn_hybrid_weights(windowed, prelim, windows, seed)
        scores = _score_matrix(full, weights)
        threshold = fit_threshold(scores, fingerprint=training_fingerprint(train))
        return cls(caps=caps, weights=weights, threshold=threshold, train_scores=scores)

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
        """The artifacts saved at ``path``: a positive cap for every metric of
        ``METRICS``, as a fit writes; else a SchemaError naming the file and the key."""
        doc = load_document(path, "labeling file", ARTIFACTS_FORMAT_VERSION)
        caps, hw, th = doc.object("caps"), doc.object("hybrid_weights"), doc.object("threshold")
        weights = hw.object("weights")
        unknown = set(weights) - set(LABELING_FEATURES)
        if unknown:
            raise SchemaError(f"unknown labeling features {sorted(unknown)} in artifacts")
        cap = {m: caps.read(m, read_number) for m in METRICS}
        for m, value in cap.items():
            if value <= 0.0:
                raise SchemaError(f"{doc.source}: the cap of {m!r} is not positive ({value})")
        return cls(
            caps=NormalizationCaps(cap),
            weights=HybridWeights(
                # LABELING_FEATURES order, as a fit has it: the scores sum in key order
                weights={k: weights.read(k, read_number) for k in LABELING_FEATURES if k in weights},
                source_windows=tuple(hw.read("source_windows", read_list, item=read_number)),
            ),
            threshold=ViralityThreshold(
                tau=th.read("tau", read_number),
                centroids=tuple(th.read("centroids", read_list, item=read_number, length=2)),
                fitted_on=th.read("fitted_on", read_text),
            ),
        )
