"""Windowed feature extraction: temporal, network, and static modalities.

Every extractor sees only the snapshots observed by the window W, and one
function decides which those are: :func:`ingest.observed_by` (t <= W), which
:func:`extract_network` and :func:`labeling.engagement_curve` call. Matrices
are therefore causally safe by construction. Matrix column names are
prefixed with their modality (``temporal__peak_velocity``) to keep names
unique across catalogs; the unprefixed names below follow the published
feature tables.

Conventions for the engineered temporal dynamics:

* velocity is the per-minute first difference of the capped normalized score,
  attributed to each interval's end; acceleration likewise on velocity;
* takeoff is the earliest snapshot with velocity >= 10% of the window peak
  and normalized score >= 1;
* AUC-style quantities integrate the piecewise-linear curve over [0, W] with
  constant extension outside the observed range;
* "not yet happened" is a missing value, never a sentinel number.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import trajectory
from .errors import ConfigError, DatasetError, SchemaError
from .ingest import STATIC_FEATURE_SCHEMA, EngagementSnapshot, PostRecord, coerce_static, load_document, observed_by
from .labeling import NormalizationCaps, engagement_curve

WINDOWED_MODALITIES = ("temporal", "network")
STATIC_MODALITIES = ("visual", "textual", "contextual")
MODALITIES = WINDOWED_MODALITIES + STATIC_MODALITIES

DEFAULT_WINDOW_SWEEP = (30.0, 60.0, 120.0, 180.0, 240.0, 300.0, 360.0, 420.0)

SLOPE_SHORT_MINUTES = 5.0
SLOPE_LONG_MINUTES = 10.0
RANKED_CATEGORIES = ("new", "rising", "hot", "top")


@dataclass(frozen=True)
class WindowSpec:
    """Observation window: all features use only the first `minutes` of data."""

    minutes: float

    def __post_init__(self):
        if self.minutes <= 0:
            raise ConfigError("window minutes must be positive")


@dataclass
class TemporalFeatures:
    """Submission-time and dynamics features over the window (None = missing)."""

    hour_of_day: float
    day_of_week: float
    is_weekend: float
    window_minutes: float
    norm_score: float | None = None
    norm_comments: float | None = None
    norm_crossposts: float | None = None
    upvote_ratio: float | None = None
    peak_velocity: float | None = None
    takeoff_velocity: float | None = None
    peak_acceleration: float | None = None
    min_acceleration: float | None = None
    engagement_auc: float | None = None
    burst_count: float | None = None
    momentum_ratio: float | None = None
    half_life_minutes: float | None = None
    slope_5min: float | None = None
    slope_10min: float | None = None
    time_to_peak: float | None = None
    time_to_takeoff: float | None = None
    timing_entropy: float | None = None
    first_vote_min: float | None = None
    first_comment_min: float | None = None
    first_crosspost_min: float | None = None
    time_in_new: float | None = None
    time_in_rising: float | None = None
    time_in_hot: float | None = None
    time_in_top: float | None = None
    pct_time_in_new: float | None = None
    pct_time_in_rising: float | None = None
    pct_time_in_hot: float | None = None
    pct_time_in_top: float | None = None
    transitions_within: float | None = None
    category_snapshot: str | None = None

    def as_mapping(self) -> dict[str, float | str | None]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class NetworkFeatures:
    """Author standing and category-path features within the window."""

    author_account_age_days: float
    author_is_premium: float
    author_karma_per_day: float
    author_total_karma: float
    category_transitions: float | None = None
    category_stability: float | None = None
    unique_categories: float | None = None
    promotion_demotion_ratio: float | None = None
    progression_pattern: str | None = None
    pct_time_in_new: float | None = None
    time_to_hot: float | None = None
    time_to_rising: float | None = None
    time_to_top: float | None = None

    def as_mapping(self) -> dict[str, float | str | None]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# Catalog entries: (unprefixed name, kind). The static entries are read from
# the static_features blob of data/post_record.schema.json, in its order:
# x-modality names the modality and the JSON type gives the kind.
_STATIC_KINDS = {"number": "numeric", "integer": "numeric", "boolean": "numeric", "string": "categorical"}

TEMPORAL_COLUMNS: tuple[tuple[str, str], ...] = tuple(
    (f.name, "categorical" if f.name == "category_snapshot" else "numeric")
    for f in fields(TemporalFeatures)
)

NETWORK_COLUMNS: tuple[tuple[str, str], ...] = tuple(
    (f.name, "categorical" if f.name == "progression_pattern" else "numeric")
    for f in fields(NetworkFeatures)
)

MODALITY_CATALOG: dict[str, tuple[tuple[str, str], ...]] = {
    "temporal": TEMPORAL_COLUMNS,
    "network": NETWORK_COLUMNS,
    **{
        modality: tuple(
            (name, _STATIC_KINDS[spec["type"]])
            for name, spec in STATIC_FEATURE_SCHEMA.items()
            if spec["x-modality"] == modality
        )
        for modality in STATIC_MODALITIES
    },
}


def extract_temporal(record: PostRecord, w: WindowSpec, caps: NormalizationCaps) -> TemporalFeatures:
    """Temporal features over the window; empty windows keep only the
    submission-time fields and mark every dynamic field missing."""
    created = record.created_utc
    out = TemporalFeatures(
        hour_of_day=float(created.hour),
        day_of_week=float(created.weekday()),
        is_weekend=float(created.weekday() >= 5),
        window_minutes=float(w.minutes),
    )
    curve = engagement_curve(record, caps, w.minutes)
    if curve is None:
        return out
    snaps, t, norm, v, a = curve.snapshots, curve.t, curve.norm, curve.velocity, curve.acceleration

    out.norm_score = float(norm[-1])
    out.norm_comments = curve.norm_comments
    out.norm_crossposts = curve.norm_crossposts
    out.upvote_ratio = snaps[-1].upvote_ratio
    out.category_snapshot = snaps[-1].category

    if len(v):
        out.peak_velocity = float(np.max(v))
        out.burst_count = float(trajectory.burst_count(v))
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
    if curve.takeoff is not None:
        out.time_to_takeoff, out.takeoff_velocity = curve.takeoff

    for attr, metric in (("first_vote_min", "score"), ("first_comment_min", "comments"), ("first_crosspost_min", "crossposts")):
        setattr(out, attr, next((float(s.t_minutes) for s in snaps if getattr(s, metric) > 0), None))

    out.transitions_within, time_in = _category_path(snaps, w.minutes)
    for cat in RANKED_CATEGORIES:
        setattr(out, f"time_in_{cat}", time_in[cat])
        setattr(out, f"pct_time_in_{cat}", time_in[cat] / w.minutes)
    return out


def _category_path(snaps: Sequence[EngagementSnapshot], window: float) -> tuple[float, dict[str, float]]:
    """Category changes between consecutive snapshots, and the left-attributed
    dwell time per ranked category: the state observed at t_i persists over
    [t_i, t_{i+1}) and the last one through W; time before the first snapshot
    stays unattributed ("unknown" absorbs it)."""
    time_in = {c: 0.0 for c in RANKED_CATEGORIES}
    ends = [s.t_minutes for s in snaps[1:]] + [window]
    for snap, end in zip(snaps, ends):
        if snap.category in time_in:
            time_in[snap.category] += max(0.0, end - snap.t_minutes)
    transitions = sum(a.category != b.category for a, b in zip(snaps, snaps[1:]))
    return float(transitions), time_in


def extract_network(record: PostRecord, w: WindowSpec) -> NetworkFeatures:
    """Author standing plus the category path observed within the window."""
    author = record.author
    out = NetworkFeatures(
        author_account_age_days=float(author.account_age_days),
        author_is_premium=float(author.is_premium),
        author_karma_per_day=float(author.total_karma) / max(author.account_age_days, 1.0),
        author_total_karma=float(author.total_karma),
    )
    snaps = observed_by(record, w.minutes)
    if not snaps:
        return out

    cats = [s.category for s in snaps]
    transitions, time_in = _category_path(snaps, w.minutes)
    out.category_transitions = transitions
    out.category_stability = 1.0 - transitions / (len(cats) - 1) if len(cats) > 1 else 1.0
    out.unique_categories = float(len(set(cats)))

    rank = {c: i for i, c in enumerate(RANKED_CATEGORIES)}
    moves = [rank[b] > rank[a] for a, b in zip(cats, cats[1:]) if a in rank and b in rank and a != b]
    promotions, demotions = sum(moves), len(moves) - sum(moves)
    out.promotion_demotion_ratio = promotions / demotions if demotions else float(promotions)

    path = [c for i, c in enumerate(cats) if i == 0 or cats[i - 1] != c]
    out.progression_pattern = ">".join(path[:4]) + (">+" if len(path) > 4 else "")
    out.pct_time_in_new = time_in["new"] / w.minutes

    for cat, attr in (("hot", "time_to_hot"), ("rising", "time_to_rising"), ("top", "time_to_top")):
        hit = next((s.t_minutes for s in snaps if s.category == cat), None)
        setattr(out, attr, float(hit) if hit is not None else None)
    return out


def extract_static(record: PostRecord) -> dict[str, dict[str, float | str | None]]:
    """Static blob pass-through per modality catalog, plus local title fallbacks."""
    blob = record.static_features or {}
    out: dict[str, dict[str, float | str | None]] = {}
    for modality in STATIC_MODALITIES:
        values: dict[str, float | str | None] = {}
        for name, kind in MODALITY_CATALOG[modality]:
            value = coerce_static(blob.get(name), kind)
            if isinstance(value, float) and not math.isfinite(value):
                raise DatasetError(f"post {record.post_id}: static feature {name!r} is not finite ({value})")
            values[name] = value
        out[modality] = values
    textual = out["textual"]
    if textual["title_word_count"] is None:
        textual["title_word_count"] = float(len(record.title.split()))
    if textual["is_title_present"] is None:
        textual["is_title_present"] = float(bool(record.title.strip()))
    return out


@dataclass(frozen=True)
class ColumnSpec:
    """One matrix column: prefixed unique name, source modality, value kind."""

    name: str
    modality: str
    kind: str

    @property
    def base_name(self) -> str:
        return self.name.split("__", 1)[1]


class FeatureMatrix:
    """Rectangular window-scoped features with per-column modality tags.

    Numeric columns are float arrays with NaN for missing; categorical
    columns are object arrays with None for missing.
    """

    def __init__(self, row_ids: Sequence[str], columns: Sequence[ColumnSpec], data: dict[str, np.ndarray]):
        self.row_ids = list(row_ids)
        self.columns = list(columns)
        self.data = data
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in feature matrix")
        for c in self.columns:
            if len(data[c.name]) != len(self.row_ids):
                raise SchemaError(f"column {c.name} length does not match row count")

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.data[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def spec(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"unknown column {name!r}")

    def take(self, indices: Sequence[int]) -> "FeatureMatrix":
        idx = np.asarray(indices)
        return FeatureMatrix(
            [self.row_ids[i] for i in idx],
            self.columns,
            {name: arr[idx] for name, arr in self.data.items()},
        )

    def join(self, other: "FeatureMatrix") -> "FeatureMatrix":
        """This matrix's columns followed by ``other``'s, over the same rows."""
        if other.row_ids != self.row_ids:
            raise SchemaError("cannot join feature matrices over different rows")
        return FeatureMatrix(self.row_ids, self.columns + other.columns, {**self.data, **other.data})

    def without_modality(self, modality: str) -> "FeatureMatrix":
        """The same rows with one modality's columns dropped."""
        if modality not in MODALITIES:
            raise ConfigError(f"unknown modality {modality!r}")
        kept = [c for c in self.columns if c.modality != modality]
        return FeatureMatrix(self.row_ids, kept, {c.name: self.data[c.name] for c in kept})

    def to_csv(self, path: str | Path) -> Path:
        """Write values plus a `<stem>.manifest.json` sidecar; returns the sidecar path."""
        path = Path(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["post_id", *self.column_names])
            for i, rid in enumerate(self.row_ids):
                row = [rid]
                for c in self.columns:
                    v = self.data[c.name][i]
                    if c.kind == "numeric":
                        row.append("" if np.isnan(v) else repr(float(v)))
                    else:
                        row.append("" if v is None else str(v))
                writer.writerow(row)
        manifest = path.with_suffix(".manifest.json")
        manifest.write_text(
            json.dumps(
                {
                    "n_rows": self.n_rows,
                    "columns": [
                        {"name": c.name, "modality": c.modality, "kind": c.kind} for c in self.columns
                    ],
                },
                indent=2,
            ),
            encoding="utf-8",
        )
        return manifest

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureMatrix":
        path = Path(path)
        manifest = load_document(path.with_suffix(".manifest.json"), "feature-matrix manifest", None)
        columns = [ColumnSpec(c["name"], c["modality"], c["kind"]) for c in manifest["columns"]]
        by_name = {c.name: c for c in columns}
        row_ids: list[str] = []
        raw: dict[str, list] = {c.name: [] for c in columns}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[0] != "post_id" or set(header[1:]) != set(by_name):
                raise SchemaError("values file does not match its manifest")
            for row in reader:
                row_ids.append(row[0])
                for name, cell in zip(header[1:], row[1:]):
                    raw[name].append(cell)
        data: dict[str, np.ndarray] = {}
        for c in columns:
            cells = raw[c.name]
            if c.kind == "numeric":
                data[c.name] = np.array([np.nan if v == "" else float(v) for v in cells])
            else:
                data[c.name] = np.array([None if v == "" else v for v in cells], dtype=object)
        return cls(row_ids, columns, data)


def assemble_matrix(
    records: Sequence[PostRecord],
    w: WindowSpec,
    caps: NormalizationCaps,
    include_modalities: Iterable[str] | None = None,
) -> FeatureMatrix:
    """One row per record, columns restricted to the requested modalities.

    Column order is deterministic: modality in canonical order, then name.
    Records without a static blob get missing-valued static columns.
    """
    include = set(MODALITIES if include_modalities is None else include_modalities)
    unknown = include - set(MODALITIES)
    if unknown:
        raise ConfigError(f"unknown modalities: {sorted(unknown)}")
    columns = [
        ColumnSpec(f"{m}__{name}", m, kind) for m in MODALITIES if m in include for name, kind in sorted(MODALITY_CATALOG[m])
    ]

    cells: dict[str, list] = {c.name: [] for c in columns}
    for record in records:
        values: dict[str, dict[str, float | str | None]] = {}
        if "temporal" in include:
            values["temporal"] = extract_temporal(record, w, caps).as_mapping()
        if "network" in include:
            values["network"] = extract_network(record, w).as_mapping()
        if include & set(STATIC_MODALITIES):
            values.update(extract_static(record))
        for c in columns:
            cells[c.name].append(values[c.modality][c.base_name])

    data = {
        c.name: np.array([np.nan if v is None else float(v) for v in cells[c.name]], dtype=np.float64)
        if c.kind == "numeric"
        else np.array([None if v is None else str(v) for v in cells[c.name]], dtype=object)
        for c in columns
    }
    return FeatureMatrix([r.post_id for r in records], columns, data)
