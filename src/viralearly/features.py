"""Windowed feature extraction: temporal, network, and static modalities.

The temporal and network columns come from the batched kernel in
:mod:`trajectory`: a split's snapshots are padded into arrays once, and each
window reduces every post's observed prefix at once. Which snapshots a
window W observes is decided in one place, :func:`ingest.observed_count`
(t <= W), so matrices are causally safe by construction;
:func:`extract_temporal` and :func:`extract_network` are one-row calls of the
same kernel. Matrix column names are
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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import trajectory
from .errors import ConfigError, DatasetError, SchemaError
from .ingest import STATIC_FEATURES, PostRecord, load_document, read_static, read_text
from .labeling import METRICS, NormalizationCaps
from .trajectory import WindowSpec

WINDOWED_MODALITIES = ("temporal", "network")
STATIC_MODALITIES = ("visual", "textual", "contextual")
MODALITIES = WINDOWED_MODALITIES + STATIC_MODALITIES

DEFAULT_WINDOW_SWEEP = (30.0, 60.0, 120.0, 180.0, 240.0, 300.0, 360.0, 420.0)

# Network columns do not read the normalized volumes, so no caps bound them.
_UNCAPPED = NormalizationCaps({m: math.inf for m in METRICS})


def window_name(minutes: float) -> str:
    """A window as output file names spell it: integral minutes as an integer
    (``120``), any other exactly (``30.2``), so distinct windows never share a file."""
    return str(int(minutes)) if float(minutes).is_integer() else repr(float(minutes))


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


# Catalog entries: (unprefixed name, kind). The static entries are the known
# keys of ingest.STATIC_FEATURES, in the schema's order, with their kinds.
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
        modality: tuple((name, f.kind) for name, f in STATIC_FEATURES.items() if f.modality == modality)
        for modality in STATIC_MODALITIES
    },
}


def _post_columns(records: Sequence[PostRecord], w: WindowSpec) -> dict[str, np.ndarray]:
    """The windowed modalities' columns read from each post, not its snapshots."""
    created = [r.created_utc for r in records]
    authors = [r.author for r in records]
    return {
        "hour_of_day": np.array([float(c.hour) for c in created]),
        "day_of_week": np.array([float(c.weekday()) for c in created]),
        "is_weekend": np.array([float(c.weekday() >= 5) for c in created]),
        "window_minutes": np.full(len(records), float(w.minutes)),
        "author_account_age_days": np.array([float(a.account_age_days) for a in authors]),
        "author_is_premium": np.array([float(a.is_premium) for a in authors]),
        "author_karma_per_day": np.array([float(a.total_karma) / max(a.account_age_days, 1.0) for a in authors]),
        "author_total_karma": np.array([float(a.total_karma) for a in authors]),
    }


def _windowed_columns(records: Sequence[PostRecord], w: WindowSpec, batch: trajectory.SnapshotBatch) -> dict[str, np.ndarray]:
    return {**_post_columns(records, w), **trajectory.window_columns(batch, w.minutes)}


def _scalar(value):
    """A kernel cell as the feature dataclasses hold it: a float, a name or None."""
    if value is None or isinstance(value, str):
        return value
    return None if math.isnan(value) else float(value)


def _one_row(cls, record: PostRecord, w: WindowSpec, caps: NormalizationCaps):
    columns = _windowed_columns([record], w, trajectory.pad_snapshots([record], caps))
    return cls(**{f.name: _scalar(columns[f.name][0]) for f in fields(cls)})


def extract_temporal(record: PostRecord, w: WindowSpec, caps: NormalizationCaps) -> TemporalFeatures:
    """Temporal features over the window, one row of the batched kernel; empty
    windows keep only the submission-time fields and mark every dynamic field
    missing."""
    return _one_row(TemporalFeatures, record, w, caps)


def extract_network(record: PostRecord, w: WindowSpec) -> NetworkFeatures:
    """Author standing plus the category path observed within the window, one
    row of the batched kernel (the network columns do not use the caps)."""
    return _one_row(NetworkFeatures, record, w, _UNCAPPED)


def extract_static(record: PostRecord) -> dict[str, dict[str, float | str | None]]:
    """The static blob's values per modality catalog, each read by its schema
    type (:func:`ingest.read_static`), plus local title fallbacks for missing
    ones; a value off its type is a DatasetError naming the post and the key."""
    blob = record.static_features or {}
    try:
        out = {m: {name: read_static(blob.get(name), name) for name, _ in MODALITY_CATALOG[m]} for m in STATIC_MODALITIES}
    except DatasetError as exc:
        raise DatasetError(f"post {record.post_id}: {exc}") from None
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

    @classmethod
    def read(cls, doc) -> "ColumnSpec":
        """The column saved as an object of a file read by :func:`ingest.load_document`;
        a modality or kind this module does not know is a :class:`SchemaError`."""
        spec = cls(*(doc.read(key, read_text) for key in ("name", "modality", "kind")))
        for key, known in (("modality", MODALITIES), ("kind", ("numeric", "categorical"))):
            if getattr(spec, key) not in known:
                raise SchemaError(f"{doc.source}: {key!r} of {spec.name!r} is not one of {', '.join(known)} ({getattr(spec, key)!r})")
        return spec


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
            json.dumps({"n_rows": self.n_rows, "columns": [asdict(c) for c in self.columns]}, indent=2), encoding="utf-8"
        )
        return manifest

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureMatrix":
        path = Path(path)
        manifest = load_document(path.with_suffix(".manifest.json"), "feature-matrix manifest", None)
        columns = [ColumnSpec.read(c) for c in manifest.objects("columns")]
        by_name = {c.name: c for c in columns}
        row_ids: list[str] = []
        raw: dict[str, list] = {c.name: [] for c in columns}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])  # an empty file has no header to match
            if header[:1] != ["post_id"] or set(header[1:]) != set(by_name):
                raise SchemaError(f"values file {path} does not match its manifest")
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise SchemaError(f"values file {path} row {i} has {len(row)} cells, the header {len(header)}")
                row_ids.append(row[0])
                for name, cell in zip(header[1:], row[1:]):
                    raw[name].append(cell)
        data: dict[str, np.ndarray] = {}
        for c in columns:
            cells = raw[c.name]
            if c.kind == "numeric":
                data[c.name] = np.array([_read_cell(v, path, i, c.name) for i, v in enumerate(cells, start=1)])
            else:
                data[c.name] = np.array([None if v == "" else v for v in cells], dtype=object)
        return cls(row_ids, columns, data)


def _read_cell(cell: str, path: Path, row: int, column: str) -> float:
    """A numeric cell of a values file: a finite number, or NaN when empty."""
    try:
        value = float(cell or "nan")
    except ValueError:
        value = math.inf
    if cell and not math.isfinite(value):
        raise SchemaError(f"values file {path} row {row}, column {column!r}: {cell!r} is not a finite number")
    return value


def assemble_matrix(
    records: Sequence[PostRecord],
    w: WindowSpec,
    caps: NormalizationCaps,
    include_modalities: Iterable[str] | None = None,
    batch: trajectory.SnapshotBatch | None = None,
) -> FeatureMatrix:
    """One row per record, columns restricted to the requested modalities.

    Column order is deterministic: modality in canonical order, then name.
    Records without a static blob get missing-valued static columns. The
    windowed columns come from the batched kernel over ``batch``, the
    records' padded snapshots, built here unless the caller already has them.
    """
    include = set(MODALITIES if include_modalities is None else include_modalities)
    unknown = include - set(MODALITIES)
    if unknown:
        raise ConfigError(f"unknown modalities: {sorted(unknown)}")
    columns = [
        ColumnSpec(f"{m}__{name}", m, kind) for m in MODALITIES if m in include for name, kind in sorted(MODALITY_CATALOG[m])
    ]

    data: dict[str, np.ndarray] = {}
    if include & set(WINDOWED_MODALITIES):
        windowed = _windowed_columns(records, w, batch or trajectory.pad_snapshots(records, caps))
        data.update({c.name: windowed[c.base_name] for c in columns if c.modality in WINDOWED_MODALITIES})
    if include & set(STATIC_MODALITIES):
        blobs = [extract_static(record) for record in records]
        for c in columns:
            if c.modality in STATIC_MODALITIES:  # floats or strings, None (NaN in a float column) where missing
                cells = [blob[c.modality][c.base_name] for blob in blobs]
                data[c.name] = np.array(cells, dtype=np.float64 if c.kind == "numeric" else object)
    return FeatureMatrix([r.post_id for r in records], columns, {c.name: data[c.name] for c in columns})
