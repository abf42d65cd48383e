"""Dataset schema, line-delimited parsing, validation, and quality filters,
plus the one reader of the JSON documents the pipeline saves.

One post per line, UTF-8 JSON, snapshots embedded. The full field contract
(including the static-feature blob names) is documented in
``data/post_record.schema.json``; :func:`dataset_schema` returns it parsed.

Nothing in this module looks at labels or the train/test split: ingestion is
split-agnostic by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import DatasetError, SchemaError

CATEGORIES = ("new", "rising", "hot", "top", "unknown")
MEDIA_TYPES = ("image", "video", "gif", "text", "audio")
LANGUAGE_GROUPS = (
    "english",
    "german",
    "turkish",
    "nordic",
    "french",
    "spanish",
    "portuguese",
    "italian",
)

# Keep records only when tracked for a full day with no observation gap wider
# than six hours (2x the coarsest default polling interval).
MIN_TRACKING_MINUTES = 1440.0
MAX_SNAPSHOT_GAP_MINUTES = 360.0


@dataclass(frozen=True)
class EngagementSnapshot:
    """One timestamped observation of a post's engagement state."""

    t_minutes: float
    score: int
    comments: int
    crossposts: int
    upvote_ratio: float | None = None
    category: str = "unknown"


@dataclass(frozen=True)
class AuthorInfo:
    total_karma: int
    account_age_days: float
    is_premium: bool = False


@dataclass(frozen=True)
class SubredditInfo:
    name: str
    subscribers: int
    language_group: str = "english"


@dataclass(frozen=True)
class PostRecord:
    """One meme post: metadata, context, and its engagement snapshot series."""

    post_id: str
    created_utc: datetime
    title: str
    author: AuthorInfo
    subreddit: SubredditInfo
    media_type: str
    snapshots: tuple[EngagementSnapshot, ...]
    media_url: str | None = None
    removed: bool = False
    static_features: dict[str, Any] | None = None

    def last_snapshot(self) -> EngagementSnapshot:
        if not self.snapshots:
            raise DatasetError(f"post {self.post_id} has no snapshots")
        return self.snapshots[-1]

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "post_id": self.post_id,
            "created_utc": _format_utc(self.created_utc),
            "title": self.title,
            "author": {
                "total_karma": self.author.total_karma,
                "account_age_days": self.author.account_age_days,
                "is_premium": self.author.is_premium,
            },
            "subreddit": {
                "name": self.subreddit.name,
                "subscribers": self.subreddit.subscribers,
                "language_group": self.subreddit.language_group,
            },
            "media_type": self.media_type,
            "media_url": self.media_url,
            "removed": self.removed,
            "snapshots": [_snapshot_to_dict(s) for s in self.snapshots],
        }
        if self.static_features is not None:
            d["static_features"] = self.static_features
        return d

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "PostRecord":
        try:
            author = d["author"]
            sub = d["subreddit"]
            if not isinstance(d.get("static_features"), (dict, type(None))):
                raise TypeError("static_features is not an object")
            return cls(
                post_id=str(d["post_id"]),
                created_utc=_parse_utc(d["created_utc"]),
                title=str(d["title"]),
                author=AuthorInfo(
                    total_karma=_count(author["total_karma"], "total_karma"),
                    account_age_days=_finite(author["account_age_days"], "account_age_days"),
                    is_premium=bool(author.get("is_premium", False)),
                ),
                subreddit=SubredditInfo(
                    name=str(sub["name"]),
                    subscribers=_count(sub["subscribers"], "subscribers"),
                    language_group=str(sub.get("language_group", "english")),
                ),
                media_type=str(d["media_type"]),
                media_url=d.get("media_url"),
                removed=bool(d.get("removed", False)),
                snapshots=tuple(_snapshot_from_dict(s) for s in d["snapshots"]),
                static_features=d.get("static_features"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"bad post record: {exc}") from exc


def _snapshot_to_dict(s: EngagementSnapshot) -> dict[str, Any]:
    d: dict[str, Any] = {
        "t_minutes": s.t_minutes,
        "score": s.score,
        "comments": s.comments,
        "crossposts": s.crossposts,
        "category": s.category,
    }
    if s.upvote_ratio is not None:
        d["upvote_ratio"] = s.upvote_ratio
    return d


def _snapshot_from_dict(d: dict[str, Any]) -> EngagementSnapshot:
    ratio = d.get("upvote_ratio")
    return EngagementSnapshot(
        t_minutes=_finite(d["t_minutes"], "t_minutes"),
        score=_count(d["score"], "score"),
        comments=_count(d["comments"], "comments"),
        crossposts=_count(d["crossposts"], "crossposts"),
        upvote_ratio=None if ratio is None else _finite(ratio, "upvote_ratio"),
        category=str(d.get("category", "unknown")),
    )


def _finite(value: Any, name: str) -> float:
    """``value`` as a float; NaN or infinity is a DatasetError naming the field."""
    x = float(value)
    if not math.isfinite(x):
        raise DatasetError(f"{name} is not finite ({value!r})")
    return x


def _count(value: Any, name: str) -> int:
    """``value`` as an int within the float range, which the numeric arrays
    downstream need; a larger one is a DatasetError naming the field."""
    n = int(value)
    try:
        float(n)
    except OverflowError:
        raise DatasetError(f"{name} is too large for a float") from None
    return n


def _format_utc(ts: datetime) -> str:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    out = ts.strftime("%Y-%m-%dT%H:%M:%S")
    if ts.microsecond:
        out += f".{ts.microsecond:06d}"
    return out + "Z"


def _parse_utc(raw: str) -> datetime:
    ts = datetime.fromisoformat(str(raw).replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _reject_constant(token: str):
    raise DatasetError(f"{token} is not a JSON number")


# RFC 8259 has no NaN or Infinity, which json reads unless told otherwise
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


@dataclass(frozen=True)
class ParseDiagnostic:
    """A per-line parse failure; line numbers are 1-based."""

    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


def parse_dataset(
    path: str | Path,
    on_error: Callable[[ParseDiagnostic], None] | None = None,
) -> Iterator[PostRecord]:
    """Stream post records from a line-delimited dataset file.

    Malformed lines (a ``NaN`` or ``Infinity`` token or a non-finite value
    included) are routed to ``on_error`` with their line number and parsing
    continues; without an error channel the first malformed line
    raises :class:`DatasetError` so nothing is dropped silently. An unreadable
    file raises ``OSError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                payload = _DECODER.decode(line)
                if not isinstance(payload, dict):
                    raise DatasetError("record is not an object")
                yield PostRecord.from_json_dict(payload)
            except (json.JSONDecodeError, DatasetError) as exc:
                diag = ParseDiagnostic(line_no=line_no, message=str(exc))
                if on_error is None:
                    raise DatasetError(str(diag)) from exc
                on_error(diag)


def write_dataset(records: Iterable[PostRecord], path: str | Path) -> int:
    """Write records in the line-delimited format; returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


@dataclass
class FilterSummary:
    """Counts emitted by :func:`apply_quality_filters`.

    Each dropped record is counted once, under the first failing check in the
    order: removed, no media, short tracking, gap.
    """

    total: int = 0
    kept: int = 0
    dropped_removed: int = 0
    dropped_no_media: int = 0
    dropped_short_tracking: int = 0
    dropped_gap: int = 0

    @property
    def dropped(self) -> int:
        return self.total - self.kept


def apply_quality_filters(
    records: Iterable[PostRecord], summary: FilterSummary | None = None
) -> Iterator[PostRecord]:
    """Keep tracked-long-enough, gap-free, media-bearing, non-removed posts.

    A record passes when its last snapshot is at or past ``MIN_TRACKING_MINUTES``,
    no inter-snapshot gap exceeds ``MAX_SNAPSHOT_GAP_MINUTES``, it carries a media URL,
    and it is not flagged removed. Filtering is total (never raises) and
    idempotent. Pass a :class:`FilterSummary` to receive drop counts.
    """
    for record in records:
        if summary is not None:
            summary.total += 1
        reason = _drop_reason(record)
        if reason is None:
            if summary is not None:
                summary.kept += 1
            yield record
        elif summary is not None:
            setattr(summary, reason, getattr(summary, reason) + 1)


def _drop_reason(record: PostRecord) -> str | None:
    if record.removed:
        return "dropped_removed"
    if not record.media_url:
        return "dropped_no_media"
    if not record.snapshots or record.snapshots[-1].t_minutes < MIN_TRACKING_MINUTES:
        return "dropped_short_tracking"
    times = [s.t_minutes for s in record.snapshots]
    gaps = [b - a for a, b in zip(times, times[1:])]
    if times[0] > MAX_SNAPSHOT_GAP_MINUTES or any(g > MAX_SNAPSHOT_GAP_MINUTES for g in gaps):
        return "dropped_gap"
    return None


@dataclass
class ValidationReport:
    """Invariant violations for one record; empty means the record is valid."""

    post_id: str
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_record(record: PostRecord) -> ValidationReport:
    """Check every type invariant; monotonicity names the first bad index."""
    report = ValidationReport(post_id=record.post_id)
    v = report.violations
    if not record.post_id:
        v.append("empty post_id")
    if record.media_type not in MEDIA_TYPES:
        v.append(f"unknown media_type {record.media_type!r}")
    if record.subreddit.subscribers < 1:
        v.append("subscribers < 1")
    if record.subreddit.language_group not in LANGUAGE_GROUPS:
        v.append(f"unknown language_group {record.subreddit.language_group!r}")
    if record.author.account_age_days < 0:
        v.append("negative account_age_days")
    if not record.snapshots:
        v.append("no snapshots")
    prev_t = None
    for i, snap in enumerate(record.snapshots):
        if snap.t_minutes < 0:
            v.append(f"negative time at index {i}")
        if prev_t is not None and snap.t_minutes <= prev_t:
            v.append(f"non-increasing time at index {i}")
            break
        prev_t = snap.t_minutes
    for i, snap in enumerate(record.snapshots):
        if snap.comments < 0:
            v.append(f"negative comments at index {i}")
            break
    for i, snap in enumerate(record.snapshots):
        if snap.crossposts < 0:
            v.append(f"negative crossposts at index {i}")
            break
    for i, snap in enumerate(record.snapshots):
        if snap.category not in CATEGORIES:
            v.append(f"unknown category {snap.category!r} at index {i}")
            break
    for i, snap in enumerate(record.snapshots):
        if snap.upvote_ratio is not None and not 0.0 <= snap.upvote_ratio <= 1.0:
            v.append(f"upvote_ratio outside [0, 1] at index {i}")
            break
    blob = record.static_features or {}
    for name in NUMERIC_STATIC_FIELDS:
        value = coerce_static(blob.get(name), "numeric")
        if isinstance(value, float) and not math.isfinite(value):
            v.append(f"static feature {name!r} is not finite ({value})")
    return report


def coerce_static(value: Any, kind: str) -> float | str | None:
    """A static-feature value as read downstream: a number (unreadable ones
    are missing) or a category string; None stays missing."""
    if value is None:
        return None
    if kind == "numeric":
        try:
            return float(value)
        except (TypeError, ValueError):
            return None
        except OverflowError:  # an integer beyond the float range
            return math.inf if value > 0 else -math.inf
    return str(value)


def dataset_schema() -> dict[str, Any]:
    """Return the shipped JSON schema for the dataset line format."""
    text = resources.files("viralearly").joinpath("data/post_record.schema.json").read_text("utf-8")
    return json.loads(text)


class _Document(dict):
    """An object of a saved JSON document; a key it lacks is a SchemaError."""

    def __init__(self, pairs, source: str):
        super().__init__(pairs)
        self.source = source

    def __missing__(self, key):
        raise SchemaError(f"{self.source} lacks the key {key!r}")

    def object(self, key) -> "_Document":
        """The object under ``key``; any other value is a SchemaError naming the key and the file."""
        value = self[key]
        if not isinstance(value, dict):
            raise SchemaError(f"{self.source}: {key!r} is not an object")
        return value


def load_document(path: str | Path, what: str, version: int | None) -> dict[str, Any]:
    """The JSON object saved at ``path`` as a ``what`` (e.g. "model file").

    It must be an object whose ``format_version`` is ``version`` (None: the
    format has none), and indexing any object in it by a key it lacks raises
    :class:`SchemaError` naming the key and the file.
    """
    source = f"{what} {path}"
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=lambda pairs: _Document(pairs, source))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{source} does not hold a JSON object")
    if version is not None and doc.get("format_version") != version:
        raise SchemaError(f"unsupported {what} version {doc.get('format_version')!r}")
    return doc


#: The known static-feature keys in schema order, each with its JSON type and ``x-modality``.
STATIC_FEATURE_SCHEMA: dict[str, dict] = dataset_schema()["properties"]["static_features"]["properties"]
# Static features read as numbers: those the schema types as number, integer or boolean.
NUMERIC_STATIC_FIELDS = tuple(
    name for name, spec in STATIC_FEATURE_SCHEMA.items() if spec["type"] in ("number", "integer", "boolean")
)


def observed_count(t: np.ndarray, minutes: float) -> np.ndarray:
    """How many of each row's time-ordered snapshot times (last axis) a window
    of ``minutes`` observes: those with t <= ``minutes``, a prefix of the row,
    so later data is excluded by construction."""
    return np.count_nonzero(t <= minutes, axis=-1)


def observed_by(record: PostRecord, minutes: float) -> tuple[EngagementSnapshot, ...]:
    """The snapshots of a time-ordered record that a window of ``minutes`` observes."""
    return record.snapshots[: observed_count(np.array([s.t_minutes for s in record.snapshots]), minutes)]


def truncate_record(record: PostRecord, minutes: float) -> PostRecord:
    """Copy of ``record`` with snapshots after ``minutes`` physically removed."""
    return replace(record, snapshots=observed_by(record, minutes))
