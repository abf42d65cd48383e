"""Dataset schema, line-delimited parsing, validation, and quality filters,
plus the one reader of every JSON value from outside the program.

One post per line, UTF-8 JSON, snapshots embedded. The full field contract
(including the static-feature blob names) is documented in
``data/post_record.schema.json``; :func:`dataset_schema` returns it parsed.

Dataset lines, HTTP post states and saved files are all decoded by
:func:`decode_json` and their values read by the ``read_*`` functions, each
checking one JSON type and raising the boundary's error naming the field.

Nothing in this module looks at labels or the train/test split: ingestion is
split-agnostic by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
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
class Snapshots:
    """A post's engagement series in time order, one tuple per field: entry
    i of each is the i-th timestamped observation's value."""

    t_minutes: tuple[float, ...] = ()
    score: tuple[int, ...] = ()
    comments: tuple[int, ...] = ()
    crossposts: tuple[int, ...] = ()
    upvote_ratio: tuple[float | None, ...] = ()  # None where not observed
    category: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.t_minutes)

    def to_json_list(self) -> list[dict[str, Any]]:
        """One JSON object per snapshot, as a dataset line holds them: without
        ``upvote_ratio`` where it is None."""
        keys = ("t_minutes", "score", "comments", "crossposts", "category", "upvote_ratio")
        rows = zip(self.t_minutes, self.score, self.comments, self.crossposts, self.category, self.upvote_ratio)
        return [dict(zip(keys, row if row[-1] is not None else row[:-1])) for row in rows]

    @classmethod
    def from_json_list(cls, value: Any) -> "Snapshots":
        """The series held by a dataset line's ``snapshots`` list of objects,
        each with a ``t_minutes`` and what :func:`read_engagement` reads."""
        objects = (read_object(d, "snapshot") for d in read_list(value, "snapshots"))
        return cls(*zip(*((read_number(d.get("t_minutes"), "t_minutes"), *read_engagement(d)) for d in objects)))


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
    snapshots: Snapshots
    media_url: str | None = None
    removed: bool = False
    static_features: dict[str, Any] | None = None

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "post_id": self.post_id,
            "created_utc": _format_utc(self.created_utc),
            "title": self.title,
            "author": asdict(self.author),
            "subreddit": asdict(self.subreddit),
            "media_type": self.media_type,
            "media_url": self.media_url,
            "removed": self.removed,
            "snapshots": self.snapshots.to_json_list(),
        }
        if self.static_features is not None:
            d["static_features"] = self.static_features
        return d

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "PostRecord":
        try:
            author = read_object(d["author"], "author")
            sub = read_object(d["subreddit"], "subreddit")
            media_url, static = d.get("media_url"), d.get("static_features")
            return cls(
                post_id=read_text(d["post_id"], "post_id"),
                created_utc=_parse_utc(read_text(d["created_utc"], "created_utc")),
                title=read_text(d["title"], "title"),
                author=AuthorInfo(
                    total_karma=read_int(author["total_karma"], "total_karma"),
                    account_age_days=read_number(author["account_age_days"], "account_age_days"),
                    is_premium=read_flag(author.get("is_premium", False), "is_premium"),
                ),
                subreddit=SubredditInfo(
                    name=read_text(sub["name"], "name"),
                    subscribers=read_int(sub["subscribers"], "subscribers"),
                    language_group=read_text(sub.get("language_group", "english"), "language_group"),
                ),
                media_type=read_text(d["media_type"], "media_type"),
                media_url=None if media_url is None else read_text(media_url, "media_url"),
                removed=read_flag(d.get("removed", False), "removed"),
                snapshots=Snapshots.from_json_list(d["snapshots"]),
                static_features=None if static is None else read_object(static, "static_features"),
            )
        except (KeyError, ValueError) as exc:  # a missing key, a bad value or timestamp
            raise DatasetError(f"bad post record: {exc}") from exc


def read_engagement(d: dict) -> tuple[int, int, int, float | None, str]:
    """The score, comments, crossposts, upvote_ratio (optional, in [0, 1])
    and category of a snapshot or an HTTP post state, read from its JSON
    object ``d``; in :class:`Snapshots` field order."""
    ratio = d.get("upvote_ratio")
    if ratio is not None:
        ratio = read_number(ratio, "upvote_ratio")
        if not 0.0 <= ratio <= 1.0:
            raise DatasetError(f"upvote_ratio is not in [0, 1] ({ratio!r})")
    return (
        read_int(d.get("score"), "score"),
        read_int(d.get("comments"), "comments"),
        read_int(d.get("crossposts"), "crossposts"),
        ratio,
        read_text(d.get("category", "unknown"), "category"),
    )


def read_int(value: Any, name: str, error: type[ValueError] = DatasetError) -> int:
    """A count: a JSON integer, or a float with no fractional part, within
    the float range the numeric arrays downstream need."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise error(f"{name} is not an integer ({value!r})")
    try:
        float(value)
    except OverflowError:
        raise error(f"{name} is too large for a float") from None
    return value


def read_number(value: Any, name: str, error: type[ValueError] = DatasetError) -> float:
    """A finite JSON number as a float."""
    if type(value) is int:
        return float(read_int(value, name, error))
    if type(value) is not float or not math.isfinite(value):
        raise error(f"{name} is not a finite number ({value!r})")
    return value


def _reader(json_type: type, what: str) -> Callable:
    def read(value: Any, name: str, error: type[ValueError] = DatasetError):
        if type(value) is not json_type:
            raise error(f"{name} is not {what}")
        return value

    read.__doc__ = f"``value`` when it is {what}, else an ``error`` naming the field."
    return read


read_flag = _reader(bool, "true or false")
read_text = _reader(str, "a string")
read_object = _reader(dict, "an object")


def read_list(value: Any, name: str, error: type[ValueError] = DatasetError, item=None, length: int | None = None) -> list:
    """A JSON list, of ``length`` items when given, each read by the reader ``item`` when given."""
    if type(value) is not list or length not in (None, len(value)):
        raise error(f"{name} is not a list" + ("" if length is None else f" of length {length}"))
    return value if item is None else [item(v, f"{name}[{i}]", error) for i, v in enumerate(value)]


def _utc(ts: datetime) -> datetime:
    """``ts`` in UTC; a time without a zone is taken as UTC."""
    return (ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts).astimezone(timezone.utc)


def _format_utc(ts: datetime) -> str:
    return _utc(ts).isoformat().replace("+00:00", "Z")


def _parse_utc(raw: str) -> datetime:
    return _utc(datetime.fromisoformat(raw.replace("Z", "+00:00")))


def _reject_constant(token: str):
    raise DatasetError(f"{token} is not a JSON number")


#: The one JSON decoder for input from outside: ``decode_json(text)``. RFC 8259
#: has no NaN or Infinity, which json reads unless told otherwise; such a
#: token is a DatasetError, any other invalid JSON a ``json.JSONDecodeError``.
decode_json = json.JSONDecoder(parse_constant=_reject_constant).decode


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

    Malformed lines (a ``NaN`` or ``Infinity`` token or a value of the wrong
    JSON type included) are routed to ``on_error`` with their line number and
    parsing continues; without an error channel the first malformed line
    raises :class:`DatasetError` so nothing is dropped silently. An unreadable
    file raises ``OSError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield PostRecord.from_json_dict(read_object(decode_json(line), "record"))
            except ValueError as exc:  # invalid JSON (an integer of over 4300 digits included) or a bad value
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
    times = record.snapshots.t_minutes
    if not times or times[-1] < MIN_TRACKING_MINUTES:
        return "dropped_short_tracking"
    if any(b - a > MAX_SNAPSHOT_GAP_MINUTES for a, b in zip((0.0, *times), times)):  # from creation on
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
    snaps = record.snapshots
    if not snaps:
        v.append("no snapshots")
    times = snaps.t_minutes
    for i, t in enumerate(times):
        if t < 0:
            v.append(f"negative time at index {i}")
        if i and t <= times[i - 1]:
            v.append(f"non-increasing time at index {i}")
            break
    for name, values in (("comments", snaps.comments), ("crossposts", snaps.crossposts)):
        i = next((i for i, x in enumerate(values) if x < 0), None)
        if i is not None:
            v.append(f"negative {name} at index {i}")
    i = next((i for i, c in enumerate(snaps.category) if c not in CATEGORIES), None)
    if i is not None:
        v.append(f"unknown category {snaps.category[i]!r} at index {i}")
    blob = record.static_features or {}
    for name in NUMERIC_STATIC_FIELDS:
        try:
            coerce_static(blob.get(name), "numeric", name)
        except DatasetError as exc:
            v.append(str(exc))
    return report


def coerce_static(value: Any, kind: str, name: str) -> float | str | None:
    """A static-feature value as read downstream: a number (unreadable ones
    are missing) or a category string; None stays missing. A number that is
    not finite (NaN, infinity, an integer beyond the float range) is a
    DatasetError naming the field."""
    if value is None:
        return None
    if kind != "numeric":
        return str(value)
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    except OverflowError:  # an integer beyond the float range
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise DatasetError(f"static feature {name!r} is not finite ({x})")
    return x


def dataset_schema() -> dict[str, Any]:
    """Return the shipped JSON schema for the dataset line format."""
    return decode_json(resources.files("viralearly").joinpath("data/post_record.schema.json").read_text("utf-8"))


class _Document(dict):
    """An object of a saved JSON document; a key it lacks is a SchemaError naming the key and the file."""

    def __init__(self, mapping: dict, source: str):
        super().__init__(mapping)
        self.source = source

    def __missing__(self, key):
        raise SchemaError(f"{self.source} lacks the key {key!r}")

    def read(self, key: str, reader: Callable, **options):
        """The value under ``key`` read by ``reader``, a ``read_*`` function taking ``options``."""
        return reader(self[key], f"{self.source}: {key!r}", SchemaError, **options)

    def object(self, key: str) -> "_Document":
        """The object under ``key``."""
        return _Document(self.read(key, read_object), self.source)

    def objects(self, key: str) -> list["_Document"]:
        """The list of objects under ``key``."""
        return [_Document(v, self.source) for v in self.read(key, read_list, item=read_object)]


def load_document(path: str | Path, what: str, version: int | None) -> _Document:
    """The JSON object saved at ``path`` as a ``what`` (e.g. "model file"),
    whose ``format_version`` must be ``version`` (None: the format has none).
    A key it lacks or a value :meth:`_Document.read` rejects is a
    :class:`SchemaError` naming the key and the file."""
    source = f"{what} {path}"
    try:
        doc = decode_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes, invalid JSON or a NaN/Infinity token
        raise SchemaError(f"{source} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{source} does not hold a JSON object")
    found = doc.get("format_version")
    if version is not None and (found != version or type(found) is bool):  # true == 1 in Python
        raise SchemaError(f"unsupported {what} version {found!r} in {path}")
    return _Document(doc, source)


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


def observed_by(record: PostRecord, minutes: float) -> Snapshots:
    """The snapshots of a time-ordered record that a window of ``minutes`` observes."""
    n = observed_count(np.array(record.snapshots.t_minutes), minutes)
    return Snapshots(*(getattr(record.snapshots, f.name)[:n] for f in fields(Snapshots)))


def truncate_record(record: PostRecord, minutes: float) -> PostRecord:
    """Copy of ``record`` with snapshots after ``minutes`` physically removed."""
    return replace(record, snapshots=observed_by(record, minutes))
