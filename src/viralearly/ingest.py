"""Dataset schema, line-delimited parsing, validation, and quality filters,
plus the one reader of every JSON value from outside the program.

One post per line, UTF-8 JSON, snapshots embedded. The full field contract
(including the static-feature blob names) is documented in
``data/post_record.schema.json``; :func:`dataset_schema` returns it parsed.

Dataset lines, HTTP post states and saved files are all decoded by
:func:`decode_json` and their values read by the ``read_*`` functions, each
checking one JSON type and raising the boundary's error naming the field.
A post's snapshot series is read a column at a time, each column checked
whole, and held as typed columns (:class:`Snapshots`); the per-value readers
go over a series only to name its first bad value. :func:`write_dataset`
formats each snapshot with one template.

Nothing in this module looks at labels or the train/test split: ingestion is
split-agnostic by construction.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

from .errors import DatasetError, SchemaError

# Keep records only when tracked for a full day with no observation gap wider
# than six hours (2x the coarsest default polling interval).
MIN_TRACKING_MINUTES = 1440.0
MAX_SNAPSHOT_GAP_MINUTES = 360.0


#: The ``array`` typecode of each array column of :class:`Snapshots` (numpy
#: reads the same codes): times in doubles, counts in 64-bit integers.
COLUMN_TYPECODES = {"t_minutes": "d", "score": "q", "comments": "q", "crossposts": "q"}
_COUNT_RANGE = (-(2**63), 2**63)  # what a 64-bit column holds: [low, high)
# The types of the values a number column and the ratio column may hold (exact: a bool is neither).
_NUMBER_TYPES = {float, int}
_RATIO_TYPES = {float, int, type(None)}


@dataclass(frozen=True)
class Snapshots:
    """A post's engagement series in time order, one column per field: entry
    i of each is the i-th timestamped observation's value.

    Times are an ``array('d')``, the three counts ``array('q')``, ratios and
    category names tuples (each known name the one string of
    :data:`CATEGORIES`); a column given as another sequence is converted. A
    count outside the 64-bit range is a :class:`DatasetError` naming the field.
    """

    t_minutes: array = field(default_factory=lambda: array("d"))
    score: array = field(default_factory=lambda: array("q"))
    comments: array = field(default_factory=lambda: array("q"))
    crossposts: array = field(default_factory=lambda: array("q"))
    upvote_ratio: tuple[float | None, ...] = ()  # None where not observed
    category: tuple[str, ...] = ()

    def __post_init__(self):
        for name, code in COLUMN_TYPECODES.items():
            column = getattr(self, name)
            if type(column) is not array or column.typecode != code:
                try:
                    object.__setattr__(self, name, array(code, column))
                except OverflowError:  # only a count column's integers can overflow
                    count = next(c for c in column if not _COUNT_RANGE[0] <= c < _COUNT_RANGE[1])
                    raise DatasetError(f"{name} is too large for a 64-bit integer ({count!r})") from None
        if type(self.upvote_ratio) is not tuple:
            object.__setattr__(self, "upvote_ratio", tuple(self.upvote_ratio))
        object.__setattr__(self, "category", tuple(map(_CATEGORY_NAMES.get, self.category, self.category)))

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
        each with a ``t_minutes`` and what :func:`read_engagement` reads.

        Each field is gathered as one column and the whole column checked at
        once (its value types, finite times, the ratio range, the 64-bit count
        range), accepting exactly what the per-value readers accept. When a
        column fails, the per-value readers go over the series to raise the
        error naming the field of its first bad snapshot."""
        objects = read_list(value, "snapshots")
        columns = _read_columns(objects)
        if columns is None:
            _raise_first_error(objects)
        return cls(*columns)


def _read_columns(objects: list) -> tuple | None:
    """The columns of :class:`Snapshots` in a list of snapshot objects, each
    checked whole; None when a column holds a value the per-value readers
    reject. Exact type tests keep ``true`` out of the numbers."""
    if not objects:
        return ()
    if {*map(type, objects)} != {dict}:
        return None
    times = [d.get("t_minutes") for d in objects]
    if {*map(type, times)} - _NUMBER_TYPES:
        return None
    try:
        times = array("d", times)
    except OverflowError:  # an integer past the float range
        return None
    # a sum is finite only when every term is; one past the float range is checked term by term
    if not (math.isfinite(sum(times)) or all(map(math.isfinite, times))):
        return None
    counts = []
    for name in ("score", "comments", "crossposts"):
        column = [d.get(name) for d in objects]
        kinds = {*map(type, column)}
        if kinds != {int}:
            if kinds - _NUMBER_TYPES or not all(x.is_integer() for x in column if type(x) is float):
                return None
            column = list(map(int, column))
        try:
            counts.append(array("q", column))
        except OverflowError:  # a count past 64 bits
            return None
    ratios = [d.get("upvote_ratio") for d in objects]
    kinds = {*map(type, ratios)}
    if kinds - _RATIO_TYPES:
        return None
    present = ratios if kinds == {float} else [r for r in ratios if r is not None]
    if present and not (0.0 <= min(present) and max(present) <= 1.0 and math.isfinite(sum(present))):
        return None  # the sum catches a NaN that min and max pass over
    if int in kinds:
        ratios = [float(r) if type(r) is int else r for r in ratios]
    names = [d.get("category", "unknown") for d in objects]
    if {*map(type, names)} != {str}:
        return None
    return (times, *counts, tuple(ratios), names)


def _raise_first_error(objects: list) -> NoReturn:
    """Raise the error of the first bad snapshot in ``objects``, read one
    value at a time in field order, or else of the first count past 64 bits."""
    objects = (read_object(d, "snapshot") for d in objects)
    Snapshots(*zip(*((read_number(d.get("t_minutes"), "t_minutes"), *read_engagement(d)) for d in objects)))
    raise AssertionError("a column check rejected a series that the per-value readers accept")


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
        d = {**self._json_head(), "snapshots": self.snapshots.to_json_list()}
        if self.static_features is not None:
            d["static_features"] = self.static_features
        return d

    def _json_head(self) -> dict[str, Any]:
        """The fields a dataset line holds before ``snapshots``, in its order."""
        return {
            "post_id": self.post_id,
            "created_utc": _format_utc(self.created_utc),
            "title": self.title,
            "author": asdict(self.author),
            "subreddit": asdict(self.subreddit),
            "media_type": self.media_type,
            "media_url": self.media_url,
            "removed": self.removed,
        }

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
                static_features=None if static is None else _shared_keys(read_object(static, "static_features")),
            )
        except (KeyError, ValueError) as exc:  # a missing key, a bad value or timestamp
            raise DatasetError(f"bad post record: {exc}") from exc


def read_engagement(d: dict) -> tuple[int, int, int, float | None, str]:
    """The score, comments, crossposts, upvote_ratio (optional, in [0, 1])
    and category of a snapshot or an HTTP post state, read from its JSON
    object ``d``; in :class:`Snapshots` field order. :class:`Snapshots`
    checks that the counts lie in its 64-bit range."""
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

    Malformed lines (a ``NaN`` or ``Infinity`` token, a value of the wrong
    JSON type or a post id that an earlier line holds included) are routed to
    ``on_error`` with their line number and parsing continues; without an
    error channel the first malformed line raises :class:`DatasetError` so
    nothing is dropped silently. An unreadable file raises ``OSError``.
    """
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = PostRecord.from_json_dict(read_object(decode_json(line), "record"))
                if first_line.setdefault(record.post_id, line_no) != line_no:
                    raise DatasetError(f"post id {record.post_id!r} repeats line {first_line[record.post_id]}")
                yield record
            except ValueError as exc:  # invalid JSON (an integer of over 4300 digits included) or a bad value
                diag = ParseDiagnostic(line_no=line_no, message=str(exc))
                if on_error is None:
                    raise DatasetError(str(diag)) from exc
                on_error(diag)


#: The compact JSON text of a value, as a dataset line spells it; a float
#: that is not finite, which JSON cannot hold, is a ValueError.
_encode_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode

#: One snapshot's object as json writes it, from its fields in
#: :class:`Snapshots` order with the category's JSON text.
_SNAPSHOT_TEXT = '{"t_minutes":%r,"score":%d,"comments":%d,"crossposts":%d,"category":%s,"upvote_ratio":%r}'


class _JsonText(dict):
    """Each value's JSON text, encoded once."""

    def __missing__(self, value):
        text = self[value] = _encode_json(value)
        return text


def write_dataset(records: Iterable[PostRecord], path: str | Path) -> int:
    """Write records in the line-delimited format; returns the line count.

    A line is the compact JSON of :meth:`PostRecord.to_json_dict`, its
    snapshots formatted by one template. A float that is not finite, which
    JSON cannot hold, is a :class:`DatasetError` naming the post and the
    field. A write that fails leaves no file at ``path``."""
    category_text = _JsonText()
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        try:
            for record in records:
                fh.write(_dataset_line(record, category_text))
                n += 1
        except BaseException:
            fh.close()
            Path(path).unlink(missing_ok=True)
            raise
    return n


def _dataset_line(record: PostRecord, category_text: _JsonText) -> str:
    try:
        head = _encode_json(record._json_head())
        static = "" if record.static_features is None else ',"static_features":' + _encode_json(record.static_features)
        snapshots = _snapshots_text(record.snapshots, category_text)
    except ValueError:  # a float that is not finite
        found = _first_non_finite(record.to_json_dict())
        if found is None:
            raise
        raise DatasetError(f"post {record.post_id}: {found[0]} is not a finite number ({found[1]!r})") from None
    return f'{head[:-1]},"snapshots":[{snapshots}]{static}}}\n'


def _snapshots_text(snaps: Snapshots, category_text: _JsonText) -> str:
    """The JSON text of ``snaps.to_json_list()``'s items, comma-separated."""
    ratios = snaps.upvote_ratio
    # the template writes floats as json does only when every ratio is a float
    # and every float finite, which their sum is only when every term is
    if {*map(type, ratios)} - {float} or not math.isfinite(sum(snaps.t_minutes) + sum(ratios)):
        return _encode_json(snaps.to_json_list())[1:-1]
    rows = zip(snaps.t_minutes, snaps.score, snaps.comments, snaps.crossposts, map(category_text.__getitem__, snaps.category), ratios)
    return ",".join([_SNAPSHOT_TEXT] * len(ratios)) % tuple(chain.from_iterable(rows))


def _first_non_finite(value: Any, name: str = "") -> tuple[str, float] | None:
    """The name and value of the first float in a JSON value that is not
    finite (``a.b[2].c``), or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (name, value)
    if isinstance(value, dict):
        items = ((f"{name}.{k}" if name else str(k), v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{name}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_first_non_finite(v, n) for n, v in items)), None)


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
    t = np.frombuffer(times)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, no gap
        gaps = t[1:] - t[:-1]
    if t[0] > MAX_SNAPSHOT_GAP_MINUTES or (gaps > MAX_SNAPSHOT_GAP_MINUTES).any():  # from creation on
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
    times = np.frombuffer(snaps.t_minutes)
    # each negative time up to the first that does not increase, then that one
    stop = _first(times[1:] <= times[:-1])
    negative = times[: len(times) if stop is None else stop + 2] < 0
    if negative.any():
        v.extend(f"negative time at index {i}" for i in np.flatnonzero(negative))
    if stop is not None:
        v.append(f"non-increasing time at index {stop + 1}")
    for name, values in (("comments", snaps.comments), ("crossposts", snaps.crossposts)):
        i = _first(np.frombuffer(values, values.typecode) < 0)
        if i is not None:
            v.append(f"negative {name} at index {i}")
    i = next((i for i, c in enumerate(snaps.category) if c not in CATEGORIES), None)
    if i is not None:
        v.append(f"unknown category {snaps.category[i]!r} at index {i}")
    blob = record.static_features or {}
    for name in STATIC_FEATURES:
        try:
            read_static(blob.get(name), name)
        except DatasetError as exc:
            v.append(str(exc))
    return report


def _first(flags: np.ndarray) -> int | None:
    """The index of the first true entry of ``flags``, or None."""
    return int(flags.argmax()) if flags.any() else None


def dataset_schema() -> dict[str, Any]:
    """Return the shipped JSON schema for the dataset line format."""
    return decode_json(resources.files(__package__).joinpath("data/post_record.schema.json").read_text("utf-8"))


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


class StaticFeature(NamedTuple):
    """A known static-feature key's modality, the reader of its values, its
    feature kind and the name its reader's messages give it."""

    modality: str
    read: Callable
    kind: str
    where: str


# The reader and the feature kind of each JSON type the schema gives a static feature.
_STATIC_TYPES = {
    "number": (read_number, "numeric"),
    "integer": (read_int, "numeric"),
    "boolean": (read_flag, "numeric"),
    "string": (read_text, "categorical"),
}

_SCHEMA_FIELDS = dataset_schema()["properties"]

#: The values the schema allows a snapshot's category, a post's media type
#: and its subreddit's language group, in schema order.
CATEGORIES = tuple(_SCHEMA_FIELDS["snapshots"]["items"]["properties"]["category"]["enum"])
MEDIA_TYPES = tuple(_SCHEMA_FIELDS["media_type"]["enum"])
LANGUAGE_GROUPS = tuple(_SCHEMA_FIELDS["subreddit"]["properties"]["language_group"]["enum"])
# Each known category name as one string, so that series share their names.
_CATEGORY_NAMES = {name: name for name in CATEGORIES}

#: Each known static-feature key in schema order, from its ``x-modality`` and JSON type.
STATIC_FEATURES: dict[str, StaticFeature] = {
    name: StaticFeature(spec["x-modality"], *_STATIC_TYPES[spec["type"]], f"static_features.{name}")
    for name, spec in _SCHEMA_FIELDS["static_features"]["properties"].items()
}


def read_static(value: Any, name: str) -> float | str | None:
    """The value of the known static feature ``name`` read by its schema
    type: None when missing or null, a number, integer or boolean as a float,
    a string unchanged. Any other value (a wrong JSON type, a number that is
    not finite or past the float range, a fraction in an integer key) is a
    :class:`DatasetError` naming the key."""
    if value is None:
        return None
    feature = STATIC_FEATURES[name]
    value = feature.read(value, feature.where)
    return value if feature.kind == "categorical" else float(value)


# Each known static-feature key as one string, so that parsed blobs share their keys.
_STATIC_KEYS = {name: name for name in STATIC_FEATURES}


def _shared_keys(blob: dict) -> dict:
    """``blob`` with each known key replaced by the equal string of :data:`_STATIC_KEYS`."""
    return {_STATIC_KEYS.get(k, k): v for k, v in blob.items()}


def observed_count(t: np.ndarray, minutes: float) -> np.ndarray:
    """How many of each row's time-ordered snapshot times (last axis) a window
    of ``minutes`` observes: those with t <= ``minutes``, a prefix of the row,
    so later data is excluded by construction."""
    return np.count_nonzero(t <= minutes, axis=-1)

