"""Engagement tracking against an abstract post source.

Polling follows a tiered schedule (fast early, coarser later). The transport
is a small protocol — ``fetch(post_id) -> PollResult`` — so tests inject
scripted fakes; a dataset-replay source and an HTTP source are provided.
Time is injected through a clock object, so tracking runs under simulated
time in tests and wall-clock time in production.
"""

from __future__ import annotations

import email.utils
import math
import threading
import time as _time
import urllib.error
import urllib.request
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate
from typing import NamedTuple, Protocol, Sequence

from .errors import ConfigError, DatasetError
from .ingest import PostRecord, Snapshots, decode_json, parse_dataset, read_engagement, read_flag, read_object, validate_record

#: (max_age_minutes, interval_minutes) tiers: 5-minute polls for the first
#: two hours, 15 minutes up to eight hours, hourly through the first day and
#: beyond (the last interval persists past the final tier).
DEFAULT_POLL_SCHEDULE_TIERS = ((120.0, 5.0), (480.0, 15.0), (1440.0, 60.0))

MAX_POLL_RETRIES = 3
BACKOFF_BASE_MINUTES = 2.0


@dataclass(frozen=True)
class PollSchedule:
    """(max_age_minutes, interval_minutes) tiers: max ages strictly
    increasing, intervals positive and non-decreasing."""

    tiers: tuple[tuple[float, float], ...] = DEFAULT_POLL_SCHEDULE_TIERS


#: The schedule that tracking follows and that synthetic corpora sit on.
DEFAULT_POLL_SCHEDULE = PollSchedule()


def schedule_next_poll(post_age_minutes: float, schedule: PollSchedule) -> float:
    """Interval of the first tier whose max age exceeds the post age.

    Beyond the last tier the last interval persists.
    """
    if post_age_minutes < 0:
        raise ConfigError("post age cannot be negative")
    for max_age, interval in schedule.tiers:
        if post_age_minutes < max_age:
            return interval
    return schedule.tiers[-1][1]


def poll_times(until_minutes: float) -> list[float]:
    """The default schedule's poll ages from 0 through ``until_minutes``
    (inclusive); ConfigError when ``until_minutes`` is negative or not finite."""
    if not 0.0 <= until_minutes < math.inf:
        raise ConfigError(f"until_minutes must be a finite number >= 0, got {until_minutes!r}")
    times, t = [], 0.0
    while t <= until_minutes:
        times.append(t)
        t += schedule_next_poll(t, DEFAULT_POLL_SCHEDULE)
    return times


class PollResult(NamedTuple):
    """One transport answer about a post's current state (a tuple, cheap to
    build once per fetch)."""

    score: int
    comments: int
    crossposts: int
    category: str = "unknown"
    upvote_ratio: float | None = None
    removed: bool = False


class TransientSourceError(Exception):
    """Retryable transport failure (timeouts, 5xx, connection drops)."""


class RateLimitedError(TransientSourceError):
    """Transport asked us to back off; honors the given delay."""

    def __init__(self, message: str, retry_after_minutes: float | None = None):
        super().__init__(message)
        self.retry_after_minutes = retry_after_minutes


class PermanentSourceError(Exception):
    """The post cannot be fetched now or ever (gone, forbidden)."""


class PostSource(Protocol):
    def fetch(self, post_id: str) -> PollResult: ...


class Clock(Protocol):
    def now_minutes(self) -> float: ...

    def sleep_minutes(self, minutes: float) -> None: ...


class SimulatedClock:
    """Virtual time: sleeping advances instantly. Default for tests."""

    def __init__(self, start_minutes: float = 0.0):
        self._now = start_minutes

    def now_minutes(self) -> float:
        return self._now

    def sleep_minutes(self, minutes: float) -> None:
        if minutes > 0:
            self._now += minutes


class SystemClock:
    """Wall-clock time for real collection runs."""

    def now_minutes(self) -> float:
        return _time.monotonic() / 60.0

    def sleep_minutes(self, minutes: float) -> None:
        if minutes > 0:
            _time.sleep(minutes * 60.0)


@dataclass(frozen=True)
class TrackResult:
    """Collected series, why tracking ended and what the polling took."""

    post_id: str
    snapshots: Snapshots
    reason: str  # completed | removed | unreachable | unavailable
    polls: int = 0  # scheduled polls made
    retries: int = 0  # fetches repeated after a transient failure
    skipped_polls: int = 0  # polls that ran out of retries
    rate_limit_wait_minutes: float = 0.0  # backoff slept after rate-limited responses


def track_post(
    transport: PostSource,
    post_id: str,
    until_minutes: float,
    clock: Clock | None = None,
) -> TrackResult:
    """Poll one post at each age that :func:`poll_times` gives for ``until_minutes``.

    Transient failures are retried with exponential backoff (base 2, up to
    ``MAX_POLL_RETRIES`` retries); a poll whose retries are exhausted is skipped,
    never fabricated. Tracking stops early when the transport reports the
    post removed or permanently unavailable, returning the partial series
    with that reason. An ``until_minutes`` that is negative or not finite is
    a :class:`ConfigError`.
    """
    clock = clock or SimulatedClock()
    start = clock.now_minutes()
    times, kept = [], []  # each kept snapshot's time and poll result
    polls = retries = skipped = 0
    rate_wait = 0.0
    reason = None

    for next_t in poll_times(until_minutes):
        clock.sleep_minutes(next_t - (clock.now_minutes() - start))
        outcome, poll_retries, poll_wait = _fetch_with_backoff(transport, post_id, clock)
        polls += 1
        retries += poll_retries
        rate_wait += poll_wait
        if outcome == "unavailable":
            reason = "unavailable"
            break
        if outcome is None:
            skipped += 1
        elif isinstance(outcome, PollResult):
            if outcome.removed:
                reason = "removed"
                break
            t = clock.now_minutes() - start
            if not times or t > times[-1]:
                times.append(t)
                kept.append(outcome)

    if reason is None:
        reason = "completed" if times else "unreachable"
    score, comments, crossposts, category, ratio, _ = zip(*kept) if kept else [()] * len(PollResult._fields)
    snapshots = Snapshots(times, score, comments, crossposts, ratio, category)
    return TrackResult(post_id, snapshots, reason, polls, retries, skipped, rate_wait)


def _fetch_with_backoff(transport, post_id, clock) -> tuple["PollResult | str | None", int, float]:
    """One scheduled poll: its outcome (None when skipped), the retries it
    made and the minutes it waited after rate-limited responses."""
    rate_wait = 0.0
    for attempt in range(MAX_POLL_RETRIES + 1):
        try:
            return transport.fetch(post_id), attempt, rate_wait
        except PermanentSourceError:
            return "unavailable", attempt, rate_wait
        except TransientSourceError as exc:
            if attempt >= MAX_POLL_RETRIES:
                return None, attempt, rate_wait  # poll skipped
            delay = BACKOFF_BASE_MINUTES**attempt
            if isinstance(exc, RateLimitedError):
                if exc.retry_after_minutes is not None:
                    delay = max(delay, exc.retry_after_minutes)
                rate_wait += delay
            clock.sleep_minutes(delay)


class FileReplaySource:
    """Replays recorded snapshot series as the current post state.

    The elapsed time for a post starts at its first fetch; the answer is the
    recorded snapshot before the first one past that elapsed time (zeros
    before the first snapshot). A post flagged removed reports removal once the replay
    runs past its recorded series.
    """

    def __init__(self, records: Sequence[PostRecord], clock: Clock):
        self._records = {r.post_id: r for r in records}
        self._clock = clock
        self._started: dict[str, float] = {}
        # each fetched post's running maximum of times: the first index whose
        # maximum passes the elapsed time is the first index whose time does
        self._reach: dict[str, array] = {}

    @classmethod
    def from_dataset(cls, path, clock: Clock) -> "FileReplaySource":
        """Replay a dataset file; DatasetError naming the file, the post and its
        first violation when a record breaks an invariant of ``validate_record``."""
        records = list(parse_dataset(path))
        for record in records:
            report = validate_record(record)
            if not report.ok:
                raise DatasetError(f"{path}: post {record.post_id}: {report.violations[0]}")
        return cls(records, clock)

    def fetch(self, post_id: str) -> PollResult:
        record = self._records.get(post_id)
        if record is None:
            raise PermanentSourceError(f"unknown post {post_id}")
        snaps = record.snapshots
        if post_id not in self._started:
            self._started[post_id] = self._clock.now_minutes()
            self._reach[post_id] = array("d", accumulate(snaps.t_minutes, max))
        elapsed = self._clock.now_minutes() - self._started[post_id]
        i = bisect_right(self._reach[post_id], elapsed) - 1
        if i < 0:
            return PollResult(score=0, comments=0, crossposts=0, category="new")
        if record.removed and elapsed > snaps.t_minutes[-1]:
            return PollResult(0, 0, 0, removed=True)
        return PollResult(snaps.score[i], snaps.comments[i], snaps.crossposts[i], snaps.category[i], snaps.upvote_ratio[i])


class HttpPollingSource:
    """Polls ``GET {base_url}/{post_id}`` for a JSON post state.

    Expected body: a snapshot's engagement state, read as a dataset's is
    (:func:`ingest.read_engagement`: integer counts score, comments and
    crossposts, optional category and upvote_ratio in [0, 1]), and an optional
    true/false removed. 429/503 responses honor Retry-After (seconds or an
    HTTP-date) via :class:`RateLimitedError`; 404/410 are permanent; other
    failures are transient, and so is a body that is not valid JSON (a ``NaN``
    token included) or holds a bad value, such as a count of ``12.9``, ``"12"``
    or ``true``. ``auth_header`` is passed through verbatim as Authorization.
    """

    def __init__(self, base_url: str, auth_header: str | None = None, timeout_seconds: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.auth_header = auth_header
        self.timeout_seconds = timeout_seconds

    def fetch(self, post_id: str) -> PollResult:
        request = urllib.request.Request(f"{self.base_url}/{post_id}")
        if self.auth_header:
            request.add_header("Authorization", self.auth_header)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_seconds) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code in (429, 503):
                minutes = _retry_after_minutes(exc.headers.get("Retry-After"))
                raise RateLimitedError(f"HTTP {exc.code}", retry_after_minutes=minutes) from exc
            if exc.code in (404, 410):
                raise PermanentSourceError(f"HTTP {exc.code} for {post_id}") from exc
            raise TransientSourceError(f"HTTP {exc.code}") from exc
        except (urllib.error.URLError, TimeoutError) as exc:
            raise TransientSourceError(str(exc)) from exc
        try:
            payload = read_object(decode_json(body.decode("utf-8")), "body")
            score, comments, crossposts, ratio, category = read_engagement(payload)
            Snapshots((0.0,), (score,), (comments,), (crossposts,))  # counts a snapshot column holds, else a DatasetError
            return PollResult(score, comments, crossposts, category, ratio, read_flag(payload.get("removed", False), "removed"))
        except ValueError as exc:  # undecodable bytes, invalid JSON or a bad value
            raise TransientSourceError(f"unreadable body for {post_id}: {exc}") from exc


def _retry_after_minutes(value: str | None) -> float | None:
    """A Retry-After header in minutes: delay-seconds or an HTTP-date
    (RFC 9110, 10.2.3); None when absent, unreadable or longer than a sleep
    can wait (``threading.TIMEOUT_MAX`` seconds)."""
    if not value:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)  # inf past the float range
    else:
        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # "-0000": a UTC time from an unknown zone
            when = when.replace(tzinfo=timezone.utc)
        seconds = max((when - datetime.now(timezone.utc)).total_seconds(), 0.0)
    return seconds / 60.0 if seconds <= threading.TIMEOUT_MAX else None
