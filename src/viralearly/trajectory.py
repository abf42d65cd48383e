"""The batched trajectory kernel: every windowed column of a batch of posts.

:func:`pad_snapshots` lays a batch's snapshots out once as (posts x
snapshots) arrays, times padded with +inf so no window observes a pad, and
derives there all that no window changes. It reads each typed column of
:class:`ingest.Snapshots` (times, counts) as the joined raw buffers of the
batch's series, with no Python object per value. Per window, each row's observed
count comes from the one ``t <= W`` rule, :func:`ingest.observed_count`, and
:func:`window_columns` and :func:`labeling_columns` reduce every row's
observed prefix at once. The curve between snapshots is piecewise linear and
constant outside the observed range (as ``np.interp`` extends it).

Every value equals the one-post derivation bit for bit: elementwise math,
diffs, cumsums and bincounts along a row do not depend on the batch, and each
pairwise reduction (sum, mean, std, trapezoid, dot) runs over the rows grouped
by reduced length, so each row sums in the order a 1-D array of its length has.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DatasetError
from .ingest import COLUMN_TYPECODES, PostRecord, observed_count

TAKEOFF_VELOCITY_FRACTION = 0.1
TAKEOFF_MIN_LEVEL = 1.0
ENTROPY_BINS = 6
MOMENTUM_EPS = 1e-9
PER_SUBSCRIBER_SCALE = 100_000.0
SLOPE_SHORT_MINUTES = 5.0
SLOPE_LONG_MINUTES = 10.0
# Ranked categories take codes 0-3 in this order; other names follow as met.
RANKED_CATEGORIES = ("new", "rising", "hot", "top")
VOLUME_METRICS = ("score", "comments", "crossposts")
PATH_LENGTH = 4  # categories a progression pattern spells out


@dataclass(frozen=True)
class WindowSpec:
    """Observation window: features use only the first ``minutes`` (0 < minutes < inf) of data."""

    minutes: float

    def __post_init__(self):
        if not 0.0 < self.minutes < np.inf:
            raise ConfigError(f"window minutes must be positive and finite ({self.minutes!r})")


def distinct(items: Iterable, what: str, error: type[ValueError] = ConfigError) -> list:
    """``items`` as a list, or an ``error`` naming the first ``what`` that repeats."""
    seen: dict = {}
    for item in items:
        if item in seen:
            raise error(f"{what} {item!r} repeats")
        seen[item] = None
    return list(seen)


@dataclass(frozen=True)
class SnapshotBatch:
    """Padded snapshot arrays of a batch of posts and their window-independent
    derivations; row i holds post i's first ``length[i]`` snapshots."""

    length: np.ndarray  # (posts,)
    t: np.ndarray  # (posts, snapshots), +inf pads
    norm: dict[str, np.ndarray]  # metric -> capped per-100k value, 0 pads
    ratio: np.ndarray  # NaN where missing or padded
    category: np.ndarray  # codes into ``category_names``, -1 pads
    category_names: tuple[str, ...]
    velocity: np.ndarray  # (posts, snapshots - 1), at interval ends
    acceleration: np.ndarray  # (posts, snapshots - 2)
    # index of the first snapshot with a positive count (per metric) or in a
    # category (hot, rising, top); the width when there is none
    first: dict[str, np.ndarray]
    opens: np.ndarray  # the first snapshot of a post in its category
    path: np.ndarray  # (posts, PATH_LENGTH) category of each of the first runs, -1 past the last

    @property
    def size(self) -> int:
        return len(self.length)


def per_subscriber(counts: np.ndarray, subscribers) -> np.ndarray:
    """``counts / subscribers * PER_SUBSCRIBER_SCALE`` for int64 ``counts`` and the aligned integer
    ``subscribers`` (each >= 1, else a ValueError), each quotient rounded as Python's int / int rounds it."""
    num, den = counts.astype(np.float64), np.asarray(subscribers, dtype=np.float64)
    if np.any(den < 1):
        raise ValueError("subscribers must be >= 1")
    if np.all(np.abs(num) < 2.0**53) and np.all(den < 2.0**53):  # exact float operands: one rounding
        return np.multiply(np.divide(num, den, out=num), PER_SUBSCRIBER_SCALE, out=num)
    return (counts.astype(object) / np.asarray(subscribers, dtype=object)).astype(np.float64) * PER_SUBSCRIBER_SCALE


def pad_snapshots(records: Sequence[PostRecord], caps) -> SnapshotBatch:
    """The batch of ``records`` normalized with ``caps`` (any object with
    ``cap_for(metric)``). Snapshot times must be non-negative and strictly
    increasing, and a post with snapshots needs at least one subscriber; a
    post that breaks either rule is a :class:`DatasetError`."""
    length = np.array([len(r.snapshots) for r in records], dtype=np.intp)
    n_posts, n_snaps = len(records), int(length.sum())
    # at least three columns, so every derived array has one; pads are never observed
    width = max(int(length.max(initial=0)), 3)
    filled = np.arange(width) < length[:, None]  # row-major: the records' series one after another

    def padded(values, fill, dtype=np.float64):
        out = np.full((n_posts, width), fill, dtype=dtype)
        out[filled] = values
        return out

    def joined(name):
        return chain.from_iterable(getattr(r.snapshots, name) for r in records)

    def column(name):  # every series' values of an array column, one after another
        return np.frombuffer(b"".join(getattr(r.snapshots, name) for r in records), COLUMN_TYPECODES[name])

    unread = next((r for r in records if r.snapshots and r.subreddit.subscribers < 1), None)
    if unread is not None:
        raise DatasetError(f"post {unread.post_id}: subscribers must be >= 1")
    t = padded(column("t_minutes"), np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf between pads
        gap = np.diff(t, axis=1)
    bad = np.any(t < 0.0, axis=1) | np.any(gap <= 0.0, axis=1)
    if bad.any():
        raise DatasetError(f"post {records[int(np.argmax(bad))].post_id}: snapshot times are negative or not increasing")

    norm, first = {}, {}
    # each snapshot's subscribers, exact: int64, uint64 or, past 64 bits, Python ints
    of_snapshot = np.repeat(np.array([r.subreddit.subscribers for r in records if r.snapshots]), length[length > 0])
    for m in VOLUME_METRICS:
        counts = column(m)
        first[m] = _first_index(padded(counts > 0, False, bool))
        norm[m] = np.minimum(padded(per_subscriber(counts, of_snapshot), 0.0), caps.cap_for(m))

    names = list(joined("category"))
    codes = {c: i for i, c in enumerate(dict.fromkeys(RANKED_CATEGORIES + tuple(names)))}
    category = padded(np.fromiter(map(codes.__getitem__, names), np.int32, n_snaps), -1, np.int32)
    opens = np.zeros((n_posts, width), dtype=bool)
    for name, code in codes.items():
        at = _first_index(category == code)
        opens[np.flatnonzero(at < width), at[at < width]] = True
        if name in ("hot", "rising", "top"):
            first[name] = at

    runs = np.concatenate([np.ones((n_posts, 1), bool), category[:, 1:] != category[:, :-1]], axis=1)
    run = np.cumsum(runs, axis=1, dtype=np.int32) - 1  # each snapshot's run within its row
    starts = filled & runs & (run < PATH_LENGTH)
    path = np.full((n_posts, PATH_LENGTH), -1, dtype=np.int32)
    path[np.nonzero(starts)[0], run[starts]] = category[starts]

    with np.errstate(divide="ignore", invalid="ignore"):
        velocity = np.diff(norm["score"], axis=1) / gap
        acceleration = np.diff(velocity, axis=1) / gap[:, 1:]
    return SnapshotBatch(
        length=length,
        t=t,
        norm=norm,
        ratio=padded(np.array(list(joined("upvote_ratio")), dtype=np.float64), np.nan),  # None reads as NaN
        category=category,
        category_names=tuple(codes),
        velocity=velocity,
        acceleration=acceleration,
        first=first,
        opens=opens,
        path=path,
    )


def _first_index(hit: np.ndarray) -> np.ndarray:
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), hit.shape[1])


def _observed(batch: SnapshotBatch, minutes: float | None) -> np.ndarray:
    return batch.length if minutes is None else observed_count(batch.t, minutes)


def _at(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[i, index[i]] per row, with index clipped into the row."""
    return values[np.arange(len(index)), np.clip(index, 0, values.shape[1] - 1)]


def _where(cond: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.where(cond, values, np.nan)


def _by_length(counts: np.ndarray, lowest: int = 1):
    """(m, rows) for every distinct count m >= ``lowest``."""
    for m in np.unique(counts):
        if m >= lowest:
            yield int(m), np.flatnonzero(counts == m)


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.sum of each row's first ``counts[i]`` entries, as a 1-D sum."""
    out = np.zeros(len(counts))
    for m, rows in _by_length(counts):
        out[rows] = values[rows, :m].sum(axis=1)
    return out


def _value_at(batch: SnapshotBatch, y: np.ndarray, n: np.ndarray, x: float) -> np.ndarray:
    """``np.interp(x, t[:n], y[:n])`` per row (rows with n >= 1)."""
    t = batch.t
    j = np.count_nonzero(t <= x, axis=1) - 1  # the last snapshot at or before x
    k = np.clip(j, 0, t.shape[1] - 2)
    t0, t1, y0, y1 = _at(t, k), _at(t, k + 1), _at(y, k), _at(y, k + 1)
    with np.errstate(all="ignore"):  # np.interp's fallbacks for a NaN slope never apply to increasing times
        between = np.where(t0 == x, y0, (y1 - y0) / (t1 - t0) * (x - t0) + y0)
    return np.where(j < 0, y[:, 0], np.where(j >= n - 1, _at(y, n - 1), between))


def _knots(batch: SnapshotBatch, y: np.ndarray, n: np.ndarray, a: float, b: float):
    """Knots a, every observed time strictly inside (a, b), b, with the curve's
    values there, padded per row with b; and the knot count of each row."""
    t = batch.t
    lo = np.count_nonzero(t <= a, axis=1)
    k = np.count_nonzero(t < b, axis=1) - lo + 2
    c = np.arange(int(k.max(initial=2)))
    src = np.clip(lo[:, None] + c - 1, 0, t.shape[1] - 1)
    x = np.take_along_axis(t, src, axis=1)
    v = np.take_along_axis(y, src, axis=1)
    end = c >= (k - 1)[:, None]
    x = np.where(end, b, x)
    v = np.where(end, _value_at(batch, y, n, b)[:, None], v)
    x[:, 0], v[:, 0] = a, _value_at(batch, y, n, a)
    return x, v, k


def _auc(batch: SnapshotBatch, n: np.ndarray, a: float, b: float) -> np.ndarray:
    """``np.trapezoid`` of the extended curve over the knots in [a, b]."""
    x, v, k = _knots(batch, batch.norm["score"], n, a, b)
    return _row_sums(np.diff(x, axis=1) * (v[:, 1:] + v[:, :-1]) / 2.0, k - 1)


def _half_life(batch: SnapshotBatch, n: np.ndarray, minutes: float, total: np.ndarray) -> np.ndarray:
    """Earliest time the cumulative area reaches half of ``total``, solved on
    the segment where it does (the area is piecewise quadratic); W if none."""
    x, v, k = _knots(batch, batch.norm["score"], n, 0.0, minutes)
    width = np.diff(x, axis=1)
    area = 0.5 * (v[:, :-1] + v[:, 1:]) * width
    cum = np.cumsum(area, axis=1)
    target = 0.5 * total
    hit = (cum >= target[:, None]) & (np.arange(cum.shape[1]) < (k - 1)[:, None])
    i = np.argmax(hit, axis=1)
    need = target - np.where(i > 0, _at(cum, i - 1), 0.0)
    found = _at(x, i) + _solve_segment(_at(v, i), _at(v, i + 1), _at(width, i), need)
    return _where(total > 0.0, np.where(hit.any(axis=1), found, minutes))


def _solve_segment(v0, v1, width, need):
    """dx in [0, width] where v0*dx + 0.5*m*dx^2 (m the slope) reaches ``need``."""
    with np.errstate(all="ignore"):
        m = (v1 - v0) / width
        flat = np.where(v0 <= 0.0, width, np.minimum(width, need / v0))
        disc = v0 * v0 + 2.0 * m * need
        root = np.sqrt(disc)
        c1, c2 = (-v0 + root) / m, (-v0 - root) / m
    ok1 = (-1e-12 <= c1) & (c1 <= width + 1e-12)
    ok2 = (-1e-12 <= c2) & (c2 <= width + 1e-12)
    best = np.where(ok1 & ok2, np.minimum(c1, c2), np.where(ok1, c1, c2))
    curved = np.where(ok1 | ok2, np.minimum(np.maximum(best, 0.0), width), width)
    curved = np.where(disc < 0.0, width, curved)
    return np.where(width <= 0.0, 0.0, np.where(np.abs(m) < 1e-15, flat, curved))


def _timing_entropy(batch: SnapshotBatch, n: np.ndarray, minutes: float) -> np.ndarray:
    """Entropy (bits) of the clipped score increments over ``ENTROPY_BINS``
    equal time bins, each increment in the bin of its interval's end."""
    n_posts = batch.size
    valid = np.arange(batch.velocity.shape[1]) < (n - 1)[:, None]
    inc = np.clip(np.diff(batch.norm["score"], axis=1), 0.0, None)[valid]
    bins = np.clip((batch.t[:, 1:][valid] / minutes * ENTROPY_BINS).astype(int), 0, ENTROPY_BINS - 1)
    owner = np.nonzero(valid)[0]
    mass = np.bincount(owner * ENTROPY_BINS + bins, weights=inc, minlength=n_posts * ENTROPY_BINS)
    mass = mass.reshape(n_posts, ENTROPY_BINS)
    total = mass.sum(axis=1)
    positive = mass > 0.0
    with np.errstate(all="ignore"):
        p = mass / total[:, None]
        terms = np.where(positive, p * np.log2(p), 0.0)
    packed = np.take_along_axis(terms, np.argsort(~positive, axis=1, kind="stable"), axis=1)
    return np.where(total > 0.0, -_row_sums(packed, positive.sum(axis=1)), 0.0)


def _tail_slope(batch: SnapshotBatch, n: np.ndarray, span: float) -> np.ndarray:
    """OLS slope over the observed snapshots within ``span`` minutes of the
    last one; NaN with fewer than two such points or no spread in time."""
    t, y = batch.t, batch.norm["score"]
    lo = np.count_nonzero(t < (_at(t, n - 1) - span)[:, None], axis=1)
    out = np.full(batch.size, np.nan)
    for m, rows in _by_length(np.where(n > 0, n - lo, 0), lowest=2):
        cols = lo[rows, None] + np.arange(m)
        tt, yy = t[rows[:, None], cols], y[rows[:, None], cols]
        tc = tt - tt.mean(axis=1, keepdims=True)
        denom = np.vecdot(tc, tc)
        with np.errstate(all="ignore"):
            out[rows] = _where(denom != 0.0, np.vecdot(tc, yy - yy.mean(axis=1, keepdims=True)) / denom)
    return out


def _dynamics(batch: SnapshotBatch, n: np.ndarray) -> dict[str, np.ndarray]:
    """What labeling and the temporal features share: the last observed
    volumes, peak velocity and acceleration, and the takeoff point (the first
    velocity at or above ``TAKEOFF_VELOCITY_FRACTION`` of the peak while the
    score is at least ``TAKEOFF_MIN_LEVEL``). NaN where not defined."""
    v, a = batch.velocity, batch.acceleration
    v_ok = np.arange(v.shape[1]) < (n - 1)[:, None]
    a_ok = np.arange(a.shape[1]) < (n - 2)[:, None]
    peak = np.max(np.where(v_ok, v, -np.inf), axis=1)
    takes = v_ok & (v >= TAKEOFF_VELOCITY_FRACTION * peak[:, None]) & (batch.norm["score"][:, 1:] >= TAKEOFF_MIN_LEVEL)
    took = takes.any(axis=1) & (peak > 0.0)
    i = np.argmax(takes, axis=1)
    out = {f"norm_{m}": _where(n > 0, _at(batch.norm[m], n - 1)) for m in VOLUME_METRICS}
    out.update(
        peak_velocity=_where(n > 1, peak),
        peak_acceleration=_where(n > 2, np.max(np.where(a_ok, a, -np.inf), axis=1)),
        min_acceleration=_where(n > 2, np.min(np.where(a_ok, a, np.inf), axis=1)),
        time_to_takeoff=_where(took, _at(batch.t, i + 1)),
        takeoff_velocity=_where(took, _at(v, i)),
    )
    return out


def labeling_columns(batch: SnapshotBatch, minutes: float | None = None) -> np.ndarray:
    """(posts, 6) labeling design matrix, windowed or over each post's full
    horizon (``minutes`` None): the last normalized score, comments and
    crossposts, peak velocity, peak acceleration and takeoff time. Missing
    dynamics count as 0 and a takeoff never reached as the horizon; a post
    with nothing observed has zero engagement."""
    n = _observed(batch, minutes)
    d = _dynamics(batch, n)
    horizon = np.where(n > 0, _at(batch.t, n - 1), 0.0) if minutes is None else np.full(batch.size, float(minutes))
    columns = [np.where(n > 0, d[f"norm_{m}"], 0.0) for m in VOLUME_METRICS]
    columns += [np.where(n > 1, d["peak_velocity"], 0.0), np.where(n > 2, d["peak_acceleration"], 0.0)]
    took = ~np.isnan(d["time_to_takeoff"])
    return np.column_stack(columns + [np.where(took, d["time_to_takeoff"], horizon)])


def window_columns(batch: SnapshotBatch, minutes: float) -> dict[str, np.ndarray]:
    """Every window-dependent temporal and network column over the snapshots
    observed by ``minutes``, by feature name (the two ``pct_time_in_new`` are
    one column). Numeric columns are floats with NaN for missing; the category
    columns are object arrays of names with None for missing. A post with
    nothing observed has every column missing."""
    n = _observed(batch, minutes)
    seen = n > 0
    t, last = batch.t, n - 1
    out = _dynamics(batch, n)

    v = batch.velocity
    bursts = np.full(batch.size, np.nan)
    for m, rows in _by_length(np.maximum(last, 0)):
        vv = v[rows, :m]
        mean, std = vv.mean(axis=1), vv.std(axis=1)
        above = vv > (mean + std)[:, None]
        begins = above & ~np.concatenate([np.zeros((len(rows), 1), bool), above[:, :-1]], axis=1)
        bursts[rows] = np.where(std == 0.0, 0.0, begins.sum(axis=1))
    out["burst_count"] = bursts

    auc = _auc(batch, n, 0.0, minutes)
    early, late = _auc(batch, n, 0.0, minutes / 2.0), _auc(batch, n, minutes / 2.0, minutes)
    flat = np.abs(late - early) <= 1e-9 * np.maximum(np.maximum(np.abs(late), np.abs(early)), 1.0)
    out["engagement_auc"] = _where(seen, auc)
    out["momentum_ratio"] = _where(seen, np.where(flat, 1.0, late / (early + MOMENTUM_EPS)))
    out["half_life_minutes"] = _where(seen, _half_life(batch, n, minutes, auc))
    out["timing_entropy"] = _where(seen, _timing_entropy(batch, n, minutes))
    out["slope_5min"] = _tail_slope(batch, n, SLOPE_SHORT_MINUTES)
    out["slope_10min"] = _tail_slope(batch, n, SLOPE_LONG_MINUTES)
    observed = np.arange(t.shape[1]) < n[:, None]
    out["time_to_peak"] = _where(seen, _at(t, np.argmax(np.where(observed, batch.norm["score"], -np.inf), axis=1)))

    for name, event in (("first_vote_min", "score"), ("first_comment_min", "comments"), ("first_crosspost_min", "crossposts")):
        out[name] = _where(batch.first[event] < n, _at(t, batch.first[event]))
    for name in ("hot", "rising", "top"):
        out[f"time_to_{name}"] = _where(batch.first[name] < n, _at(t, batch.first[name]))

    # category path over the observed snapshots: changes between neighbours,
    # moves within the ranked order, and the left-attributed dwell (snapshot
    # j's category holds until snapshot j + 1, the last one through W)
    c, pair = batch.category, np.arange(t.shape[1] - 1) < last[:, None]
    before, after = c[:, :-1], c[:, 1:]
    changed = pair & (before != after)
    ranked = changed & (before < len(RANKED_CATEGORIES)) & (after < len(RANKED_CATEGORIES))
    changes = np.count_nonzero(changed, axis=1).astype(np.float64)
    promotions = np.count_nonzero(ranked & (after > before), axis=1)
    demotions = np.count_nonzero(ranked & (after < before), axis=1)
    # one sequential sum per (post, category), in snapshot order
    held = pair & (before < len(RANKED_CATEGORIES))
    cells = np.nonzero(held)[0] * len(RANKED_CATEGORIES) + before[held]
    spans = np.maximum(0.0, t[:, 1:][held] - t[:, :-1][held])
    dwell = np.bincount(cells, weights=spans, minlength=batch.size * len(RANKED_CATEGORIES)).reshape(batch.size, -1)
    codes = _at(c, last)
    for k, name in enumerate(RANKED_CATEGORIES):
        spent = dwell[:, k] + np.where(codes == k, np.maximum(0.0, minutes - _at(t, last)), 0.0)
        out[f"time_in_{name}"] = _where(seen, spent)
        out[f"pct_time_in_{name}"] = _where(seen, spent / minutes)

    names = np.array(batch.category_names + (None,), dtype=object)
    out["upvote_ratio"] = _where(seen, _at(batch.ratio, last))
    out["category_snapshot"] = names[np.where(seen, codes, -1)]
    with np.errstate(all="ignore"):
        out["transitions_within"] = out["category_transitions"] = _where(seen, changes)
        out["category_stability"] = _where(seen, np.where(n > 1, 1.0 - changes / (n - 1), 1.0))
        out["promotion_demotion_ratio"] = _where(seen, np.where(demotions > 0, promotions / demotions, promotions))
    out["unique_categories"] = _where(seen, np.count_nonzero(batch.opens & observed, axis=1).astype(np.float64))
    out["progression_pattern"] = _progression(batch, changes, seen, names)
    return out


def _progression(batch: SnapshotBatch, changes: np.ndarray, seen: np.ndarray, names: np.ndarray) -> np.ndarray:
    """The first ``PATH_LENGTH`` categories of the observed path joined by
    ">", plus ">+" when the path goes on; None for an unobserved post."""
    runs = changes.astype(np.intp) + 1
    shown = np.where(np.arange(PATH_LENGTH) < runs[:, None], batch.path, -1)
    keys = np.column_stack([shown, runs > PATH_LENGTH, seen])
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    texts = np.array(
        [">".join(names[c] for c in key[:PATH_LENGTH] if c >= 0) + (">+" if key[PATH_LENGTH] else "") if key[-1] else None for key in unique],
        dtype=object,
    )
    return texts[inverse.ravel()]
