"""Low-level math on engagement trajectories.

All functions take parallel arrays ``t`` (strictly increasing minutes) and
``y`` (engagement level at those times). The curve between snapshots is
piecewise linear; outside the observed range it is extended as a constant
(first/last observed value), which is also what ``np.interp`` does.
"""

from __future__ import annotations

import math

import numpy as np

TAKEOFF_VELOCITY_FRACTION = 0.1
TAKEOFF_MIN_LEVEL = 1.0
ENTROPY_BINS = 6
MOMENTUM_EPS = 1e-9


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
