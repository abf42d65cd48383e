"""Synthetic post corpora with planted virality and controllable signal.

Viral posts follow logistic-growth score curves: takeoff is early (tens of
minutes) while peak velocity lands hours later, which is exactly the gap
that makes early prediction possible. Non-viral posts plateau quickly at low
per-subscriber levels. Increments are Poisson draws along the expected curve,
snapshots sit on the collector's default poll schedule, and everything is
seed-driven (one spawned stream per post), so the same config always yields
byte-identical corpora.

A categorical draw is the generator call ``Generator.choice`` itself makes,
with no array built per draw: one ``integers`` call for an unweighted choice,
one ``random()`` searched in a CDF computed once, as ``choice`` computes it,
for a weighted one. The category walk and the three engagement series take
one call each. A post's draws keep their order, so the corpus bytes are
pinned: tests fix the written bytes of every signal placement and compare
them with the former ``choice``-based generator.

``signal`` controls which modalities carry label information beyond the
trajectories themselves: "temporal" leaves static blobs and category paths as
pure noise, "static" / "network" additionally correlate those groups with the
planted label, "mixed" does both.

The static blobs double as the deterministic stand-in for a content feature
extractor (see :func:`mock_static_extractor`): values are drawn from fixed
categorical distributions keyed on the post id.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from numbers import Integral

import numpy as np

from .collector import poll_times
from .errors import ConfigError
from .ingest import AuthorInfo, PostRecord, Snapshots, SubredditInfo

SIGNAL_PLACEMENTS = ("temporal", "network", "static", "mixed")

# sigmoid argument at which a logistic curve's velocity is 10% of its peak
_TAKEOFF_LOGIT = 3.63690


@dataclass(frozen=True)
class SynthConfig:
    """Corpus shape: size, planted viral fraction, signal placement, trajectories.

    Takeoff times are lognormal: the default spread leaves a real fraction of
    viral posts invisible at 30 minutes (signal accumulates with the window);
    a small ``takeoff_log_sd`` makes virality legible from the start.
    """

    n_posts: int = 1000
    viral_frac: float = 0.05
    signal: str = "temporal"
    takeoff_median_minutes: float = 25.0
    takeoff_log_sd: float = 0.7
    false_start_frac: float = 0.25
    horizon_minutes: float = 1560.0
    seed: int = 42

    def __post_init__(self):
        if not isinstance(self.n_posts, Integral) or self.n_posts < 20:
            raise ConfigError(f"n_posts must be an integer of at least 20, got {self.n_posts!r}")
        if not 0.0 < self.viral_frac < 1.0:
            raise ConfigError("viral_frac must be in (0, 1)")
        if not 0 < self.n_viral < self.n_posts:
            raise ConfigError(f"viral_frac {self.viral_frac!r} plants {self.n_viral} of {self.n_posts} posts; it must plant 1 to {self.n_posts - 1}")
        if self.signal not in SIGNAL_PLACEMENTS:
            raise ConfigError(f"signal must be one of {SIGNAL_PLACEMENTS}")
        if not 0.0 < self.takeoff_median_minutes < math.inf:
            raise ConfigError(f"takeoff_median_minutes must be a finite number > 0, got {self.takeoff_median_minutes!r}")
        if not 0.0 <= self.takeoff_log_sd < math.inf:
            raise ConfigError(f"takeoff_log_sd must be a finite number >= 0, got {self.takeoff_log_sd!r}")
        if not 0.0 <= self.false_start_frac <= 1.0:
            raise ConfigError(f"false_start_frac must be in [0, 1], got {self.false_start_frac!r}")
        if not 0.0 <= self.horizon_minutes < math.inf:
            raise ConfigError(f"horizon_minutes must be a finite number >= 0, got {self.horizon_minutes!r}")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def n_viral(self) -> int:
        """The number of planted viral posts, ``round(viral_frac * n_posts)``."""
        return round(self.viral_frac * self.n_posts)


_LANGUAGE_POOL = (
    ("english", 6),
    ("german", 2),
    ("turkish", 1),
    ("nordic", 1),
    ("french", 1),
    ("spanish", 1),
    ("portuguese", 1),
    ("italian", 1),
)

_TITLE_WORDS = (
    "when", "the", "cat", "monday", "exam", "boss", "wifi", "pizza", "group",
    "chat", "homework", "deadline", "coffee", "winter", "final", "update",
    "patch", "server", "meeting", "weekend",
)

_TEMPLATES = ("golden_template", "two_buttons", "brain_tiers", "pointing", "stonks", "plain_caption")
_TOPICS = ("school", "work", "gaming", "animals", "sports", "politics")
_HUMOR = ("absurdist", "ironic", "wholesome", "dark", "pun")
_TONES = ("sincere", "ironic", "sarcastic", "absurd")
_SENTIMENTS = ("positive", "neutral", "negative")
_OBJECTS = ("person", "animal", "text", "cartoon", "object")
_EMOTIONS = ("joy", "anger", "surprise", "neutral", "none")


def _weighted(options: tuple[str, ...], p: tuple[float, ...]) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The options of a weighted choice and the CDF ``Generator.choice`` searches for them."""
    cdf = np.cumsum(p)
    return options, tuple((cdf / cdf[-1]).tolist())


_MEDIA_TYPES = _weighted(("image", "video", "gif", "text", "audio"), (0.85, 0.08, 0.03, 0.02, 0.02))
_OFFENSE_TYPES = _weighted(("none", "mild", "crude", "political"), (0.7, 0.15, 0.1, 0.05))
_PROFANITY = _weighted(("none", "mild", "strong"), (0.75, 0.2, 0.05))
_PANELS = _weighted(("1", "2", "3", "4+"), (0.6, 0.2, 0.1, 0.1))
_CHARACTERS = _weighted(("none", "spongebob", "shrek", "batman"), (0.7, 0.1, 0.1, 0.1))
_CELEBRITIES = _weighted(("none", "keanu", "elon"), (0.85, 0.08, 0.07))


def _pick(rng: np.random.Generator, options: tuple[str, ...]) -> str:
    """``rng.choice(options)`` as the generator draws it: one ``integers`` call."""
    return options[rng.integers(0, len(options))]


def _pick_weighted(rng: np.random.Generator, weighted: tuple[tuple[str, ...], tuple[float, ...]]) -> str:
    """``rng.choice(options, p=p)`` as the generator draws it: one ``random()`` searched in the CDF."""
    options, cdf = weighted
    return options[bisect_right(cdf, rng.random())]


def generate(config: SynthConfig) -> tuple[list[PostRecord], np.ndarray]:
    """Build the corpus; returns records plus the planted binary labels.

    Exactly ``round(viral_frac * n_posts)`` posts are viral, spread uniformly
    over the creation-time range so chronological splits keep the class
    balance on both sides.
    """
    root = np.random.SeedSequence(config.seed)
    corpus_rng = np.random.default_rng(root.spawn(1)[0])
    post_seeds = root.spawn(config.n_posts)

    n = config.n_posts
    labels = np.zeros(n, dtype=np.int8)
    labels[corpus_rng.permutation(n)[:config.n_viral]] = 1

    subreddits = _subreddit_pool(corpus_rng)
    base_time = datetime(2024, 1, 1, tzinfo=timezone.utc)
    days = np.sort(corpus_rng.uniform(0.0, 70 * 1440.0, size=n)) // 1440.0
    # posting-hour preference: viral posts cluster in the evening hours
    viral_hours = corpus_rng.normal(19.0, 2.0, size=n) % 24.0
    flat_hours = corpus_rng.uniform(0.0, 24.0, size=n)
    hours = np.where(labels == 1, viral_hours, flat_hours)
    minutes = corpus_rng.uniform(0.0, 59.0, size=n)
    created = days * 1440.0 + hours * 60.0 + minutes + np.arange(n) * 1e-3

    grid = poll_grid(config.horizon_minutes)
    records = [
        _make_post(
            index=i,
            rng=np.random.default_rng(post_seeds[i]),
            is_viral=bool(labels[i]),
            config=config,
            subreddit=subreddits[int(corpus_rng.integers(0, len(subreddits)))],
            created=base_time + timedelta(minutes=float(created[i])),
            grid=grid,
        )
        for i in range(n)
    ]
    return records, labels


def poll_grid(horizon_minutes: float) -> np.ndarray:
    """Snapshot times following the collector's default poll schedule."""
    return np.array(poll_times(horizon_minutes))


def _subreddit_pool(rng: np.random.Generator) -> list[SubredditInfo]:
    """Subreddits with log-uniform subscriber counts in [50k, 5M]."""
    lo, hi = 50_000, 5_000_000
    pool = []
    counter = 0
    for language, n_subs in _LANGUAGE_POOL:
        for _ in range(n_subs):
            counter += 1
            subscribers = int(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            pool.append(
                SubredditInfo(
                    name=f"memes_{language[:2]}_{counter:02d}",
                    subscribers=max(subscribers, 1),
                    language_group=language,
                )
            )
    return pool


def _make_post(index, rng, is_viral, config, subreddit, created, grid) -> PostRecord:
    post_id = f"p{index:06d}"
    network_signal = config.signal in ("network", "mixed")
    static_signal = config.signal in ("static", "mixed")

    score_raw = _score_curve(rng, is_viral, config, subreddit.subscribers, grid)
    # comments, crossposts and score: one Poisson call over the three series' increments, row by row
    increments = np.clip(np.diff(np.stack((0.12 * score_raw, 0.012 * score_raw, score_raw)), prepend=0.0), 0.0, None)
    comments_raw, crossposts_raw, scores = np.cumsum(rng.poisson(increments), axis=1)

    categories = _category_path(rng, grid, is_viral, network_signal)
    ratio = min(max(rng.normal(0.92 if is_viral else 0.78, 0.03 if is_viral else 0.06), 0.05), 0.99)
    ratios = np.clip(ratio + 0.005 * rng.normal(size=len(grid)), 0.0, 1.0)
    snapshots = Snapshots(
        t_minutes=array("d", grid.tobytes()),
        score=array("q", scores.astype(np.int64, copy=False).tobytes()),
        comments=array("q", comments_raw.astype(np.int64, copy=False).tobytes()),
        crossposts=array("q", crossposts_raw.astype(np.int64, copy=False).tobytes()),
        upvote_ratio=tuple(round(r, 4) for r in ratios.tolist()),
        category=tuple(categories),
    )

    if network_signal:
        karma = float(np.exp(rng.normal(11.0 if is_viral else 8.0, 0.7)))
    else:
        karma = float(np.exp(rng.normal(9.0, 1.2)))
    author = AuthorInfo(
        total_karma=int(karma),
        account_age_days=float(np.round(rng.uniform(10, 3000), 1)),
        is_premium=bool(rng.random() < 0.08),
    )

    title = " ".join([_TITLE_WORDS[i] for i in rng.integers(0, len(_TITLE_WORDS), size=int(rng.integers(3, 10)))])
    media_type = _pick_weighted(rng, _MEDIA_TYPES)
    return PostRecord(
        post_id=post_id,
        created_utc=created,
        title=title,
        author=author,
        subreddit=subreddit,
        media_type=media_type,
        media_url=f"https://media.example/{post_id}.jpg",
        removed=False,
        snapshots=snapshots,
        static_features=_static_blob(rng, is_viral, static_signal, media_type, title),
    )


def _score_curve(rng, is_viral, config, subscribers, grid) -> np.ndarray:
    """Expected raw score along the grid (per-100k target scaled to the sub).

    Viral takeoffs are heavy-tailed (median ~25 min, some past two hours), so
    early windows see only part of the class; a quarter of non-viral posts
    are "false starts" that climb steeply at first and then flatten low.
    Together these make the discriminative signal accumulate with the window
    instead of being saturated at 30 minutes.
    """
    if is_viral:
        target = min(max(rng.lognormal(np.log(600.0), 0.35), 250.0), 4000.0)
        takeoff = min(max(rng.lognormal(np.log(config.takeoff_median_minutes), config.takeoff_log_sd), 4.0), 300.0)
        t_peak_vel = min(max(rng.normal(456.0, 120.0), takeoff + 60.0), 1300.0)
        rate = _TAKEOFF_LOGIT / (t_peak_vel - takeoff)
        norm_curve = target / (1.0 + np.exp(-rate * (grid - t_peak_vel)))
    elif rng.random() < config.false_start_frac:
        target = float(rng.uniform(5.0, 70.0))
        t_mid = rng.uniform(15.0, 90.0)
        rate = rng.uniform(0.05, 0.15)
        norm_curve = target / (1.0 + np.exp(-rate * (grid - t_mid)))
    else:
        target = float(min(rng.gamma(2.0, 4.0) + 0.3, 80.0))
        tau = rng.uniform(15.0, 240.0)
        norm_curve = target * (1.0 - np.exp(-grid / tau))
    return norm_curve * subscribers / 100_000.0


def _category_path(rng, grid, is_viral, network_signal) -> list[str]:
    ladder = ("new", "rising", "hot", "top")
    if network_signal and is_viral:
        # promoted quickly and stays high
        t_rising, t_hot, t_top = sorted(rng.uniform(10.0, 400.0, size=3))
        def state(t):
            if t >= t_top:
                return "top"
            if t >= t_hot:
                return "hot"
            if t >= t_rising:
                return "rising"
            return "new"
        return [state(t) for t in grid]
    if network_signal:
        return ["new"] * len(grid)
    # placement elsewhere: a label-independent sparse random walk
    level = 0
    path = []
    for u in rng.random(len(grid)).tolist():
        if u < 0.02 and level < 3:
            level += 1
        elif u > 0.98 and level > 0:
            level -= 1
        path.append(ladder[level])
    return path


def _static_blob(rng, is_viral, static_signal, media_type, title) -> dict:
    if static_signal and is_viral:
        template = "golden_template" if rng.random() < 0.8 else _pick(rng, _TEMPLATES[1:])
        relatability = int(rng.integers(6, 11))
        novelty = int(rng.integers(6, 11))
    elif static_signal:
        template = _pick(rng, _TEMPLATES[1:])
        relatability = int(rng.integers(0, 7))
        novelty = int(rng.integers(0, 7))
    else:
        template = _pick(rng, _TEMPLATES)
        relatability = int(rng.integers(0, 11))
        novelty = int(rng.integers(0, 11))
    return {
        "is_offensive": bool(rng.random() < 0.12),
        "offense_type": _pick_weighted(rng, _OFFENSE_TYPES),
        "cultural_reference_type": _pick(rng, ("global", "regional", "niche", "none")),
        "primary_topic": _pick(rng, _TOPICS),
        "target_audience": _pick(rng, ("general", "teens", "adults", "gamers")),
        "meme_type": _pick(rng, ("image_macro", "reaction", "exploitable", "screenshot")),
        "analyzed_media_type": media_type,
        "title_media_coherence": _pick(rng, ("high", "medium", "low")),
        "controversy_score": int(rng.integers(0, 11)),
        "controversy_type": _pick(rng, ("none", "political", "social")),
        "emotional_resonance": _pick(rng, ("high", "medium", "low")),
        "humor_type": _pick(rng, _HUMOR),
        "insight_commentary_score": int(rng.integers(0, 11)),
        "novelty_uniqueness_score": novelty,
        "profanity_level": _pick_weighted(rng, _PROFANITY),
        "relatability_score": relatability,
        "format_effort": _pick(rng, ("low", "medium", "high")),
        "format_simplicity": int(rng.integers(1, 6)),
        "format_appeal": int(rng.integers(1, 6)),
        "format_clarity": int(rng.integers(1, 6)),
        "social_platform": _pick(rng, ("reddit_native", "cross_platform", "unknown")),
        "social_shareability": _pick(rng, ("high", "medium", "low")),
        "social_currency": _pick(rng, ("current", "evergreen", "dated")),
        "social_trend": _pick(rng, ("rising", "stable", "fading")),
        "text_language": "english",
        "text_sentiment_overall": _pick(rng, _SENTIMENTS),
        "text_word_count": float(rng.integers(0, 30)),
        "text_image_alignment": _pick(rng, ("aligned", "partial", "unrelated")),
        "text_tone": _pick(rng, _TONES),
        "is_title_present": bool(title.strip()),
        "title_word_count": len(title.split()),
        "title_sentiment": _pick(rng, _SENTIMENTS),
        "media_type": media_type,
        "image_height": float(rng.integers(300, 2000)),
        "image_width": float(rng.integers(300, 2000)),
        "key_objects_primary": _pick(rng, _OBJECTS),
        "composition": _pick(rng, ("single_panel", "multi_panel", "collage")),
        "panels": _pick_weighted(rng, _PANELS),
        "template_is_variant": bool(rng.random() < 0.3),
        "template_name": template,
        "facial_expression_is_face": bool(rng.random() < 0.6),
        "facial_expression_primary_emotion": _pick(rng, _EMOTIONS),
        "identified_person_is_celebrity": bool(rng.random() < 0.1),
        "identified_person_is_character": bool(rng.random() < 0.2),
        "identified_character_name": _pick_weighted(rng, _CHARACTERS),
        "identified_person_celebrity_name": _pick_weighted(rng, _CELEBRITIES),
    }


def mock_static_extractor(post_id: str, title: str = "", media_type: str = "image", seed: int = 0) -> dict:
    """Deterministic content-feature stand-in keyed on the post id.

    Produces a schema-conformant static blob without any label signal; meant
    for tests and for exercising the static-feature ingestion path.
    """
    digest = hashlib.sha256(f"{seed}:{post_id}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    return _static_blob(rng, is_viral=False, static_signal=False, media_type=media_type, title=title)
