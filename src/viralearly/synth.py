"""Synthetic post corpora with planted virality and controllable signal.

Viral posts follow logistic-growth score curves: takeoff is early (tens of
minutes) while peak velocity lands hours later, which is exactly the gap
that makes early prediction possible. Non-viral posts plateau quickly at low
per-subscriber levels. Increments are Poisson draws along the expected curve,
snapshots sit on the collector's default poll schedule, and everything is
seed-driven (one spawned stream per post), so the same config always yields
byte-identical corpora.

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
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .collector import DEFAULT_POLL_SCHEDULE, schedule_next_poll
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

    n_posts: int
    viral_frac: float = 0.05
    signal: str = "temporal"
    takeoff_median_minutes: float = 25.0
    takeoff_log_sd: float = 0.7
    false_start_frac: float = 0.25
    horizon_minutes: float = 1560.0
    seed: int = 0

    def __post_init__(self):
        if self.n_posts < 20:
            raise ConfigError("n_posts must be at least 20")
        if not 0.0 < self.viral_frac < 1.0:
            raise ConfigError("viral_frac must be in (0, 1)")
        if self.signal not in SIGNAL_PLACEMENTS:
            raise ConfigError(f"signal must be one of {SIGNAL_PLACEMENTS}")


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
    n_viral = int(round(config.viral_frac * n))
    labels = np.zeros(n, dtype=np.int8)
    labels[corpus_rng.permutation(n)[:n_viral]] = 1

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
    times = [0.0]
    while times[-1] < horizon_minutes:
        step = schedule_next_poll(times[-1], DEFAULT_POLL_SCHEDULE)
        if times[-1] + step > horizon_minutes:
            break
        times.append(times[-1] + step)
    return np.array(times)


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
    comments_raw = _poisson_cumulative(rng, 0.12 * score_raw)
    crossposts_raw = _poisson_cumulative(rng, 0.012 * score_raw)
    scores = _poisson_cumulative(rng, score_raw)

    categories = _category_path(rng, grid, is_viral, network_signal)
    ratio = float(np.clip(rng.normal(0.92 if is_viral else 0.78, 0.03 if is_viral else 0.06), 0.05, 0.99))
    snapshots = Snapshots(
        t_minutes=tuple(map(float, grid)),
        score=tuple(map(int, scores)),
        comments=tuple(map(int, comments_raw)),
        crossposts=tuple(map(int, crossposts_raw)),
        upvote_ratio=tuple(round(float(np.clip(ratio + 0.005 * rng.normal(), 0.0, 1.0)), 4) for _ in grid),
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

    title = " ".join(rng.choice(_TITLE_WORDS, size=int(rng.integers(3, 10))))
    media_type = str(rng.choice(("image", "video", "gif", "text", "audio"), p=(0.85, 0.08, 0.03, 0.02, 0.02)))
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
        target = float(np.clip(rng.lognormal(np.log(600.0), 0.35), 250.0, 4000.0))
        takeoff = float(
            np.clip(
                rng.lognormal(np.log(config.takeoff_median_minutes), config.takeoff_log_sd),
                4.0,
                300.0,
            )
        )
        t_peak_vel = float(np.clip(rng.normal(456.0, 120.0), takeoff + 60.0, 1300.0))
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


def _poisson_cumulative(rng, expected: np.ndarray) -> np.ndarray:
    increments = np.clip(np.diff(expected, prepend=0.0), 0.0, None)
    return np.cumsum(rng.poisson(increments))


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
    for _ in grid:
        u = rng.random()
        if u < 0.02 and level < 3:
            level += 1
        elif u > 0.98 and level > 0:
            level -= 1
        path.append(ladder[level])
    return path


def _static_blob(rng, is_viral, static_signal, media_type, title) -> dict:
    if static_signal and is_viral:
        template = "golden_template" if rng.random() < 0.8 else str(rng.choice(_TEMPLATES[1:]))
        relatability = int(rng.integers(6, 11))
        novelty = int(rng.integers(6, 11))
    elif static_signal:
        template = str(rng.choice(_TEMPLATES[1:]))
        relatability = int(rng.integers(0, 7))
        novelty = int(rng.integers(0, 7))
    else:
        template = str(rng.choice(_TEMPLATES))
        relatability = int(rng.integers(0, 11))
        novelty = int(rng.integers(0, 11))
    return {
        "is_offensive": bool(rng.random() < 0.12),
        "offense_type": str(rng.choice(("none", "mild", "crude", "political"), p=(0.7, 0.15, 0.1, 0.05))),
        "cultural_reference_type": str(rng.choice(("global", "regional", "niche", "none"))),
        "primary_topic": str(rng.choice(_TOPICS)),
        "target_audience": str(rng.choice(("general", "teens", "adults", "gamers"))),
        "meme_type": str(rng.choice(("image_macro", "reaction", "exploitable", "screenshot"))),
        "analyzed_media_type": media_type,
        "title_media_coherence": str(rng.choice(("high", "medium", "low"))),
        "controversy_score": int(rng.integers(0, 11)),
        "controversy_type": str(rng.choice(("none", "political", "social"))),
        "emotional_resonance": str(rng.choice(("high", "medium", "low"))),
        "humor_type": str(rng.choice(_HUMOR)),
        "insight_commentary_score": int(rng.integers(0, 11)),
        "novelty_uniqueness_score": novelty,
        "profanity_level": str(rng.choice(("none", "mild", "strong"), p=(0.75, 0.2, 0.05))),
        "relatability_score": relatability,
        "format_effort": str(rng.choice(("low", "medium", "high"))),
        "format_simplicity": int(rng.integers(1, 6)),
        "format_appeal": int(rng.integers(1, 6)),
        "format_clarity": int(rng.integers(1, 6)),
        "social_platform": str(rng.choice(("reddit_native", "cross_platform", "unknown"))),
        "social_shareability": str(rng.choice(("high", "medium", "low"))),
        "social_currency": str(rng.choice(("current", "evergreen", "dated"))),
        "social_trend": str(rng.choice(("rising", "stable", "fading"))),
        "text_language": "english",
        "text_sentiment_overall": str(rng.choice(_SENTIMENTS)),
        "text_word_count": float(rng.integers(0, 30)),
        "text_image_alignment": str(rng.choice(("aligned", "partial", "unrelated"))),
        "text_tone": str(rng.choice(_TONES)),
        "is_title_present": bool(title.strip()),
        "title_word_count": len(title.split()),
        "title_sentiment": str(rng.choice(_SENTIMENTS)),
        "media_type": media_type,
        "image_height": float(rng.integers(300, 2000)),
        "image_width": float(rng.integers(300, 2000)),
        "key_objects_primary": str(rng.choice(_OBJECTS)),
        "composition": str(rng.choice(("single_panel", "multi_panel", "collage"))),
        "panels": str(rng.choice(("1", "2", "3", "4+"), p=(0.6, 0.2, 0.1, 0.1))),
        "template_is_variant": bool(rng.random() < 0.3),
        "template_name": template,
        "facial_expression_is_face": bool(rng.random() < 0.6),
        "facial_expression_primary_emotion": str(rng.choice(_EMOTIONS)),
        "identified_person_is_celebrity": bool(rng.random() < 0.1),
        "identified_person_is_character": bool(rng.random() < 0.2),
        "identified_character_name": str(rng.choice(("none", "spongebob", "shrek", "batman"), p=(0.7, 0.1, 0.1, 0.1))),
        "identified_person_celebrity_name": str(rng.choice(("none", "keanu", "elon"), p=(0.85, 0.08, 0.07))),
    }


def mock_static_extractor(post_id: str, title: str = "", media_type: str = "image", seed: int = 0) -> dict:
    """Deterministic content-feature stand-in keyed on the post id.

    Produces a schema-conformant static blob without any label signal; meant
    for tests and for exercising the static-feature ingestion path.
    """
    digest = hashlib.sha256(f"{seed}:{post_id}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    return _static_blob(rng, is_viral=False, static_signal=False, media_type=media_type, title=title)
