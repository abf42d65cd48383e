import inspect
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from viralearly import experiments, synth
from viralearly.ingest import AuthorInfo, PostRecord, Snapshots, SubredditInfo
from viralearly.models.mlp import MLPParams

BASE_TIME = datetime(2024, 1, 1, tzinfo=timezone.utc)

# The labeling settings' one declaration: the defaults of ``experiments.prepare``.
_PREPARE = inspect.signature(experiments.prepare).parameters
WEIGHT_WINDOWS = _PREPARE["weight_windows"].default
TOP_FRAC = _PREPARE["top_frac"].default


def make_snapshots(times, scores, comments=None, crossposts=None, categories=None, ratios=None):
    n = len(times)
    comments = comments or [0] * n
    crossposts = crossposts or [0] * n
    categories = categories or ["new"] * n
    ratios = ratios or [None] * n
    return Snapshots(
        t_minutes=tuple(map(float, times)),
        score=tuple(map(int, scores)),
        comments=tuple(map(int, comments)),
        crossposts=tuple(map(int, crossposts)),
        upvote_ratio=tuple(ratios),
        category=tuple(categories),
    )


def make_record(
    post_id="p1",
    times=(0, 5, 10),
    scores=(0, 5, 10),
    comments=None,
    crossposts=None,
    categories=None,
    subscribers=100_000,
    created_minutes=0.0,
    media_url="https://media.example/p.jpg",
    removed=False,
    static_features=None,
    total_karma=1000,
    account_age_days=365.0,
    title="a meme title",
):
    return PostRecord(
        post_id=post_id,
        created_utc=BASE_TIME + timedelta(minutes=created_minutes),
        title=title,
        author=AuthorInfo(total_karma=total_karma, account_age_days=account_age_days),
        subreddit=SubredditInfo(name="memes_en_01", subscribers=subscribers, language_group="english"),
        media_type="image",
        media_url=media_url,
        removed=removed,
        snapshots=make_snapshots(times, scores, comments, crossposts, categories),
        static_features=static_features,
    )


def flatten_params(params: MLPParams) -> np.ndarray:
    """An MLP's weights then biases as one vector, for the gradient checks."""
    return np.concatenate([a.ravel() for a in (*params.weights, *params.biases)])


def params_from_flat(params: MLPParams, vec: np.ndarray) -> MLPParams:
    """Arrays shaped as ``params``' weights and biases, read in order from ``vec``."""
    arrays, k = [], 0
    for a in (*params.weights, *params.biases):
        arrays.append(vec[k : k + a.size].reshape(a.shape).copy())
        k += a.size
    n = len(params.weights)
    return MLPParams(arrays[:n], arrays[n:])


@pytest.fixture(scope="session")
def temporal_corpus():
    """Medium synthetic corpus; only trajectories carry label signal."""
    records, planted = synth.generate(synth.SynthConfig(n_posts=800, viral_frac=0.05, seed=7))
    return records, planted


@pytest.fixture(scope="session")
def prepared(temporal_corpus):
    """Chronological split plus fitted labeling artifacts for the corpus above."""
    records, _ = temporal_corpus
    return experiments.prepare(records)
