import hashlib

import numpy as np
import pytest

from viralearly import ingest
from viralearly.errors import ConfigError
from viralearly.labeling import NormalizationCaps
from viralearly.synth import SynthConfig, generate, mock_static_extractor, poll_grid

import oracles


class TestConfig:
    def test_tiny_corpus_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_posts=5)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_posts=100, viral_frac=1.0)

    def test_bad_signal_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_posts=100, signal="vibes")

    # each was accepted, or failed inside a draw with numpy's message or a TypeError
    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"takeoff_log_sd": -1.0}, "takeoff_log_sd"),
            ({"takeoff_log_sd": float("nan")}, "takeoff_log_sd"),
            ({"takeoff_median_minutes": float("nan")}, "takeoff_median_minutes"),
            ({"takeoff_median_minutes": -5.0}, "takeoff_median_minutes"),
            ({"takeoff_median_minutes": 0.0}, "takeoff_median_minutes"),
            ({"false_start_frac": 1.5}, "false_start_frac"),
            ({"false_start_frac": -0.1}, "false_start_frac"),
            ({"n_posts": 20.5}, "n_posts"),
            ({"n_posts": 20, "viral_frac": 0.01}, "viral_frac"),
            ({"n_posts": 20, "viral_frac": 0.99}, "viral_frac"),
            ({"seed": -1}, "seed"),
        ],
        ids=[
            "negative-log_sd", "nan-log_sd", "nan-median", "negative-median", "zero-median", "false_start-above-1",
            "negative-false_start", "fractional-n_posts", "no-viral-post", "every-post-viral", "negative-seed",
        ],
    )
    def test_setting_it_cannot_honour_rejected(self, settings, field):
        with pytest.raises(ConfigError, match=field):
            SynthConfig(**settings)

    def test_edges_it_can_honour_accepted(self):
        config = SynthConfig(n_posts=20, viral_frac=0.05, takeoff_log_sd=0.0, false_start_frac=1.0, seed=0)
        assert config.n_viral == 1
        _, labels = generate(config)
        assert int(labels.sum()) == 1

    # an infinite horizon never ended the poll-grid walk
    @pytest.mark.parametrize("horizon", [-1.0, float("inf"), float("nan")], ids=["negative", "inf", "nan"])
    def test_horizon_that_is_negative_or_not_finite_rejected(self, horizon):
        with pytest.raises(ConfigError, match="horizon_minutes must be"):
            SynthConfig(n_posts=100, horizon_minutes=horizon)


class TestGenerate:
    def test_exact_positive_count(self):
        _, labels = generate(SynthConfig(n_posts=1000, viral_frac=0.05, seed=7))
        assert int(labels.sum()) == 50

    def test_same_seed_byte_identical(self, tmp_path):
        a, _ = generate(SynthConfig(n_posts=60, seed=11))
        b, _ = generate(SynthConfig(n_posts=60, seed=11))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ingest.write_dataset(a, pa)
        ingest.write_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize(
        "config, digest",
        [
            (SynthConfig(n_posts=200, seed=7), "95820d47d2471736788c91e4c4dc30cc2b583a7b165a4162b0320077c6bd6e7c"),
            (SynthConfig(n_posts=200, seed=3, signal="mixed"), "ea5eca4bdfbc195d68868fbacc04a111b6082e9847228750ebbf88fdabd16873"),
            (SynthConfig(n_posts=200, seed=5, signal="network"), "09de2c595ee96ba74e63c3656f7788e6abac8af1548e472211eecd856ec94f22"),
            (SynthConfig(n_posts=200, seed=9, signal="static"), "e15afe8b855c7df6106d72bb481dd715d17041a954d4cbef0a6085f25ca40e2f"),
            (
                SynthConfig(n_posts=40, seed=11, signal="mixed", horizon_minutes=0.0),
                "eb7edbae4c2368f6ae2fcad5924589020d3b78b349c8cdeff14e767d718a3126",
            ),
        ],
        ids=["temporal_seed_7", "mixed_seed_3", "network_seed_5", "static_seed_9", "mixed_seed_11_horizon_0"],
    )
    def test_written_corpus_is_pinned(self, tmp_path, config, digest):
        # any change to the generator's draws or to the line format shows here
        path = tmp_path / "posts.jsonl"
        ingest.write_dataset(generate(config)[0], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_different_seeds_differ(self):
        a, _ = generate(SynthConfig(n_posts=60, seed=1))
        b, _ = generate(SynthConfig(n_posts=60, seed=2))
        assert a != b

    def test_records_pass_validation(self, temporal_corpus):
        records, _ = temporal_corpus
        assert all(ingest.validate_record(r).ok for r in records)

    def test_records_survive_quality_filters(self, temporal_corpus):
        records, _ = temporal_corpus
        summary = ingest.FilterSummary()
        kept = list(ingest.apply_quality_filters(records, summary=summary))
        assert summary.kept == summary.total == len(records)
        assert len(kept) == len(records)

    def test_snapshots_follow_poll_grid(self):
        records, _ = generate(SynthConfig(n_posts=20, seed=3, horizon_minutes=1560.0))
        grid = poll_grid(1560.0)
        assert list(records[0].snapshots.t_minutes) == grid.tolist()
        # 5-minute resolution early, hourly late
        assert grid[1] - grid[0] == 5.0
        assert grid[-1] - grid[-2] == 60.0

    def test_dataset_format_interchangeable(self, tmp_path):
        records, _ = generate(SynthConfig(n_posts=30, seed=5))
        path = tmp_path / "posts.jsonl"
        ingest.write_dataset(records, path)
        parsed = list(ingest.parse_dataset(path))
        assert parsed == records

    def test_created_times_distinct_and_spread(self, temporal_corpus):
        records, _ = temporal_corpus
        stamps = [r.created_utc for r in records]
        assert len(set(stamps)) == len(stamps)
        assert (max(stamps) - min(stamps)).days >= 50


class TestTrajectoryShape:
    def test_takeoff_precedes_peak_velocity_on_average(self, temporal_corpus):
        records, labels = temporal_corpus
        wide = NormalizationCaps({"score": 1e12, "comments": 1e12, "crossposts": 1e12})
        takeoffs, peak_vel_times = [], []
        for record, viral in zip(records, labels):
            if not viral:
                continue
            t = np.array(record.snapshots.t_minutes)
            norm = np.array(
                [oracles.normalize_metric(s, record.subreddit.subscribers, 1e12) for s in record.snapshots.score]
            )
            point = oracles.takeoff_point(t, norm)
            tv, v = oracles.velocity_series(t, norm)
            if point is None or len(v) == 0:
                continue
            takeoffs.append(point[0])
            peak_vel_times.append(float(tv[int(np.argmax(v))]))
        assert len(takeoffs) > 10
        assert np.mean(peak_vel_times) > np.mean(takeoffs) + 60.0

    def test_nonviral_plateau_is_low(self, temporal_corpus):
        records, labels = temporal_corpus
        finals = []
        for record, viral in zip(records, labels):
            if viral:
                continue
            finals.append(record.snapshots.score[-1] / record.subreddit.subscribers * 100_000)
        assert np.median(finals) < 50.0


class TestReference:
    """The generator's draws against the ``choice``-based reference, byte for byte."""

    @pytest.mark.parametrize("horizon", [1560.0, 0.0])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("signal", ["temporal", "network", "static", "mixed"])
    def test_written_corpus_equals_the_reference(self, tmp_path, signal, seed, horizon):
        config = SynthConfig(n_posts=40, seed=seed, signal=signal, horizon_minutes=horizon)
        records, labels = generate(config)
        expected_records, expected_labels = oracles.reference_generate(config)
        ingest.write_dataset(records, tmp_path / "posts.jsonl")
        ingest.write_dataset(expected_records, tmp_path / "reference.jsonl")
        assert (tmp_path / "posts.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
        assert labels.dtype == expected_labels.dtype
        assert labels.tobytes() == expected_labels.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mock_static_extractor_equals_the_reference(self, seed):
        for i in range(20):
            post_id = f"p{i:06d}"
            digest = hashlib.sha256(f"{seed}:{post_id}".encode()).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            expected = oracles.reference_static_blob(rng, False, False, "video", "cat meets boss")
            blob = mock_static_extractor(post_id, title="cat meets boss", media_type="video", seed=seed)
            assert list(blob.items()) == list(expected.items())
            assert [type(v) for v in blob.values()] == [type(v) for v in expected.values()]


def test_mock_static_extractor_deterministic():
    a = mock_static_extractor("p123", title="hi there")
    b = mock_static_extractor("p123", title="hi there")
    c = mock_static_extractor("p124", title="hi there")
    assert a == b
    assert a != c
    assert set(a) >= {"template_name", "relatability_score", "text_tone"}
