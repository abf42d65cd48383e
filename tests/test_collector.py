import json

import pytest

from viralearly.collector import (
    FileReplaySource,
    HttpPollingSource,
    PermanentSourceError,
    PollResult,
    PollSchedule,
    RateLimitedError,
    SimulatedClock,
    TransientSourceError,
    schedule_next_poll,
    track_post,
)
from viralearly.errors import ConfigError

from conftest import make_record


class ScriptedSource:
    """Returns score = floor(elapsed) based on the shared simulated clock."""

    def __init__(self, clock, removed_at=None, fail_always=False, fail_on_calls=(), rate_limited_on_calls=()):
        self.clock = clock
        self.removed_at = removed_at
        self.fail_always = fail_always
        self.fail_on_calls = set(fail_on_calls)
        self.rate_limited_on_calls = set(rate_limited_on_calls)
        self.calls = 0

    def fetch(self, post_id):
        self.calls += 1
        if self.fail_always or self.calls in self.fail_on_calls:
            raise TransientSourceError("scripted failure")
        if self.calls in self.rate_limited_on_calls:
            raise RateLimitedError("HTTP 429", retry_after_minutes=3.0)
        t = self.clock.now_minutes()
        if self.removed_at is not None and t >= self.removed_at:
            return PollResult(0, 0, 0, removed=True)
        return PollResult(score=int(t), comments=0, crossposts=0, category="new")


class TestSchedule:
    def test_initial_interval_is_five_minutes(self):
        assert schedule_next_poll(10.0, PollSchedule()) == 5.0

    def test_mid_tier_lookup(self):
        assert schedule_next_poll(300.0, PollSchedule()) == 15.0

    def test_last_interval_persists(self):
        assert schedule_next_poll(1e6, PollSchedule()) == 60.0

    def test_tier_boundary_moves_to_next(self):
        assert schedule_next_poll(120.0, PollSchedule()) == 15.0

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigError):
            PollSchedule(tiers=())

    def test_bad_tier_order_rejected(self):
        with pytest.raises(ConfigError):
            PollSchedule(tiers=((120.0, 5.0), (60.0, 15.0)))

    def test_decreasing_intervals_rejected(self):
        with pytest.raises(ConfigError):
            PollSchedule(tiers=((120.0, 15.0), (480.0, 5.0)))


class TestTrackPost:
    def test_happy_path_seven_snapshots(self):
        clock = SimulatedClock()
        result = track_post(ScriptedSource(clock), "p1", until_minutes=30.0, clock=clock)
        assert result.reason == "completed"
        assert list(result.snapshots.t_minutes) == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]

    def test_always_failing_transport(self):
        clock = SimulatedClock()
        result = track_post(ScriptedSource(clock, fail_always=True), "p1", until_minutes=30.0, clock=clock)
        assert len(result.snapshots) == 0
        assert result.reason == "unreachable"

    def test_removed_mid_tracking(self):
        clock = SimulatedClock()
        result = track_post(ScriptedSource(clock, removed_at=12.0), "p1", until_minutes=30.0, clock=clock)
        assert list(result.snapshots.t_minutes) == [0.0, 5.0, 10.0]
        assert result.reason == "removed"

    def test_failed_poll_skipped_not_fabricated(self):
        clock = SimulatedClock()
        # second poll (t=5) fails through all retries; series resumes after
        source = ScriptedSource(clock, fail_on_calls={2, 3, 4, 5})
        result = track_post(source, "p1", until_minutes=30.0, clock=clock)
        assert result.reason == "completed"
        times = list(result.snapshots.t_minutes)
        assert times[0] == 0.0
        assert 5.0 not in times
        assert times == sorted(times)

    def test_snapshots_strictly_increasing(self):
        clock = SimulatedClock()
        result = track_post(ScriptedSource(clock, fail_on_calls={3}), "p1", until_minutes=60.0, clock=clock)
        times = list(result.snapshots.t_minutes)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_permanently_unavailable(self):
        class GoneAfter(ScriptedSource):
            def fetch(self, post_id):
                if self.clock.now_minutes() >= 10.0:
                    raise PermanentSourceError("gone")
                return super().fetch(post_id)

        clock = SimulatedClock()
        result = track_post(GoneAfter(clock), "p1", until_minutes=30.0, clock=clock)
        assert list(result.snapshots.t_minutes) == [0.0, 5.0]
        assert result.reason == "unavailable"

    def test_rate_limit_retry_after_honored(self):
        clock = SimulatedClock()

        class Limited:
            def __init__(self):
                self.calls = 0

            def fetch(self, post_id):
                self.calls += 1
                if self.calls == 1:
                    raise RateLimitedError("429", retry_after_minutes=7.0)
                return PollResult(1, 0, 0)

        result = track_post(Limited(), "p1", until_minutes=0.0, clock=clock)
        # first poll retried after the requested 7 minutes
        assert result.snapshots.t_minutes[0] == 7.0


class TestFileReplaySource:
    def test_replays_recorded_series(self):
        clock = SimulatedClock()
        record = make_record(times=[0, 5, 10, 15], scores=[1, 3, 6, 9])
        source = FileReplaySource([record], clock)
        result = track_post(source, "p1", until_minutes=15.0, clock=clock)
        assert list(result.snapshots.score) == [1, 3, 6, 9]

    def test_out_of_order_times_end_the_scan_at_the_first_later_one(self):
        # the answer is the snapshot before the first one past the elapsed
        # time, not the latest one at or before it
        clock = SimulatedClock()
        source = FileReplaySource([make_record(times=[0, 10, 5, 20], scores=[1, 2, 3, 4])], clock)
        scores = []
        for elapsed in (0.0, 7.0, 12.0, 25.0):
            clock.sleep_minutes(elapsed - clock.now_minutes())
            scores.append(source.fetch("p1").score)
        assert scores == [1, 1, 3, 4]

    def test_unknown_post_is_permanent_error(self):
        source = FileReplaySource([], SimulatedClock())
        with pytest.raises(PermanentSourceError):
            source.fetch("nope")

    def test_from_dataset(self, tmp_path):
        from viralearly import ingest

        path = tmp_path / "d.jsonl"
        ingest.write_dataset([make_record()], path)
        clock = SimulatedClock()
        source = FileReplaySource.from_dataset(path, clock)
        assert source.fetch("p1").score == 0


class FakeResponse:
    def __init__(self, body):
        self.body = body if isinstance(body, bytes) else json.dumps(body).encode()

    def read(self):
        return self.body

    def __enter__(self):
        return self

    def __exit__(self, *args):
        return False


class TestHttpPollingSource:
    def test_parses_payload(self, monkeypatch):
        def fake_urlopen(request, timeout):
            assert request.full_url == "https://api.example/posts/p9"
            assert request.get_header("Authorization") == "Bearer tok"
            return FakeResponse({"score": 12, "comments": 3, "crossposts": 1, "category": "hot"})

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        source = HttpPollingSource("https://api.example/posts", auth_header="Bearer tok")
        result = source.fetch("p9")
        assert (result.score, result.comments, result.category) == (12, 3, "hot")

    def test_retry_after_surfaces_as_rate_limit(self, monkeypatch):
        import urllib.error

        def fake_urlopen(request, timeout):
            raise urllib.error.HTTPError(
                request.full_url, 429, "too many", {"Retry-After": "120"}, None
            )

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        source = HttpPollingSource("https://api.example/posts")
        with pytest.raises(RateLimitedError) as err:
            source.fetch("p1")
        assert err.value.retry_after_minutes == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "offset_seconds,expected_minutes",
        [(90, 1.5), (-3600, 0.0)],
        ids=["future", "past"],
    )
    def test_retry_after_http_date(self, monkeypatch, offset_seconds, expected_minutes):
        import email.utils
        import urllib.error
        from datetime import datetime, timedelta, timezone

        when = datetime.now(timezone.utc) + timedelta(seconds=offset_seconds)
        header = email.utils.format_datetime(when, usegmt=True)

        def fake_urlopen(request, timeout):
            raise urllib.error.HTTPError(request.full_url, 503, "busy", {"Retry-After": header}, None)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(RateLimitedError) as err:
            HttpPollingSource("https://api.example/posts").fetch("p1")
        # the header has whole seconds, and a little time passes before it is read
        assert err.value.retry_after_minutes == pytest.approx(expected_minutes, abs=2.0 / 60.0)

    def test_unreadable_retry_after_falls_back_to_backoff(self, monkeypatch):
        import urllib.error

        def fake_urlopen(request, timeout):
            raise urllib.error.HTTPError(request.full_url, 429, "slow", {"Retry-After": "soon"}, None)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(RateLimitedError) as err:
            HttpPollingSource("https://api.example/posts").fetch("p1")
        assert err.value.retry_after_minutes is None

    @pytest.mark.parametrize(
        "body",
        [
            [1, 2, 3],
            "hot",
            None,
            {"comments": 3, "crossposts": 1},
            {"score": "many", "comments": 3, "crossposts": 1},
            {"score": 12, "comments": None, "crossposts": 1},
            {"score": 12, "comments": 3, "crossposts": True},
            b"{not json",
            b"\xff\xfe\x00",
            {"score": 12, "comments": 3, "crossposts": 1, "upvote_ratio": "high"},
            {"score": 12, "comments": 3, "crossposts": 1, "upvote_ratio": float("nan")},
            {"score": 12, "comments": 3, "crossposts": 1, "upvote_ratio": 1.5},
            {"score": 12, "comments": 3, "crossposts": 1, "upvote_ratio": True},
            {"score": 12.9, "comments": 3, "crossposts": 1},
            {"score": "12", "comments": 3, "crossposts": 1},
            b'{"score": NaN, "comments": 3, "crossposts": 1}',
            {"score": 12, "comments": 3, "crossposts": 1, "removed": "false"},
            {"score": 12, "comments": 3, "crossposts": 1, "category": 4},
        ],
        ids=[
            "list", "string", "null", "missing_score", "text_score", "null_comments", "bool_crossposts", "bad_json",
            "bad_utf8", "text_ratio", "nan_ratio", "ratio_above_1", "bool_ratio", "fraction_score", "numeric_string_score",
            "nan_token_score", "string_removed", "number_category",
        ],
    )
    def test_malformed_body_is_transient(self, monkeypatch, body):
        monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: FakeResponse(body))
        source = HttpPollingSource("https://api.example/posts")
        with pytest.raises(TransientSourceError):
            source.fetch("p1")
        # so tracking retries and skips the poll instead of crashing
        result = track_post(source, "p1", until_minutes=10.0, clock=SimulatedClock())
        assert (result.reason, len(result.snapshots)) == ("unreachable", 0)

    def test_gone_is_permanent(self, monkeypatch):
        import urllib.error

        def fake_urlopen(request, timeout):
            raise urllib.error.HTTPError(request.full_url, 404, "nope", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(PermanentSourceError):
            HttpPollingSource("https://api.example/posts").fetch("p1")

    def test_server_error_is_transient(self, monkeypatch):
        import urllib.error

        def fake_urlopen(request, timeout):
            raise urllib.error.HTTPError(request.full_url, 500, "boom", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(TransientSourceError):
            HttpPollingSource("https://api.example/posts").fetch("p1")


def test_track_result_counts_polls_retries_and_waits():
    clock = SimulatedClock()
    # polls due at 0, 5, ..., 30: the one at 5 is retried once; the one at 15
    # fails on all four attempts (backoff 1 + 2 + 4 minutes, so the poll due
    # at 20 runs at 22); the one at 25 is rate-limited with a 3-minute wait
    source = ScriptedSource(clock, fail_on_calls={2, 5, 6, 7, 8}, rate_limited_on_calls={10})
    result = track_post(source, "p1", until_minutes=30.0, clock=clock)
    assert result.reason == "completed"
    assert list(result.snapshots.t_minutes) == [0.0, 6.0, 10.0, 22.0, 28.0, 30.0]
    assert (result.polls, result.retries, result.skipped_polls) == (7, 5, 1)
    assert result.rate_limit_wait_minutes == 3.0
    assert source.calls == 12


def test_replay_keys_elapsed_time_per_post():
    records = [make_record(post_id=f"p{i}", times=[0, 5, 10], scores=[1, 2, 3]) for i in range(2)]
    shared = SimulatedClock()
    source = FileReplaySource(records, shared)
    # p1 is first fetched when p0 is done, at minute 10 of the shared clock;
    # the replay source measures each post's elapsed time from its own first fetch
    results = [track_post(source, pid, until_minutes=10.0, clock=shared) for pid in ("p0", "p1")]
    assert shared.now_minutes() == 20.0
    assert all(r.reason == "completed" for r in results)
    assert [list(zip(r.snapshots.t_minutes, r.snapshots.score)) for r in results] == [[(0.0, 1), (5.0, 2), (10.0, 3)]] * 2
