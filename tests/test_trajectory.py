"""The per-record trajectory math kept as the reference (``oracles``), and the
batched kernel's own contract: the window rule, its padded batch and the
inputs it rejects. Its values are checked against the reference in
``test_feature_equivalence``."""

import math

import numpy as np
import pytest

from viralearly import trajectory
from viralearly.errors import DatasetError
from viralearly.ingest import observed_count
from viralearly.labeling import NormalizationCaps

import oracles
from conftest import make_record
from oracles import trapezoid_auc

WIDE = NormalizationCaps({"score": 1e12, "comments": 1e12, "crossposts": 1e12})


def ramp():
    t = np.arange(0.0, 31.0, 5.0)
    return t, t.copy()  # y(t) = t


class TestVelocityAcceleration:
    def test_ramp_velocity_is_one(self):
        t, y = ramp()
        tv, v = oracles.velocity_series(t, y)
        assert np.allclose(v, 1.0)
        assert list(tv) == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]

    def test_single_point_has_no_velocity(self):
        tv, v = oracles.velocity_series(np.array([0.0]), np.array([1.0]))
        assert len(v) == 0

    def test_acceleration_of_quadratic(self):
        t = np.arange(0.0, 21.0, 5.0)
        y = t**2
        ta, a = oracles.acceleration_series(t, y)
        assert np.allclose(a, 2.0)  # second difference of t^2


class TestTakeoff:
    def test_ramp_takes_off_at_first_velocity_point(self):
        t, y = ramp()
        assert oracles.takeoff_point(t, y) == (5.0, 1.0)

    def test_flat_series_never_takes_off(self):
        t = np.array([0.0, 5.0, 10.0])
        assert oracles.takeoff_point(t, np.full(3, 7.0)) is None

    def test_growth_below_level_threshold_not_a_takeoff(self):
        t = np.array([0.0, 5.0, 10.0])
        y = np.array([0.0, 0.2, 0.4])  # never reaches level 1.0
        assert oracles.takeoff_point(t, y) is None


class TestAuc:
    def test_ramp_auc_matches_closed_form(self):
        t, y = ramp()
        assert oracles.curve_auc(t, y, 0.0, 30.0) == pytest.approx(450.0)

    def test_auc_additive_over_split(self):
        t, y = ramp()
        left = oracles.curve_auc(t, y, 0.0, 13.0)
        right = oracles.curve_auc(t, y, 13.0, 30.0)
        assert left + right == pytest.approx(450.0, abs=1e-9)

    def test_constant_extension_matches_quadrature(self):
        t = np.array([3.0, 8.0, 20.0])
        y = np.array([2.0, 6.0, 5.0])
        ours = oracles.curve_auc(t, y, 0.0, 30.0)
        ref = trapezoid_auc(t, y, 0.0, 30.0)
        assert ours == pytest.approx(ref, abs=1e-2)


class TestMomentumHalfLife:
    def test_flat_momentum_is_exactly_one(self):
        t = np.array([0.0, 10.0, 20.0, 30.0])
        assert oracles.momentum_ratio(t, np.full(4, 4.0), 30.0) == 1.0

    def test_flat_zero_momentum_is_one(self):
        t = np.array([0.0, 10.0, 30.0])
        assert oracles.momentum_ratio(t, np.zeros(3), 30.0) == 1.0

    def test_ramp_momentum_is_three(self):
        t, y = ramp()
        assert oracles.momentum_ratio(t, y, 30.0) == pytest.approx(3.0, rel=1e-6)

    def test_ramp_half_life_is_sqrt_of_half_area(self):
        t, y = ramp()
        # cumulative x^2/2 reaches 225 at x = sqrt(450)
        assert oracles.half_life(t, y, 30.0) == pytest.approx(np.sqrt(450.0), abs=1e-9)

    def test_zero_curve_has_no_half_life(self):
        t = np.array([0.0, 10.0])
        assert oracles.half_life(t, np.zeros(2), 30.0) is None

    def test_half_life_in_window(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = np.sort(rng.uniform(0, 30, size=6))
            y = np.cumsum(rng.uniform(0, 2, size=6))
            hl = oracles.half_life(t, y, 30.0)
            assert hl is not None and 0.0 < hl <= 30.0


class TestBurstEntropy:
    def test_constant_velocity_no_bursts(self):
        assert oracles.burst_count(np.ones(10)) == 0

    def test_single_spike_is_one_burst(self):
        v = np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0])
        assert oracles.burst_count(v) == 1

    def test_two_separate_runs(self):
        v = np.array([0.0, 9.0, 9.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0])
        assert oracles.burst_count(v) == 2

    def test_uniform_increments_hit_max_entropy(self):
        # one increment landing in each of the six bins of [0, 30]
        t = np.array([0.0, 2.5, 7.5, 12.5, 17.5, 22.5, 27.5])
        y = np.arange(7.0)
        assert oracles.timing_entropy(t, y, 30.0) == pytest.approx(np.log2(6))

    def test_single_bin_burst_has_zero_entropy(self):
        t = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 5.0, 9.0])
        assert oracles.timing_entropy(t, y, 30.0) == 0.0

    def test_entropy_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            t = np.sort(rng.uniform(0, 30, size=8))
            y = np.cumsum(rng.uniform(0, 3, size=8))
            h = oracles.timing_entropy(t, y, 30.0)
            assert 0.0 <= h <= np.log2(6) + 1e-12


class TestSlope:
    def test_exact_line(self):
        t = np.array([0.0, 1.0, 2.0])
        assert oracles.least_squares_slope(t, 3.0 * t + 1.0) == pytest.approx(3.0)

    def test_insufficient_points(self):
        assert oracles.least_squares_slope(np.array([1.0]), np.array([2.0])) is None


class TestKernel:
    def test_observed_count_is_inclusive_and_ignores_pads(self):
        t = np.array([[0.0, 5.0, 30.0, 35.0], [10.0, np.inf, np.inf, np.inf], [45.0, 50.0, np.inf, np.inf]])
        assert observed_count(t, 30.0).tolist() == [3, 1, 0]

    def test_batch_pads_short_rows(self):
        records = [make_record(post_id="a", times=[0, 5, 10, 15], scores=[0, 1, 2, 3]), make_record(post_id="b", times=[3], scores=[2])]
        batch = trajectory.pad_snapshots(records, WIDE)
        assert batch.length.tolist() == [4, 1]
        assert batch.t[1].tolist() == [3.0, np.inf, np.inf, np.inf]
        assert batch.category_names[:4] == trajectory.RANKED_CATEGORIES

    def test_unobserved_post_has_every_column_missing(self):
        batch = trajectory.pad_snapshots([make_record(times=[45, 50], scores=[1, 2])], WIDE)
        columns = trajectory.window_columns(batch, 30.0)
        for name, values in columns.items():
            assert values[0] is None if values.dtype == object else np.isnan(values[0]), name
        assert trajectory.labeling_columns(batch, 30.0).tolist() == [[0.0, 0.0, 0.0, 0.0, 0.0, 30.0]]

    @pytest.mark.parametrize("times", [[0, 5, 5], [0, 10, 5], [-1, 5, 10]])
    def test_times_out_of_order_are_rejected(self, times):
        with pytest.raises(DatasetError, match="post bad: snapshot times"):
            trajectory.pad_snapshots([make_record(), make_record(post_id="bad", times=times)], WIDE)

    def test_normalized_counts_are_the_scalar_reference_at_and_past_two_to_the_53(self):
        # one batch: a count past 2**53, subscribers past 64 bits, and a post without snapshots
        records = [
            make_record(post_id="a", times=[0, 5], scores=[2**53 + 1, -(2**63)], subscribers=3),
            make_record(post_id="b", times=[0, 5, 9], scores=[1, 7, 2**62], subscribers=2**64 + 7),
            make_record(post_id="c", times=[], scores=[], subscribers=-5),
            make_record(post_id="d", times=[1], scores=[5], subscribers=2**53 + 1),
        ]
        batch = trajectory.pad_snapshots(records, NormalizationCaps({m: math.inf for m in trajectory.VOLUME_METRICS}))
        for row, r in zip(batch.norm["score"], records):
            want = [oracles.normalize_metric(c, r.subreddit.subscribers, math.inf) for c in r.snapshots.score]
            assert row.tolist() == want + [0.0] * (len(row) - len(want))

    def test_post_without_subscribers_is_rejected(self):
        with pytest.raises(DatasetError, match="subscribers must be >= 1"):
            trajectory.pad_snapshots([make_record(subscribers=0)], WIDE)
