"""Tests for keep-ratio downsampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    KEEP_RATIOS,
    MatchedPoint,
    MatchedTrajectory,
    downsample,
    downsample_random,
    stride_for_keep_ratio,
)


def make_traj(n):
    points = tuple(MatchedPoint(0, 0.1, t=float(i), tid=i) for i in range(n))
    return MatchedTrajectory(0, 0, epsilon=1.0, points=points)


class TestStride:
    def test_paper_keep_ratios(self):
        assert stride_for_keep_ratio(0.0625) == 16
        assert stride_for_keep_ratio(0.125) == 8
        assert stride_for_keep_ratio(0.25) == 4
        assert stride_for_keep_ratio(1.0) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            stride_for_keep_ratio(0.0)
        with pytest.raises(ValueError):
            stride_for_keep_ratio(1.5)

    def test_keep_ratios_constant(self):
        assert KEEP_RATIOS == (0.0625, 0.125, 0.25)


class TestDeterministic:
    def test_stride_indices(self):
        inc = downsample(make_traj(17), keep_ratio=0.25)
        assert inc.observed_indices == (0, 4, 8, 12, 16)

    def test_last_point_always_kept(self):
        inc = downsample(make_traj(18), keep_ratio=0.25)
        assert inc.observed_indices[-1] == 17

    def test_keep_all(self):
        inc = downsample(make_traj(5), keep_ratio=1.0)
        assert inc.observed_indices == (0, 1, 2, 3, 4)
        assert inc.missing_indices == []

    def test_six_points_restored_at_12_5_percent(self):
        """Paper: ~six-seven missing points between observations at 12.5%."""
        inc = downsample(make_traj(33), keep_ratio=0.125)
        gaps = np.diff(inc.observed_indices)
        assert set(gaps.tolist()) == {8}  # 7 missing between each pair


class TestRandom:
    def test_endpoints_always_kept(self, fresh_rng):
        inc = downsample_random(make_traj(20), 0.1, fresh_rng)
        assert inc.observed_indices[0] == 0
        assert inc.observed_indices[-1] == 19

    def test_keep_ratio_statistics(self):
        rng = np.random.default_rng(0)
        total_interior = 0
        kept = 0
        for _ in range(50):
            inc = downsample_random(make_traj(102), 0.3, rng)
            total_interior += 100
            kept += len(inc.observed_indices) - 2
        assert abs(kept / total_interior - 0.3) < 0.05

    def test_keeps_an_interior_point_when_possible(self):
        """At n = 40 and keep 0.02 most draws drop every interior point;
        one interior index is then drawn instead."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            idx = downsample_random(make_traj(40), 0.02, rng).observed_indices
            assert idx[0] == 0 and idx[-1] == 39
            assert len(idx) >= 3
            assert all(0 < i < 39 for i in idx[1:-1])

    def test_extra_draw_only_when_nothing_survives(self):
        """With an interior survivor the stream is the per-point draws
        alone; a two-point trajectory draws nothing extra."""
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        downsample_random(make_traj(12), 1.0, a)
        for _ in range(10):
            b.random()
        assert a.bit_generator.state == b.bit_generator.state
        c = np.random.default_rng(4)
        state = c.bit_generator.state
        assert downsample_random(make_traj(2), 0.5, c).observed_indices == (0, 1)
        assert c.bit_generator.state == state

    def test_invalid_ratio(self, fresh_rng):
        with pytest.raises(ValueError):
            downsample_random(make_traj(5), 0.0, fresh_rng)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 60), ratio=st.sampled_from(KEEP_RATIOS))
def test_property_downsample_invariants(n, ratio):
    """Strided downsampling keeps endpoints, stays sorted, and keeps
    roughly keep_ratio of the points."""
    inc = downsample(make_traj(n), ratio)
    idx = inc.observed_indices
    assert idx[0] == 0 and idx[-1] == n - 1
    assert list(idx) == sorted(set(idx))
    assert len(idx) <= max(2, int(np.ceil(n * ratio)) + 1)
