"""Tests for trajectory data types and their validation."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.data import (
    IncompleteTrajectory,
    MatchedPoint,
    MatchedTrajectory,
    RawPoint,
    RawTrajectory,
)


def make_matched(n=8, epsilon=15.0):
    points = tuple(MatchedPoint(segment_id=i % 3, ratio=0.5, t=i * epsilon, tid=i)
                   for i in range(n))
    return MatchedTrajectory(traj_id=1, driver_id=2, epsilon=epsilon, points=points)


class TestRawTrajectory:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            RawTrajectory(0, 0, (RawPoint(0, 0, 0.0),))

    def test_rejects_non_increasing_time(self):
        pts = (RawPoint(0, 0, 0.0), RawPoint(1, 1, 0.0))
        with pytest.raises(ValueError):
            RawTrajectory(0, 0, pts)

    def test_len(self):
        pts = (RawPoint(0, 0, 0.0), RawPoint(1, 1, 1.0), RawPoint(2, 2, 2.0))
        assert len(RawTrajectory(0, 0, pts)) == 3


class TestMatchedTrajectory:
    def test_accessors(self):
        traj = make_matched(5)
        assert traj.segment_ids.tolist() == [0, 1, 2, 0, 1]
        assert traj.ratios.tolist() == [0.5] * 5
        assert len(traj) == 5

    def test_positive_epsilon_required(self):
        points = make_matched(3).points
        with pytest.raises(ValueError):
            MatchedTrajectory(0, 0, epsilon=0.0, points=points)

    def test_positions_on_network(self, tiny_world):
        traj = tiny_world.matched[0]
        positions = traj.positions(tiny_world.network)
        assert len(positions) == len(traj)


def make_raw_columns(n=4):
    return np.arange(n, dtype=float), np.arange(n, dtype=float) * 2.0, np.arange(n) + 0.5


class TestColumnStorage:
    """Both construction routes fill the same read-only columns and run
    the same validation."""

    def test_points_route_fills_columns(self):
        traj = make_matched(4)
        assert traj.segment_ids.dtype == np.int64
        assert traj.ratios.dtype == np.float64
        assert traj.times.dtype == np.float64
        assert traj.tids.dtype == np.int64
        assert traj.times.tolist() == [0.0, 15.0, 30.0, 45.0]
        assert traj.tids.tolist() == [0, 1, 2, 3]

    def test_column_route_equals_points_route(self):
        traj = make_matched(6)
        built = MatchedTrajectory.from_columns(1, 2, 15.0, traj.segment_ids, traj.ratios,
                                               traj.times, traj.tids)
        assert built == traj
        assert built.points == traj.points
        assert repr(built) == repr(traj)
        raw = RawTrajectory(3, 4, tuple(RawPoint(x, y, t) for x, y, t in
                                        zip(*(c.tolist() for c in make_raw_columns()))))
        assert RawTrajectory.from_columns(3, 4, *make_raw_columns()) == raw

    def test_points_are_built_once(self):
        traj = MatchedTrajectory.from_columns(0, 0, 1.0, [3, 4], [0.25, 0.5], [0.0, 1.0],
                                              [0, 1])
        points = traj.points
        assert points == (MatchedPoint(3, 0.25, 0.0, 0), MatchedPoint(4, 0.5, 1.0, 1))
        assert type(points[0].segment_id) is int and type(points[0].ratio) is float
        assert traj.points is points

    @pytest.mark.parametrize("traj", [make_matched(3), RawTrajectory.from_columns(
        0, 0, *make_raw_columns())], ids=["matched", "raw"])
    def test_columns_are_read_only(self, traj):
        for name, _ in traj._columns:
            with pytest.raises(ValueError):
                getattr(traj, name)[0] = 7
        with pytest.raises(AttributeError):
            traj.traj_id = 9

    def test_column_route_copies_its_input(self):
        x, y, t = make_raw_columns()
        raw = RawTrajectory.from_columns(0, 0, x, y, t)
        x[0] = 99.0
        assert raw.x[0] == 0.0
        assert x.flags.writeable

    def test_pickle_and_copy_keep_read_only_columns(self):
        traj = make_matched(5)
        for clone in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj)):
            assert clone == traj
            assert not clone.ratios.flags.writeable

    def test_raw_needs_two_points_on_column_route(self):
        with pytest.raises(ValueError):
            RawTrajectory.from_columns(0, 0, [0.0], [0.0], [0.0])

    def test_raw_rejects_non_increasing_time_on_column_route(self):
        with pytest.raises(ValueError):
            RawTrajectory.from_columns(0, 0, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 2.0, 2.0])

    def test_matched_needs_two_points_on_both_routes(self):
        with pytest.raises(ValueError):
            MatchedTrajectory(0, 0, 15.0, make_matched(2).points[:1])
        with pytest.raises(ValueError):
            MatchedTrajectory.from_columns(0, 0, 15.0, [1], [0.5], [0.0], [0])

    def test_matched_needs_positive_epsilon_on_column_route(self):
        with pytest.raises(ValueError):
            MatchedTrajectory.from_columns(0, 0, -1.0, [1, 2], [0.5, 0.5], [0.0, 1.0], [0, 1])

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError):
            MatchedTrajectory.from_columns(0, 0, 1.0, [1, 2, 3], [0.5, 0.5], [0.0, 1.0], [0, 1])
        with pytest.raises(ValueError):
            RawTrajectory.from_columns(0, 0, [0.0, 1.0], [0.0], [0.0, 1.0])

    def test_integer_columns_reject_floats(self):
        with pytest.raises(TypeError):
            MatchedTrajectory.from_columns(0, 0, 1.0, [1.5, 2.0], [0.5, 0.5], [0.0, 1.0], [0, 1])

    def test_columns_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            RawTrajectory.from_columns(0, 0, [[0.0, 1.0]], [[0.0, 1.0]], [[0.0, 1.0]])


class TestIncompleteTrajectory:
    def test_valid_construction(self):
        traj = make_matched(9)
        inc = IncompleteTrajectory(traj, observed_indices=(0, 4, 8))
        assert inc.full_length == 9
        assert inc.missing_indices == [1, 2, 3, 5, 6, 7]
        assert len(inc.observed_points) == 3

    def test_observed_flags(self):
        traj = make_matched(5)
        inc = IncompleteTrajectory(traj, observed_indices=(0, 2, 4))
        assert inc.observed_flags() == [True, False, True, False, True]

    def test_endpoints_must_be_observed(self):
        traj = make_matched(6)
        with pytest.raises(ValueError):
            IncompleteTrajectory(traj, observed_indices=(1, 5))
        with pytest.raises(ValueError):
            IncompleteTrajectory(traj, observed_indices=(0, 3))

    def test_indices_strictly_increasing(self):
        traj = make_matched(6)
        with pytest.raises(ValueError):
            IncompleteTrajectory(traj, observed_indices=(0, 3, 3, 5))

    def test_needs_two_observations(self):
        traj = make_matched(4)
        with pytest.raises(ValueError):
            IncompleteTrajectory(traj, observed_indices=(0,))
