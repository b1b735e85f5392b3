"""Tests for the batched segment index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import Point, RoadNetwork, RoadSegment, SegmentIndex, grid_city

from index_oracle import (BucketOracle, assert_same_hits, oracle_query, query_rows,
                          segments_near)


@pytest.fixture(scope="module")
def world():
    network = grid_city(nx=6, ny=6, spacing=200.0, rng=np.random.default_rng(8))
    return network, SegmentIndex(network, bucket_size=150.0)


class TestQueries:
    def test_matches_linear_scan(self, world):
        network, index = world
        rng = np.random.default_rng(1)
        min_x, min_y, max_x, max_y = network.bounding_box()
        points = np.stack([rng.uniform(min_x, max_x, 25),
                           rng.uniform(min_y, max_y, 25)], axis=1)
        for (x, y), row in zip(points, query_rows(index, points, 120.0)):
            expected = {s.segment_id for s, _ in segments_near(network, Point(x, y), 120.0)}
            if expected:  # index may widen when nothing matches
                assert {i for i, _ in row} == expected

    def test_sorted_by_distance(self, world):
        _, index = world
        [row] = query_rows(index, [(300.0, 300.0)], 400.0)
        distances = [d for _, d in row]
        assert distances == sorted(distances)

    def test_widens_until_found(self, world):
        _, index = world
        # A point far outside the network still returns candidates.
        [row] = query_rows(index, [(-5000.0, -5000.0)], 50.0)
        assert row

    def test_csr_layout(self, world):
        _, index = world
        indptr, ids, dists = index.query(np.array([[300.0, 300.0], [0.0, 0.0]]),
                                         100.0)
        assert indptr.shape == (3,) and indptr[0] == 0
        assert indptr[-1] == ids.size == dists.size
        empty = index.query(np.empty((0, 2)), 100.0)
        assert [a.size for a in empty] == [1, 0, 0]

    def test_network_without_segments(self):
        network = RoadNetwork({0: Point(0.0, 0.0), 1: Point(500.0, 80.0)}, [])
        indptr, ids, dists = SegmentIndex(network).query(
            [(10.0, 10.0), (-900.0, 4000.0)], 30.0)
        assert indptr.tolist() == [0, 0, 0] and ids.size == dists.size == 0

    def test_invalid_radius(self, world):
        _, index = world
        with pytest.raises(ValueError):
            index.query(np.zeros((1, 2)), 0.0)

    def test_invalid_bucket_size(self, world):
        network, _ = world
        with pytest.raises(ValueError):
            SegmentIndex(network, bucket_size=-1.0)


class TestBucketOracle:
    """The batched query is bitwise the per-point bucket-grid loop."""

    @pytest.fixture(scope="class")
    def city(self):
        # The perfbench road network.
        network = grid_city(nx=8, ny=8, spacing=250.0,
                            rng=np.random.default_rng(11))
        return network, SegmentIndex(network), BucketOracle(network)

    @pytest.mark.parametrize("radius", [60.0, 400.0, 500.0])
    def test_every_key_centre(self, city, radius):
        network, index, oracle = city
        min_x, min_y, max_x, max_y = network.bounding_box()
        kx = np.arange((min_x - 600.0) // 25.0, (max_x + 600.0) // 25.0 + 1)
        ky = np.arange((min_y - 600.0) // 25.0, (max_y + 600.0) // 25.0 + 1)
        gx, gy = np.meshgrid(kx, ky, indexing="ij")
        centres = (np.stack([gx.ravel(), gy.ravel()], axis=1) + 0.5) * 25.0
        assert_same_hits(index.query(centres, radius),
                         oracle_query(oracle, centres, radius))

    def test_far_points_widen(self, city):
        _, index, oracle = city
        far = [(-5000.0, -5000.0), (6000.0, 900.0), (900.0, -2500.0),
               (-3000.0, 4000.0)]
        got = index.query(far, 50.0)
        assert np.all(np.diff(got[0]) > 0)
        assert_same_hits(got, oracle_query(oracle, far, 50.0))

    def test_mixed_batch_keeps_point_order(self, city):
        _, index, oracle = city
        points = [(500.0, 500.0), (-4000.0, 100.0), (20.0, 1300.0),
                  (3000.0, 3000.0), (875.0, 125.0)]
        assert_same_hits(index.query(points, 60.0),
                         oracle_query(oracle, points, 60.0))

    def test_zero_length_segment(self):
        nodes = {0: Point(0.0, 0.0), 1: Point(120.0, 0.0),
                 2: Point(120.0, 0.0), 3: Point(120.0, 90.0)}
        segs = [RoadSegment(0, 0, 1, nodes[0], nodes[1]),
                RoadSegment(1, 1, 2, nodes[1], nodes[2]),  # zero length
                RoadSegment(2, 2, 3, nodes[2], nodes[3]),
                RoadSegment(3, 3, 0, nodes[3], nodes[0])]
        network = RoadNetwork(nodes, segs)
        index, oracle = SegmentIndex(network, 50.0), BucketOracle(network, 50.0)
        points = [(120.0, 0.0), (130.0, -7.5), (60.0, 40.0), (-300.0, 20.0)]
        for radius in (5.0, 30.0, 200.0):
            assert_same_hits(index.query(points, radius),
                             oracle_query(oracle, points, radius))
        [row] = query_rows(index, [(130.0, -7.5)], 30.0)
        assert 1 in {i for i, _ in row}

    def test_intersection_ties(self):
        # Four arms meet on a bucket corner, so each arm is first met in
        # a different bucket and the tie order is not the id order.
        centre = Point(250.0, 250.0)
        nodes = {0: centre, 1: Point(400.0, 250.0), 2: Point(250.0, 400.0),
                 3: Point(250.0, 100.0), 4: Point(100.0, 250.0)}
        segs = [RoadSegment(i, 0, i + 1, centre, nodes[i + 1]) for i in range(4)]
        network = RoadNetwork(nodes, segs)
        index, oracle = SegmentIndex(network), BucketOracle(network)
        [row] = query_rows(index, [(centre.x, centre.y)], 60.0)
        assert [i for i, _ in row] == [3, 2, 0, 1]
        assert [d for _, d in row] == [0.0] * 4
        assert_same_hits(index.query([(centre.x, centre.y)], 60.0),
                         oracle_query(oracle, [(centre.x, centre.y)], 60.0))

    def test_grid_intersection_ties(self, city):
        network, index, oracle = city
        nodes = [(p.x, p.y) for p in network.nodes.values()]
        assert all(len(row) >= 2 and row[0][1] == 0.0
                   for row in query_rows(index, nodes, 60.0))
        assert_same_hits(index.query(nodes, 60.0),
                         oracle_query(oracle, nodes, 60.0))


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-100, 1100, allow_nan=False),
    y=st.floats(-100, 1100, allow_nan=False),
    radius=st.floats(10, 500, allow_nan=False),
)
def test_property_index_results_within_radius_match_scan(x, y, radius):
    """Every hit reported inside the requested radius is correct, and no
    in-radius segment is missed (when any exist)."""
    network = grid_city(nx=5, ny=5, spacing=250.0, rng=np.random.default_rng(2))
    index = SegmentIndex(network, bucket_size=200.0)
    p = Point(x, y)
    expected = {s.segment_id for s, _ in segments_near(network, p, radius)}
    [got_all] = query_rows(index, [(x, y)], radius)
    got_within = {i for i, d in got_all if d <= radius}
    assert got_within == expected
