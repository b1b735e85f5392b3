"""Tests for the road network graph and route distances."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from repro.spatial import Point, RoadNetwork, RoadSegment, grid_city

from index_oracle import nearest_segment, segments_near


def line_network():
    """Three nodes in a line, bidirectional: 0 -(100m)- 1 -(100m)- 2."""
    nodes = {0: Point(0, 0), 1: Point(100, 0), 2: Point(200, 0)}
    segs = []
    for u, v in ((0, 1), (1, 0), (1, 2), (2, 1)):
        segs.append(RoadSegment(len(segs), u, v, nodes[u], nodes[v]))
    return RoadNetwork(nodes, segs)


class TestConstruction:
    def test_segment_ids_must_be_contiguous(self):
        nodes = {0: Point(0, 0), 1: Point(1, 0)}
        seg = RoadSegment(5, 0, 1, nodes[0], nodes[1])
        with pytest.raises(ValueError):
            RoadNetwork(nodes, [seg])

    def test_unknown_node_raises(self):
        nodes = {0: Point(0, 0)}
        seg = RoadSegment(0, 0, 9, nodes[0], Point(1, 1))
        with pytest.raises(KeyError):
            RoadNetwork(nodes, [seg])

    def test_empty_nodes(self):
        with pytest.raises(ValueError):
            RoadNetwork({}, [])


class TestSegments:
    def test_length_and_position(self):
        net = line_network()
        seg = net.segment(0)
        assert seg.length == 100.0
        assert seg.position_at(0.25) == Point(25.0, 0.0)
        assert seg.position_at(-1.0) == Point(0.0, 0.0)  # clamped
        assert seg.position_at(2.0) == Point(100.0, 0.0)

    def test_project(self):
        net = line_network()
        matched, ratio, dist = net.segment(0).project(Point(30, 40))
        assert matched == Point(30, 0)
        assert ratio == pytest.approx(0.3)
        assert dist == pytest.approx(40.0)

    def test_successors(self):
        net = line_network()
        successor_ids = {s.segment_id for s in net.successors(0)}
        assert successor_ids == {1, 2}  # reverse 1->0 and forward 1->2


class TestDistances:
    def test_node_distance_line(self):
        net = line_network()
        assert net.node_distance(0, 2) == pytest.approx(200.0)
        assert net.node_distance(2, 0) == pytest.approx(200.0)
        assert net.node_distance(1, 1) == 0.0

    def test_route_distance_same_segment_forward(self):
        net = line_network()
        assert net.route_distance(0, 0.2, 0, 0.7) == pytest.approx(50.0)

    def test_route_distance_same_segment_backward_goes_around(self):
        net = line_network()
        # Going "backwards" on a directed segment requires the reverse edge:
        # finish segment 0 (80 m) then travel 20 m along reverse segment 1
        # ... but reverse starts at node 1; 0.8 along seg1 means 80m from node1.
        d = net.route_distance(0, 0.7, 0, 0.2)
        assert d == pytest.approx((1 - 0.7) * 100 + 100 + 0.2 * 100)

    def test_route_distance_across_segments(self):
        net = line_network()
        # From middle of 0->1 to middle of 1->2: 50 + 0 + 50.
        assert net.route_distance(0, 0.5, 2, 0.5) == pytest.approx(100.0)

    def test_symmetric_route_distance_takes_min(self):
        net = line_network()
        forward = net.route_distance(0, 0.7, 0, 0.2)
        backward = net.route_distance(0, 0.2, 0, 0.7)
        assert net.symmetric_route_distance(0, 0.7, 0, 0.2) == pytest.approx(
            min(forward, backward)
        )

    def test_unreachable_is_inf(self):
        nodes = {0: Point(0, 0), 1: Point(100, 0), 2: Point(200, 0), 3: Point(300, 0)}
        segs = [RoadSegment(0, 0, 1, nodes[0], nodes[1]),
                RoadSegment(1, 2, 3, nodes[2], nodes[3])]
        net = RoadNetwork(nodes, segs)
        assert math.isinf(net.node_distance(0, 2))

    def test_dijkstra_matches_networkx(self, tiny_network):
        graph = nx.DiGraph()
        for seg in tiny_network.segments:
            graph.add_edge(seg.start_node, seg.end_node, weight=seg.length)
        rng = np.random.default_rng(4)
        nodes = sorted(tiny_network.nodes)
        for _ in range(20):
            a, b = rng.choice(nodes, size=2, replace=False)
            expected = nx.shortest_path_length(graph, int(a), int(b), weight="weight")
            assert tiny_network.node_distance(int(a), int(b)) == pytest.approx(expected)

    def test_cache_cleared(self, tiny_network):
        tiny_network.node_distance(0, 1)
        assert tiny_network._sssp_cache
        tiny_network.clear_cache()
        assert not tiny_network._sssp_cache


class TestQueriesAndConnectivity:
    def test_nearest_segment(self):
        net = line_network()
        seg, dist = nearest_segment(net, Point(150, 30))
        assert seg.segment_id in (2, 3)
        assert dist == pytest.approx(30.0)

    def test_segments_near_radius(self):
        net = line_network()
        found = segments_near(net, Point(50, 10), radius=15.0)
        assert {s.segment_id for s, _ in found} == {0, 1}
        assert found[0][1] <= found[-1][1]  # sorted by distance

    def test_grid_city_strongly_connected(self):
        net = grid_city(nx=6, ny=6, rng=np.random.default_rng(0))
        assert net.is_strongly_connected()

    def test_line_network_strongly_connected(self):
        assert line_network().is_strongly_connected()

    def test_one_way_pair_not_strongly_connected(self):
        nodes = {0: Point(0, 0), 1: Point(1, 0)}
        segs = [RoadSegment(0, 0, 1, nodes[0], nodes[1])]
        assert not RoadNetwork(nodes, segs).is_strongly_connected()

    def test_bounding_box(self):
        min_x, min_y, max_x, max_y = line_network().bounding_box()
        assert (min_x, min_y, max_x, max_y) == (0.0, 0.0, 200.0, 0.0)
