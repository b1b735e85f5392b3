"""Directed road networks (paper Definition 1) and network distances.

A :class:`RoadNetwork` holds intersection nodes and directed
:class:`RoadSegment` edges.  It provides the two operations everything
else is built on:

* ``position_at(segment, ratio)`` - the planar point of a map-matched
  point ``(e, r)`` (Definition 5's moving ratio); ``positions_at`` is
  its array form over per-segment start and delta arrays built once
  per network.
* ``route_distance(...)`` / ``node_distance(...)`` - shortest-path
  distance along the directed network, the ``rndis`` used by the MAE /
  RMSE metrics (paper Eq. 20).  Single-source Dijkstra results are
  cached per source node, making repeated metric evaluation cheap.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, project_onto_segment

__all__ = ["RoadSegment", "RoadNetwork"]


@dataclass(frozen=True)
class RoadSegment:
    """A directed road segment ``e`` from ``start_node`` to ``end_node``."""

    segment_id: int
    start_node: int
    end_node: int
    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Segment length ``dis(e.N1, e.N2)`` in metres."""
        return self.start.distance_to(self.end)

    def position_at(self, ratio: float) -> Point:
        """Point at moving ratio ``r`` along the segment (clamped to [0, 1])."""
        r = min(1.0, max(0.0, ratio))
        return Point(
            self.start.x + r * (self.end.x - self.start.x),
            self.start.y + r * (self.end.y - self.start.y),
        )

    def project(self, point: Point) -> tuple[Point, float, float]:
        """Project ``point`` onto the segment.

        Returns ``(matched_point, moving_ratio, distance)``.
        """
        projection, ratio = project_onto_segment(point, self.start, self.end)
        return projection, ratio, point.distance_to(projection)


class RoadNetwork:
    """A directed road graph with segment geometry.

    Parameters
    ----------
    nodes:
        Mapping of node id to planar :class:`Point`.
    segments:
        Directed segments; ``segment_id`` values must be exactly
        ``0..len(segments)-1`` (they double as classifier labels).
    """

    def __init__(self, nodes: dict[int, Point], segments: list[RoadSegment]):
        if not nodes:
            raise ValueError("road network needs at least one node")
        expected_ids = list(range(len(segments)))
        if [s.segment_id for s in segments] != expected_ids:
            raise ValueError("segment ids must be contiguous 0..n-1 in order")
        self.nodes = dict(nodes)
        self.segments = list(segments)
        self._out_edges: dict[int, list[RoadSegment]] = {n: [] for n in self.nodes}
        self._in_edges: dict[int, list[RoadSegment]] = {n: [] for n in self.nodes}
        for seg in segments:
            if seg.start_node not in self.nodes or seg.end_node not in self.nodes:
                raise KeyError(f"segment {seg.segment_id} references unknown node")
            self._out_edges[seg.start_node].append(seg)
            self._in_edges[seg.end_node].append(seg)
        self._sssp_cache: dict[int, dict[int, float]] = {}
        self._geometry: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        """Number of directed segments (the segment vocabulary size)."""
        return len(self.segments)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def segment(self, segment_id: int) -> RoadSegment:
        """Return the segment with the given id."""
        return self.segments[segment_id]

    def out_segments(self, node_id: int) -> list[RoadSegment]:
        """Directed segments leaving ``node_id``."""
        return self._out_edges[node_id]

    def in_segments(self, node_id: int) -> list[RoadSegment]:
        """Directed segments entering ``node_id``."""
        return self._in_edges[node_id]

    def successors(self, segment_id: int) -> list[RoadSegment]:
        """Segments that can directly follow ``segment_id`` on a route."""
        return self._out_edges[self.segments[segment_id].end_node]

    def position_at(self, segment_id: int, ratio: float) -> Point:
        """Planar point of the map-matched point ``(e, r)``."""
        return self.segments[segment_id].position_at(ratio)

    def positions_at(self, segment_ids, ratios) -> np.ndarray:
        """Planar points of many map-matched points, as an ``(N, 2)`` array.

        Row ``i`` is bitwise ``position_at(segment_ids[i], ratios[i])``:
        the same clamp and the same ``start + r * (end - start)``
        arithmetic, in float64.
        """
        starts, deltas = self._segment_geometry()
        ids = np.asarray(segment_ids, dtype=np.int64)
        r = np.asarray(ratios, dtype=np.float64)
        r = np.where(r > 0.0, r, 0.0)  # max(0.0, r), NaN -> 0.0 included
        r = np.where(r < 1.0, r, 1.0)  # min(1.0, r)
        return starts[ids] + r[:, None] * deltas[ids]

    def _segment_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(S, 2)`` segment starts and ``end - start`` deltas."""
        if self._geometry is None:
            starts = np.array([(s.start.x, s.start.y) for s in self.segments],
                              dtype=np.float64).reshape(-1, 2)
            ends = np.array([(s.end.x, s.end.y) for s in self.segments],
                            dtype=np.float64).reshape(-1, 2)
            deltas = ends - starts
            starts.flags.writeable = deltas.flags.writeable = False
            self._geometry = (starts, deltas)
        return self._geometry

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all nodes."""
        xs = [p.x for p in self.nodes.values()]
        ys = [p.y for p in self.nodes.values()]
        return min(xs), min(ys), max(xs), max(ys)

    # ------------------------------------------------------------------
    # shortest paths
    # ------------------------------------------------------------------
    def node_distance(self, source: int, target: int) -> float:
        """Directed shortest-path distance between nodes (inf if unreachable)."""
        if source == target:
            return 0.0
        distances = self._sssp_cache.get(source)
        if distances is None:
            distances = self._dijkstra(source)
            self._sssp_cache[source] = distances
        return distances.get(target, math.inf)

    def _dijkstra(self, source: int) -> dict[int, float]:
        distances = {source: 0.0}
        heap: list[tuple[float, int]] = [(0.0, source)]
        settled: set[int] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for seg in self._out_edges[node]:
                nd = d + seg.length
                if nd < distances.get(seg.end_node, math.inf):
                    distances[seg.end_node] = nd
                    heapq.heappush(heap, (nd, seg.end_node))
        return distances

    def route_distance(self, from_segment: int, from_ratio: float,
                       to_segment: int, to_ratio: float) -> float:
        """Directed travel distance between two map-matched points.

        This is the paper's ``rndis(g, g')``: distance travelled along
        the directed road network from point ``(e1, r1)`` to ``(e2, r2)``.
        """
        seg_a = self.segments[from_segment]
        seg_b = self.segments[to_segment]
        r1 = min(1.0, max(0.0, from_ratio))
        r2 = min(1.0, max(0.0, to_ratio))
        if from_segment == to_segment and r2 >= r1:
            return (r2 - r1) * seg_a.length
        # Leave segment A at its end node, route to B's start node, then
        # travel r2 along B.  Also consider simply continuing on A when B
        # follows A around a loop; Dijkstra covers that via node distance.
        head = (1.0 - r1) * seg_a.length
        tail = r2 * seg_b.length
        middle = self.node_distance(seg_a.end_node, seg_b.start_node)
        return head + middle + tail

    def symmetric_route_distance(self, seg_a: int, ratio_a: float,
                                 seg_b: int, ratio_b: float) -> float:
        """Paper Eq. 20: ``min(rndis(g, g'), rndis(g', g))``."""
        forward = self.route_distance(seg_a, ratio_a, seg_b, ratio_b)
        backward = self.route_distance(seg_b, ratio_b, seg_a, ratio_a)
        return min(forward, backward)

    def is_strongly_connected(self) -> bool:
        """Whether every node can reach every other node (sampled check
        is exact: one forward and one reverse Dijkstra from node 0)."""
        start = next(iter(self.nodes))
        forward = self._dijkstra(start)
        if len(forward) != len(self.nodes):
            return False
        reverse = self._reverse_dijkstra(start)
        return len(reverse) == len(self.nodes)

    def _reverse_dijkstra(self, source: int) -> dict[int, float]:
        distances = {source: 0.0}
        heap: list[tuple[float, int]] = [(0.0, source)]
        settled: set[int] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for seg in self._in_edges[node]:
                nd = d + seg.length
                if nd < distances.get(seg.start_node, math.inf):
                    distances[seg.start_node] = nd
                    heapq.heappush(heap, (nd, seg.start_node))
        return distances

    def clear_cache(self) -> None:
        """Drop cached shortest-path results and segment geometry (e.g.
        after mutation in tests)."""
        self._sssp_cache.clear()
        self._geometry = None
