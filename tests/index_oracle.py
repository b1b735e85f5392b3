"""Per-point spatial oracles for the batched ``SegmentIndex``.

These are the original scalar implementations: a linear scan over every
segment, and a uniform bucket grid walked one point and one bucket at a
time.  ``SegmentIndex.query`` must agree with :class:`BucketOracle`
bitwise (ids, order and distances), and with :func:`segments_near` on
the set of in-radius segments.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.spatial import Point
from repro.spatial.geometry import point_segment_distance


def segments_near(network, point: Point, radius: float) -> list:
    """All ``(segment, distance)`` pairs within ``radius``, by distance."""
    found = []
    for seg in network.segments:
        d = point_segment_distance(point, seg.start, seg.end)
        if d <= radius:
            found.append((seg, d))
    found.sort(key=lambda pair: pair[1])
    return found


def nearest_segment(network, point: Point) -> tuple:
    """The closest segment to ``point`` and its distance."""
    best = None
    best_d = math.inf
    for seg in network.segments:
        d = point_segment_distance(point, seg.start, seg.end)
        if d < best_d:
            best, best_d = seg, d
    assert best is not None
    return best, best_d


class BucketOracle:
    """The dict-of-buckets index, queried one point at a time."""

    def __init__(self, network, bucket_size: float = 250.0):
        self.network = network
        self.bucket_size = bucket_size
        self._buckets = defaultdict(list)
        for seg in network.segments:
            x0, x1 = sorted((seg.start.x, seg.end.x))
            y0, y1 = sorted((seg.start.y, seg.end.y))
            kx0, ky0 = self._key(x0, y0)
            kx1, ky1 = self._key(x1, y1)
            for kx in range(kx0, kx1 + 1):
                for ky in range(ky0, ky1 + 1):
                    self._buckets[(kx, ky)].append(seg)

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.bucket_size)),
                int(math.floor(y / self.bucket_size)))

    def query(self, point: Point, radius: float) -> list:
        """``(segment, distance)`` pairs, widening until something is found."""
        results = self._query_once(point, radius)
        widened = radius
        max_extent = self._max_extent(point)
        while not results and widened < max_extent:
            widened *= 2.0
            results = self._query_once(point, widened)
        return results

    def _query_once(self, point: Point, radius: float) -> list:
        kx0, ky0 = self._key(point.x - radius, point.y - radius)
        kx1, ky1 = self._key(point.x + radius, point.y + radius)
        seen: set[int] = set()
        found = []
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                for seg in self._buckets.get((kx, ky), ()):
                    if seg.segment_id in seen:
                        continue
                    seen.add(seg.segment_id)
                    d = point_segment_distance(point, seg.start, seg.end)
                    if d <= radius:
                        found.append((seg, d))
        found.sort(key=lambda pair: pair[1])
        return found

    def _max_extent(self, point: Point) -> float:
        min_x, min_y, max_x, max_y = self.network.bounding_box()
        span = max(max_x - min_x, max_y - min_y)
        reach = max(
            math.hypot(point.x - cx, point.y - cy)
            for cx in (min_x, max_x)
            for cy in (min_y, max_y)
        )
        return 2.0 * max(span, reach) + self.bucket_size


def query_rows(index, points, radius: float) -> list:
    """Split a batched ``index.query`` into per-point ``[(id, dist)]`` rows."""
    indptr, ids, dists = index.query(np.asarray(points, dtype=np.float64),
                                     radius)
    return [list(zip(ids[lo:hi].tolist(), dists[lo:hi].tolist()))
            for lo, hi in zip(indptr[:-1], indptr[1:])]


def oracle_query(oracle: BucketOracle, points, radius: float) -> tuple:
    """The bucket oracle's hits as ``(indptr, segment_ids, distances)``."""
    rows = [oracle.query(Point(x, y), radius)
            for x, y in np.asarray(points, dtype=np.float64).tolist()]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    ids = np.array([seg.segment_id for row in rows for seg, _ in row],
                   dtype=np.int64)
    dists = np.array([d for row in rows for _, d in row], dtype=np.float64)
    return indptr, ids, dists


def assert_same_hits(got: tuple, expected: tuple) -> None:
    """CSR hits agree on row layout, ids, order and distance bits."""
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2].view(np.int64), expected[2].view(np.int64))
