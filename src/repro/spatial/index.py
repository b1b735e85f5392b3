"""Batched spatial index: segments within a radius of many points at
once, for the HMM map matcher and the constraint-mask layer."""

from __future__ import annotations

import math

import numpy as np

from .roadnet import RoadNetwork

__all__ = ["SegmentIndex"]

#: Cap on the bytes of each ``(block, S)`` temporary of one query pass.
_BLOCK_BYTES = 1 << 20


class SegmentIndex:
    """Candidate table over the segments of one road network.

    The table holds every segment's start point, direction vector,
    squared length, and bucket-key rectangle: ``floor(c / bucket_size)``
    of its bounding box.  A segment is a candidate for a query square
    iff the two key rectangles overlap, which is exactly the set of
    segments a uniform grid of ``bucket_size`` buckets would visit.

    Parameters
    ----------
    network:
        The road network to index.
    bucket_size:
        Bucket edge length in metres; defaults to 250 m which suits
        city-block-sized segments.
    """

    def __init__(self, network: RoadNetwork, bucket_size: float = 250.0):
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self.network = network
        self.bucket_size = bucket_size
        ends = np.array([(s.start.x, s.start.y, s.end.x, s.end.y)
                         for s in network.segments]).reshape(-1, 4)
        self._ax, self._ay = ends[:, 0].copy(), ends[:, 1].copy()
        self._dx, self._dy = ends[:, 2] - ends[:, 0], ends[:, 3] - ends[:, 1]
        self._length_sq = self._dx * self._dx + self._dy * self._dy
        self._kx0, self._ky0 = self._keys(np.minimum(ends[:, :2], ends[:, 2:])).T
        self._kx1, self._ky1 = self._keys(np.maximum(ends[:, :2], ends[:, 2:])).T
        self._bbox = network.bounding_box()
        # Points per block: a candidate costs at most 32 bytes in any one
        # temporary (a boxed float in the math.hypot lists).
        self._block = max(1, _BLOCK_BYTES // (32 * max(1, len(ends))))

    def _keys(self, xy: np.ndarray) -> np.ndarray:
        return np.floor(xy / self.bucket_size).astype(np.int64)

    def query(self, points, radius: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segments within ``radius`` of each of the ``(N, 2)`` ``points``.

        Returns CSR hits ``(indptr, segment_ids, distances)``: point
        ``i``'s hits are ``segment_ids[indptr[i]:indptr[i + 1]]``.  Each
        row is sorted by distance, then by the first bucket ``(kx, ky)``
        a bucket-grid scan meets the segment in, then by segment id.  A
        point with no hit retries at doubled radii until it finds one or
        the radius covers the whole network.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        parts = [self._query_once(xy, np.arange(len(xy)), radius)]
        pending = np.flatnonzero(np.bincount(parts[0][0], minlength=len(xy)) == 0)
        # A radius that reaches every segment from each pending point; it
        # only ends the loop on a network without segments.
        lo, hi = np.array(self._bbox[:2]), np.array(self._bbox[2:])
        far = np.maximum(abs(xy[pending] - lo), abs(xy[pending] - hi))
        extent = 2.0 * np.maximum((hi - lo).max(), np.hypot(*far.T)) + self.bucket_size
        widened = radius
        while pending.size:
            widened *= 2.0
            parts.append(self._query_once(xy, pending, widened))
            keep = ~np.isin(pending, parts[-1][0]) & (widened < extent)
            pending, extent = pending[keep], extent[keep]
        rows, ids, dists = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(xy)))])
        return indptr, ids[order], dists[order]

    def _query_once(self, xy: np.ndarray, points: np.ndarray, radius: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hits of ``xy[points]`` at one radius as COO ``(row, id, dist)``."""
        parts = []
        # At least one pass, so no points still yield typed empty arrays.
        for lo in range(0, max(points.size, 1), self._block):
            block = points[lo:lo + self._block]
            q_lo = self._keys(xy[block] - radius)
            q_hi = self._keys(xy[block] + radius)
            qi, seg = np.nonzero(
                (self._kx0 <= q_hi[:, :1]) & (self._kx1 >= q_lo[:, :1])
                & (self._ky0 <= q_hi[:, 1:]) & (self._ky1 >= q_lo[:, 1:]))
            px, py = xy[block[qi], 0], xy[block[qi], 1]
            ax, ay, dx, dy, length_sq = (self._ax[seg], self._ay[seg], self._dx[seg],
                                         self._dy[seg], self._length_sq[seg])
            # Same operation order as geometry.project_onto_segment; a
            # degenerate segment projects every point onto its start.
            t = np.divide((px - ax) * dx + (py - ay) * dy, length_sq,
                          out=np.zeros(qi.size), where=length_sq > 0.0)
            t = np.minimum(1.0, np.maximum(0.0, t))
            ex, ey = px - (ax + t * dx), py - (ay + t * dy)
            # Only candidates that may lie inside the radius pay for
            # math.hypot; the margin covers the rounding of ex² + ey².
            maybe = ex * ex + ey * ey <= radius * radius * (1.0 + 1e-6)
            qi, seg = qi[maybe], seg[maybe]
            dist = np.fromiter(
                map(math.hypot, ex[maybe].tolist(), ey[maybe].tolist()),
                dtype=np.float64, count=qi.size)
            hit = dist <= radius
            qi, seg, dist = qi[hit], seg[hit], dist[hit]
            order = np.lexsort((seg, np.maximum(self._ky0[seg], q_lo[qi, 1]),
                                np.maximum(self._kx0[seg], q_lo[qi, 0]),
                                dist, qi))
            parts.append((block[qi[order]], seg[order], dist[order]))
        return tuple(np.concatenate(p) for p in zip(*parts))
