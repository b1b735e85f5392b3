"""HMM (Viterbi) map matching.

The paper preprocesses raw GPS with the HMM map matcher of DHN [26]
(the classic Newson-Krumm formulation): emission probabilities penalise
the GPS-to-segment distance, transition probabilities penalise the
difference between the straight-line displacement and the road-network
route distance, and Viterbi decoding picks the jointly most likely
segment sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..spatial.geometry import Point
from ..spatial.index import SegmentIndex
from ..spatial.roadnet import RoadNetwork
from ..data.trajectory import MatchedTrajectory, RawTrajectory

__all__ = ["HMMMapMatcher", "MatchCandidate"]


@dataclass(frozen=True)
class MatchCandidate:
    """One candidate match for a GPS point."""

    segment_id: int
    ratio: float
    distance: float  # GPS point to matched position, metres
    position: Point


class HMMMapMatcher:
    """Newson-Krumm style HMM map matcher over a road network.

    Parameters
    ----------
    network:
        The road network to match onto.
    sigma:
        GPS noise standard deviation in metres (emission model).
    beta:
        Scale of the transition penalty (metres); larger tolerates more
        detour between consecutive points.
    search_radius:
        Candidate search radius around each GPS point, metres.
    max_candidates:
        Keep at most this many nearest candidates per point.
    """

    def __init__(self, network: RoadNetwork, sigma: float = 15.0,
                 beta: float = 40.0, search_radius: float = 60.0,
                 max_candidates: int = 6,
                 index: SegmentIndex | None = None):
        if sigma <= 0 or beta <= 0 or search_radius <= 0:
            raise ValueError("sigma, beta and search_radius must be positive")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.network = network
        self.sigma = sigma
        self.beta = beta
        self.search_radius = search_radius
        self.max_candidates = max_candidates
        self.index = index if index is not None else SegmentIndex(network)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def candidates_for(self, point: Point) -> list[MatchCandidate]:
        """Candidate matched positions for one GPS point."""
        return self._candidate_layers([point])[0]

    def _candidate_layers(self, points: list[Point]
                          ) -> list[list[MatchCandidate]]:
        """Candidates of every point, from one batched index query."""
        indptr, ids, _ = self.index.query([(p.x, p.y) for p in points],
                                          self.search_radius)
        layers = []
        for point, lo, hi in zip(points, indptr[:-1].tolist(), indptr[1:].tolist()):
            layers.append([])
            for segment_id in ids[lo:min(hi, lo + self.max_candidates)].tolist():
                matched, ratio, dist = self.network.segments[segment_id].project(point)
                layers[-1].append(MatchCandidate(segment_id, ratio, dist, matched))
        return layers

    def match(self, raw: RawTrajectory) -> MatchedTrajectory:
        """Match a raw trajectory onto the network via Viterbi decoding."""
        points = [Point(x, y) for x, y in zip(raw.x.tolist(), raw.y.tolist())]
        layers = self._candidate_layers(points)
        empty = [i for i, layer in enumerate(layers) if not layer]
        if empty:
            raise ValueError(f"no match candidates for points {empty}")

        chosen = self._viterbi(points, layers)

        epsilon = self._estimate_epsilon(raw)
        tids = np.floor((raw.t - raw.t[0]) / epsilon + 0.5).astype(np.int64)
        return MatchedTrajectory.from_columns(
            raw.traj_id, raw.driver_id, epsilon,
            [c.segment_id for c in chosen], [c.ratio for c in chosen], raw.t, tids,
        )

    # ------------------------------------------------------------------
    # model internals
    # ------------------------------------------------------------------
    def emission_logprob(self, candidate: MatchCandidate) -> float:
        """Gaussian log-likelihood of the GPS error."""
        return -0.5 * (candidate.distance / self.sigma) ** 2

    def transition_logprob(self, prev: MatchCandidate, curr: MatchCandidate,
                           straight: float) -> float:
        """Exponential penalty on |route distance - straight distance|."""
        route = self.network.route_distance(
            prev.segment_id, prev.ratio, curr.segment_id, curr.ratio
        )
        if math.isinf(route):
            return -1e12
        return -abs(route - straight) / self.beta

    def _viterbi(self, points: list[Point],
                 layers: list[list[MatchCandidate]]) -> list[MatchCandidate]:
        n = len(layers)
        scores = np.array([self.emission_logprob(c) for c in layers[0]])
        back: list[np.ndarray] = []
        for i in range(1, n):
            straight = points[i - 1].distance_to(points[i])
            prev_layer, curr_layer = layers[i - 1], layers[i]
            trans = np.empty((len(prev_layer), len(curr_layer)))
            for a, prev in enumerate(prev_layer):
                for b, curr in enumerate(curr_layer):
                    trans[a, b] = self.transition_logprob(prev, curr, straight)
            emit = np.array([self.emission_logprob(c) for c in curr_layer])
            total = scores[:, None] + trans + emit[None, :]
            back.append(np.argmax(total, axis=0))
            scores = np.max(total, axis=0)

        path = [int(np.argmax(scores))]
        for pointers in reversed(back):
            path.append(int(pointers[path[-1]]))
        path.reverse()
        return [layers[i][k] for i, k in enumerate(path)]

    @staticmethod
    def _estimate_epsilon(raw: RawTrajectory) -> float:
        """Median inter-point interval (the nominal sampling rate)."""
        return float(np.median(np.diff(raw.t)))
