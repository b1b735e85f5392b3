"""Tests for the HMM (Viterbi) map matcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import RawPoint, RawTrajectory
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.mapmatch import HMMMapMatcher
from repro.spatial import Point, SegmentIndex

from index_oracle import BucketOracle, nearest_segment, oracle_query


@pytest.fixture(scope="module")
def noisy_world():
    config = SyntheticConfig(num_drivers=4, trajectories_per_driver=3,
                             points_per_trajectory=13, gps_noise_std=10.0)
    return generate_dataset(config, seed=17)


class TestCandidates:
    def test_candidates_sorted_and_projected(self, noisy_world):
        matcher = HMMMapMatcher(noisy_world.network)
        candidates = matcher.candidates_for(Point(100.0, 100.0))
        assert candidates
        dists = [c.distance for c in candidates]
        assert dists == sorted(dists)
        for c in candidates:
            assert 0.0 <= c.ratio <= 1.0

    def test_max_candidates_respected(self, noisy_world):
        matcher = HMMMapMatcher(noisy_world.network, max_candidates=2,
                                search_radius=500.0)
        assert len(matcher.candidates_for(Point(300.0, 300.0))) <= 2

    def test_invalid_params(self, noisy_world):
        with pytest.raises(ValueError):
            HMMMapMatcher(noisy_world.network, sigma=0.0)
        with pytest.raises(ValueError):
            HMMMapMatcher(noisy_world.network, max_candidates=0)


class TestMatching:
    def test_noiseless_exact_recovery(self, noisy_world):
        """With zero GPS noise the matcher must recover the true segments
        almost everywhere (ties at intersections are legitimate)."""
        network = noisy_world.network
        matcher = HMMMapMatcher(network, sigma=5.0)
        truth = noisy_world.matched[0]
        clean = RawTrajectory(
            traj_id=truth.traj_id, driver_id=truth.driver_id,
            points=tuple(
                RawPoint(p.position(network).x, p.position(network).y, p.t)
                for p in truth.points
            ),
        )
        matched = matcher.match(clean)
        agreement = np.mean([
            a.segment_id == b.segment_id
            for a, b in zip(matched.points, truth.points)
        ])
        assert agreement >= 0.85

    def test_noisy_recovery_beats_nearest_segment(self, noisy_world):
        """Viterbi smoothing should beat pointwise nearest-segment
        matching on noisy data (that is the point of the HMM)."""
        network = noisy_world.network
        matcher = HMMMapMatcher(network, sigma=10.0)
        hmm_hits = nearest_hits = total = 0
        for truth, raw in zip(noisy_world.matched[:6], noisy_world.raw[:6]):
            matched = matcher.match(raw)
            for mp, tp, rp in zip(matched.points, truth.points, raw.points):
                hmm_hits += mp.segment_id == tp.segment_id
                nearest, _ = nearest_segment(network, Point(rp.x, rp.y))
                nearest_hits += nearest.segment_id == tp.segment_id
                total += 1
        assert hmm_hits / total >= nearest_hits / total - 0.02
        assert hmm_hits / total > 0.6

    def test_epsilon_estimate(self, noisy_world):
        matcher = HMMMapMatcher(noisy_world.network)
        matched = matcher.match(noisy_world.raw[0])
        assert matched.epsilon == pytest.approx(noisy_world.config.epsilon)

    def test_tids_increasing(self, noisy_world):
        matcher = HMMMapMatcher(noisy_world.network)
        matched = matcher.match(noisy_world.raw[1])
        tids = [p.tid for p in matched.points]
        assert tids == sorted(tids)
        assert tids[0] == 0

    def test_preserves_ids(self, noisy_world):
        matcher = HMMMapMatcher(noisy_world.network)
        raw = noisy_world.raw[2]
        matched = matcher.match(raw)
        assert matched.traj_id == raw.traj_id
        assert matched.driver_id == raw.driver_id
        assert len(matched) == len(raw)


class TestModelComponents:
    def test_emission_prefers_closer(self, noisy_world):
        matcher = HMMMapMatcher(noisy_world.network, sigma=10.0)
        near = matcher.candidates_for(Point(0.0, 0.0))[0]
        assert matcher.emission_logprob(near) <= 0.0

    def test_transition_penalises_detours(self, noisy_world):
        matcher = HMMMapMatcher(noisy_world.network, beta=40.0)
        cands = matcher.candidates_for(Point(200.0, 200.0))
        if len(cands) >= 2:
            straight = 50.0
            lp_same = matcher.transition_logprob(cands[0], cands[0], straight)
            # Transition to itself has route distance 0 -> penalty = straight/beta.
            assert lp_same == pytest.approx(-straight / 40.0)


class _CountingIndex:
    def __init__(self, index: SegmentIndex):
        self.index = index
        self.calls = 0

    def query(self, points, radius):
        self.calls += 1
        return self.index.query(points, radius)


class _PerPointIndex:
    """Answers a batch one point at a time through the bucket oracle."""

    def __init__(self, network):
        self.oracle = BucketOracle(network)

    def query(self, points, radius):
        return oracle_query(self.oracle, points, radius)


def test_one_query_per_trajectory_matches_per_point_path(noisy_world):
    network = noisy_world.network
    counting = _CountingIndex(SegmentIndex(network))
    batched = HMMMapMatcher(network, index=counting)
    per_point = HMMMapMatcher(network, index=_PerPointIndex(network))
    for raw in noisy_world.raw:
        calls = counting.calls
        assert batched.match(raw) == per_point.match(raw)
        assert counting.calls == calls + 1


def test_match_columns_equal_the_per_point_construction(noisy_world):
    """The matched columns hold, bit for bit, what the per-point loop
    built: the Viterbi path's segments and ratios, the raw times, and
    ``floor((t - t0) / epsilon + 0.5)`` per point."""
    import math

    matcher = HMMMapMatcher(noisy_world.network)
    for raw in noisy_world.raw:
        matched = matcher.match(raw)
        points = [p.as_point() for p in raw.points]
        chosen = matcher._viterbi(points, matcher._candidate_layers(points))
        t0, epsilon = raw.points[0].t, matched.epsilon
        assert epsilon == float(np.median(np.diff([p.t for p in raw.points])))
        expected = [(c.segment_id, c.ratio, p.t, int(math.floor((p.t - t0) / epsilon + 0.5)))
                    for c, p in zip(chosen, raw.points)]
        assert [(p.segment_id, p.ratio, p.t, p.tid) for p in matched.points] == expected
        assert [repr(p.ratio) for p in matched.points] == [repr(e[1]) for e in expected]
