"""``recover_dataset`` builds its points from Python rows: every field
must keep its Python type and equal ``predict_batch``'s arrays, on
ragged lengths (rows shorter than the padded batch) as well."""

from __future__ import annotations

import numpy as np

from repro.core import LTEModel, TrajectoryRecovery
from repro.data import TrajectoryDataset
from repro.data.trajectory import MatchedTrajectory


def test_points_keep_types_and_values(tiny_config, tiny_world, tiny_mask):
    trimmed = [MatchedTrajectory(traj.traj_id, traj.driver_id, traj.epsilon,
                                 traj.points[:5 + 3 * (i % 5)])
               for i, traj in enumerate(tiny_world.matched)]
    dataset = TrajectoryDataset.from_matched(trimmed, tiny_world.grid,
                                             tiny_world.network,
                                             keep_ratio=0.25)
    recovery = TrajectoryRecovery(
        LTEModel(tiny_config, np.random.default_rng(0)), tiny_mask)
    segments, ratios = recovery.predict_batch(dataset.full_batch())
    epsilon = 12.5
    results = recovery.recover_dataset(dataset, epsilon=epsilon)
    assert len({len(r.trajectory) for r in results}) > 1
    for i, (example, result) in enumerate(zip(dataset.examples, results)):
        points = result.trajectory.points
        assert len(points) == example.full_length
        for j, point in enumerate(points):
            assert type(point.segment_id) is int
            assert type(point.ratio) is float
            assert type(point.tid) is int
            assert point.segment_id == segments[i, j]
            assert point.ratio == ratios[i, j]
            assert point.t == j * epsilon and point.tid == j
        missing = np.flatnonzero(~example.observed_flags)
        assert all(type(j) is int for j in result.recovered_indices)
        assert result.recovered_indices == tuple(int(j) for j in missing)
