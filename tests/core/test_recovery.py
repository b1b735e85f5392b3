"""Tests for the high-level TrajectoryRecovery API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LTEModel, TrajectoryRecovery


@pytest.fixture()
def recovery(tiny_config, tiny_mask):
    model = LTEModel(tiny_config, np.random.default_rng(0))
    return TrajectoryRecovery(model, tiny_mask)


class TestPredictBatch:
    def test_observed_points_clamped_to_truth(self, recovery, tiny_dataset):
        batch = tiny_dataset.full_batch()
        segments, ratios = recovery.predict_batch(batch)
        observed = batch.observed_flags
        np.testing.assert_array_equal(segments[observed],
                                      batch.tgt_segments[observed])
        np.testing.assert_allclose(ratios[observed], batch.tgt_ratios[observed])

    def test_ratios_clipped(self, recovery, tiny_dataset):
        _, ratios = recovery.predict_batch(tiny_dataset.full_batch())
        assert ratios.min() >= 0.0
        assert ratios.max() <= 1.0

    def test_segments_in_vocabulary(self, recovery, tiny_dataset):
        segments, _ = recovery.predict_batch(tiny_dataset.full_batch())
        assert segments.min() >= 0
        assert segments.max() < tiny_dataset.num_segments


class TestRecoverDataset:
    def test_returns_one_per_example(self, recovery, tiny_dataset):
        results = recovery.recover_dataset(tiny_dataset)
        assert len(results) == len(tiny_dataset)

    def test_recovered_trajectory_structure(self, recovery, tiny_dataset):
        result = recovery.recover_dataset(tiny_dataset)[0]
        example = tiny_dataset.examples[0]
        traj = result.trajectory
        assert len(traj) == example.full_length
        assert traj.traj_id == example.traj_id
        assert result.recovered_indices == tuple(
            int(i) for i in np.flatnonzero(~example.observed_flags)
        )

    def test_empty_dataset(self, recovery, tiny_dataset):
        from repro.data import TrajectoryDataset
        empty = TrajectoryDataset([], tiny_dataset.grid, tiny_dataset.network,
                                  tiny_dataset.keep_ratio)
        assert recovery.recover_dataset(empty) == []

    def test_eval_is_deterministic(self, recovery, tiny_dataset):
        a = recovery.recover_dataset(tiny_dataset)
        b = recovery.recover_dataset(tiny_dataset)
        assert a[0].trajectory.segment_ids.tolist() == b[0].trajectory.segment_ids.tolist()
