"""Tests for the constraint mask layer (Eq. 10-11)."""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder
from repro.core.mask import _FLOOR_LOG
from repro.spatial import Point, grid_city

from index_oracle import BucketOracle


class TestPointMasks:
    def test_near_segment_gets_high_weight(self, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        seg = tiny_world.network.segments[0]
        mid = seg.position_at(0.5)
        log_mask = builder.log_mask_for_point(mid.x, mid.y)
        assert log_mask[seg.segment_id] > _FLOOR_LOG
        assert log_mask[seg.segment_id] > log_mask.min()

    def test_far_segments_floored(self, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=200.0)
        min_x, min_y, _, _ = tiny_world.network.bounding_box()
        log_mask = builder.log_mask_for_point(min_x - 5000.0, min_y - 5000.0)
        assert (log_mask == _FLOOR_LOG).all()

    def test_weight_decays_with_distance(self, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, gamma=125.0,
                                        radius=600.0)
        seg = tiny_world.network.segments[0]
        near = seg.position_at(0.5)
        log_near = builder.log_mask_for_point(near.x, near.y)[seg.segment_id]
        # Same segment evaluated from farther away scores lower.
        far_x = near.x + 300.0
        far_y = near.y + 300.0
        log_far = builder.log_mask_for_point(far_x, far_y)[seg.segment_id]
        assert log_far < log_near

    def test_identity_mode_all_zero(self, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, identity=True)
        log_mask = builder.log_mask_for_point(0.0, 0.0)
        np.testing.assert_allclose(log_mask, 0.0)

    def test_invalid_params(self, tiny_world):
        with pytest.raises(ValueError):
            ConstraintMaskBuilder(tiny_world.network, gamma=0.0)
        with pytest.raises(ValueError):
            ConstraintMaskBuilder(tiny_world.network, radius=-1.0)


class TestBatchMasks:
    def test_build_shape(self, tiny_dataset, tiny_mask):
        batch = tiny_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        assert log_mask.shape == (
            batch.size, batch.steps, tiny_dataset.num_segments
        )

    def test_true_segment_rarely_masked_out(self, tiny_dataset, tiny_world):
        """The ground-truth segment should be within the mask radius of
        the guide position nearly always (otherwise training is
        impossible)."""
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        log_mask = builder.build(batch)
        valid = batch.tgt_mask
        hits = 0
        total = 0
        for i in range(batch.size):
            for j in range(batch.steps):
                if not valid[i, j]:
                    continue
                total += 1
                if log_mask[i, j, batch.tgt_segments[i, j]] > _FLOOR_LOG:
                    hits += 1
        assert hits / total > 0.95

    def test_cache_speeds_repeat_queries(self, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=300.0)
        first = builder.log_mask_for_point(123.0, 456.0)
        second = builder.log_mask_for_point(123.0, 456.0)
        assert first is second  # memoised object identity

    def test_clear_cache(self, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=300.0)
        builder.log_mask_for_point(1.0, 1.0)
        assert builder._cache
        builder.clear_cache()
        assert not builder._cache


class TestWorkerReconstruction:
    def test_pickle_roundtrip_drops_caches_keeps_values(self, tiny_world,
                                                        tiny_dataset, tiny_mask):
        import pickle

        batch = tiny_dataset.full_batch()
        expected = tiny_mask.build(batch)  # also warms tiny_mask's caches
        clone = pickle.loads(pickle.dumps(tiny_mask))
        assert not clone._cache  # caches are rebuilt, not shipped
        assert clone.gamma == tiny_mask.gamma
        assert clone.radius == tiny_mask.radius
        np.testing.assert_array_equal(clone.build(batch), expected)

    def test_warm_precomputes_exactly_the_batch_keys(self, tiny_world,
                                                     tiny_dataset):
        warmed = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        rows = warmed.warm(tiny_dataset)
        assert rows == len(warmed._key_to_row) > 0
        keys_before = set(warmed._key_to_row)
        # Building any batch of the dataset hits only warmed keys ...
        reference = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        np.testing.assert_array_equal(warmed.build(batch),
                                      reference.build(batch))
        # ... so the cache did not need to grow.
        assert set(warmed._key_to_row) == keys_before

    def test_warm_identity_and_empty_are_noops(self, tiny_world, tiny_dataset):
        identity = ConstraintMaskBuilder(tiny_world.network, identity=True)
        assert identity.warm(tiny_dataset) == 0


class _GuideSet:
    """The two fields ``warm`` reads from a dataset."""

    def __init__(self, guide_xy: np.ndarray):
        self.examples = [SimpleNamespace(guide_xy=g) for g in guide_xy]

    def __len__(self) -> int:
        return len(self.examples)


class TestBatchedPool:
    """Pool rows filled through one batched index query per call are
    bitwise the rows the per-point bucket oracle gives key by key."""

    @pytest.fixture(scope="class")
    def big_world(self):
        # 3 114 segments: a query block holds only a few points, so
        # every call below crosses block boundaries.
        network = grid_city(nx=28, ny=28, spacing=200.0, drop_prob=0.0,
                            rng=np.random.default_rng(3))
        x0, y0, x1, y1 = network.bounding_box()
        rng = np.random.default_rng(4)
        guide = np.stack([rng.uniform(x0 - 300.0, x1 + 300.0, (4, 25)),
                          rng.uniform(y0 - 300.0, y1 + 300.0, (4, 25))],
                         axis=-1)
        return network, BucketOracle(network), guide

    @staticmethod
    def _assert_rows_match_oracle(builder, oracle):
        inv_gamma_sq = 1.0 / (builder.gamma * builder.gamma)
        assert builder._key_to_row
        for key, row in builder._key_to_row.items():
            hits = oracle.query(Point((key[0] + 0.5) * 25.0,
                                      (key[1] + 0.5) * 25.0), builder.radius)
            ids = np.array([seg.segment_id for seg, _ in hits], dtype=np.int64)
            values = np.array([max(_FLOOR_LOG, -(d * d) * inv_gamma_sq)
                               for _, d in hits])
            order = np.argsort(ids)
            lo = builder._sp_starts[row]
            hi = lo + builder._sp_lens[row]
            np.testing.assert_array_equal(builder._sp_indices[lo:hi], ids[order])
            np.testing.assert_array_equal(
                builder._sp_values[lo:hi].view(np.int64),
                values[order].view(np.int64))

    def test_cold_batch_rows(self, big_world):
        network, oracle, guide = big_world
        builder = ConstraintMaskBuilder(network, radius=400.0)
        builder.build_sparse(SimpleNamespace(guide_xy=guide[:2]))
        builder.build_sparse(SimpleNamespace(guide_xy=guide))  # partly warm
        assert builder.index._block < len(builder._key_to_row)
        self._assert_rows_match_oracle(builder, oracle)

    def test_warm_and_pickled(self, big_world):
        network, oracle, guide = big_world
        builder = ConstraintMaskBuilder(network, radius=400.0)
        builder.log_mask_for_point(*guide[0, 0])  # one key on its own
        assert builder.warm(_GuideSet(guide)) == len(builder._key_to_row)
        self._assert_rows_match_oracle(builder, oracle)
        clone = pickle.loads(pickle.dumps(builder))
        assert not clone._key_to_row
        clone.warm(_GuideSet(guide))
        self._assert_rows_match_oracle(clone, oracle)
        batch = SimpleNamespace(guide_xy=guide)
        expected, got = builder.build_sparse(batch), clone.build_sparse(batch)
        np.testing.assert_array_equal(got.indptr, expected.indptr)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.log_values, expected.log_values)
