"""The builder's sorted key index grows incrementally.

``ConstraintMaskBuilder`` keeps every registered key's int64 encoding in
registration order beside its row pool, so refreshing the sorted index
is one argsort of that array (whose order is the rows array), and a
refresh with nothing new registered is a no-op.  The oracle is the
original refresh, which walked the key dict in Python; random sequences
of ``warm``, missing-key ``build_for`` and ``clear_cache`` must leave
the same index, and every sparse build must equal a fresh builder's.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder
from repro.data.dataset import TrajectoryDataset


def _dict_walk_index(builder) -> tuple[np.ndarray, np.ndarray]:
    """The original ``_refresh_sorted_index``: sorted encoded keys and
    their rows, rebuilt from the key dict."""
    if not builder._key_to_row:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = np.array([k[0] * (1 << 32) + k[1] for k in builder._key_to_row],
                    dtype=np.int64)
    rows = np.fromiter(builder._key_to_row.values(), dtype=np.int64,
                       count=len(builder._key_to_row))
    order = np.argsort(keys)
    return keys[order], rows[order]


def _assert_index_matches_oracle(builder) -> None:
    sorted_keys, rows = _dict_walk_index(builder)
    np.testing.assert_array_equal(builder._enc_sorted, sorted_keys)
    np.testing.assert_array_equal(builder._enc_rows, rows)
    assert builder._enc_rows.dtype == rows.dtype


def _assert_same_csr(got, want) -> None:
    assert got.shape == want.shape and got.floor == want.floor
    for name in ("indptr", "indices", "log_values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _subset(dataset, indices) -> TrajectoryDataset:
    return TrajectoryDataset([dataset.examples[i] for i in indices],
                             dataset.grid, dataset.network, dataset.keep_ratio)


@pytest.mark.parametrize("seed", range(5))
def test_random_sequences_match_the_dict_walk(seed, tiny_world, tiny_dataset):
    rng = np.random.default_rng(seed)
    builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
    n = len(tiny_dataset)
    for _ in range(12):
        op = rng.choice(["warm", "build", "build", "clear"], p=[0.3, 0.3, 0.3, 0.1])
        picked = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
        if op == "clear":
            builder.clear_cache()
            assert builder._enc_sorted.size == builder._sp_keys.size == 0
            continue
        if op == "warm":
            builder.warm(_subset(tiny_dataset, picked))
            _assert_index_matches_oracle(builder)
            continue
        batch = _subset(tiny_dataset, picked).full_batch()
        # Shifted guide points reach keys no warm registered.
        shift = rng.integers(-4, 5, size=2) * 25.0
        batch = dataclasses.replace(batch, guide_xy=batch.guide_xy + shift)
        got = builder.build_for(batch)
        _assert_index_matches_oracle(builder)
        fresh = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        _assert_same_csr(got, fresh.build_sparse(batch))


def test_point_lookups_are_indexed_by_the_next_refresh(tiny_world, tiny_dataset):
    """Keys registered by ``log_mask_for_point`` (no refresh) join the
    index at the next build."""
    builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
    builder.warm(_subset(tiny_dataset, [0, 1]))
    builder.log_mask_for_point(12345.0, -678.0)
    builder.log_mask_for_point(-5.0, 40.0)
    batch = _subset(tiny_dataset, [2]).full_batch()
    builder.build_sparse(batch)
    _assert_index_matches_oracle(builder)


def test_second_warm_keeps_the_index_objects(tiny_world, tiny_dataset):
    builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
    builder.warm(tiny_dataset)
    sorted_keys, rows = builder._enc_sorted, builder._enc_rows
    builder.warm(tiny_dataset)
    assert builder._enc_sorted is sorted_keys
    assert builder._enc_rows is rows
    builder.build_sparse(tiny_dataset.full_batch())  # every key known
    assert builder._enc_sorted is sorted_keys
