"""``SparseConstraintMask.row_slice``: a contiguous row range must equal
``take`` of the same rows bit for bit (``indptr``, ``indices``,
``log_values``, ``floor``, kind), for built, hand-made and identity
masks and for empty ranges — the decode engine cuts every step's mask
out of a gathered block this way."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder, SparseConstraintMask


def _assert_same_mask(got: SparseConstraintMask,
                      expected: SparseConstraintMask) -> None:
    assert got.shape == expected.shape
    assert got.identity == expected.identity
    assert got.floor == expected.floor
    for name in ("indptr", "indices", "log_values"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _ranges(n_rows: int) -> list[tuple[int, int]]:
    return [(0, n_rows), (0, 0), (n_rows, n_rows), (3, 3), (0, 1),
            (n_rows - 1, n_rows), (2, n_rows - 5), (5, 6)]


@pytest.fixture(scope="module")
def built_mask(tiny_dataset, tiny_mask):
    return tiny_mask.build_sparse(tiny_dataset.full_batch())


def test_built_mask_ranges_match_take(built_mask):
    assert built_mask.nnz > 0
    for lo, hi in _ranges(built_mask.n_rows):
        _assert_same_mask(built_mask.row_slice(lo, hi),
                          built_mask.take(np.arange(lo, hi)))


def test_slice_of_a_gathered_block(built_mask):
    """The engine's use: a block gathered by ``take`` (rows in any
    order), then sliced; equal to taking the slice's rows directly."""
    rng = np.random.default_rng(3)
    flat = rng.permutation(built_mask.n_rows)[:40]
    block = built_mask.take(flat)
    for lo, hi in ((0, 12), (12, 13), (13, 40), (20, 20)):
        _assert_same_mask(block.row_slice(lo, hi),
                          built_mask.take(flat[lo:hi]))


def test_empty_rows_and_views():
    """Rows with no active segment (the empty-radius fallback) keep
    their zero-length CSR span; the slice shares the parent's
    storage."""
    mask = SparseConstraintMask(
        (5, 4), np.array([0, 2, 2, 2, 5, 6], dtype=np.int64),
        np.array([0, 3, 1, 2, 3, 0], dtype=np.int64),
        np.array([-0.5, -1.0, -0.25, -2.0, -0.75, -3.0]), floor=-30.0)
    for lo, hi in _ranges(5)[:6] + [(1, 3), (2, 4), (1, 5)]:
        got = mask.row_slice(lo, hi)
        _assert_same_mask(got, mask.take(np.arange(lo, hi)))
        if got.nnz:
            assert np.shares_memory(got.indices, mask.indices)
            assert np.shares_memory(got.log_values, mask.log_values)


def test_identity_mask_ranges(tiny_world, tiny_dataset):
    batch = tiny_dataset.full_batch()
    identity = ConstraintMaskBuilder(tiny_world.network,
                                     identity=True).build_sparse(batch)
    assert identity.identity
    for lo, hi in _ranges(identity.n_rows):
        _assert_same_mask(identity.row_slice(lo, hi),
                          identity.take(np.arange(lo, hi)))
