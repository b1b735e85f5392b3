"""The step layout of gathered CSR masks.

``SparseConstraintMask.take`` records each active entry's flat position
``row * S + index`` and the per-row counts when every gathered row is
non-empty, and ``row_slice`` carries that layout rebased.  The inference
leg of the sparse log-softmax (``want_soft=False``) then reads its flat
take/put positions from the layout instead of deriving them from
``indptr``; either way it must give the bits of the row-indexed
computation below (the kernel before step layouts), at every logits /
value dtype pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SparseConstraintMask
from repro.nn.functional import _sparse_log_probs_ref

S = 53


def _source_mask(rng, rows: int, value_dtype, empty_rows=()) -> SparseConstraintMask:
    """A random ``(rows, S)`` CSR mask, id-sorted rows of 1-20 entries
    (``empty_rows`` get none)."""
    lens = rng.integers(1, 21, size=rows)
    lens[list(empty_rows)] = 0
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(S, size=n, replace=False)) for n in lens])
    values = rng.uniform(-30.0, 0.0, size=indices.size).astype(value_dtype)
    return SparseConstraintMask((rows, S), indptr, indices.astype(np.int64),
                                values)


def _without_layout(mask: SparseConstraintMask) -> SparseConstraintMask:
    return SparseConstraintMask(mask.shape, mask.indptr, mask.indices,
                                mask.log_values, floor=mask.floor)


def _row_indexed_log_probs(x2: np.ndarray, smask) -> np.ndarray:
    """Oracle: the inference leg on 2-D fancy indexing, rows derived
    from ``indptr`` every call."""
    log_values = smask.log_values
    if log_values.dtype != x2.dtype:
        log_values = log_values.astype(x2.dtype)
    r = x2.shape[0]
    indptr = smask.indptr
    lens = np.diff(indptr)
    nz_rows = np.repeat(np.arange(r), lens)
    z_nz = x2[nz_rows, smask.indices] + log_values
    nonempty = lens > 0
    log_z = np.empty(r, dtype=np.float64)
    if z_nz.size:
        starts = indptr[:-1][nonempty]
        seg_lens = lens[nonempty]
        seg_max = np.maximum.reduceat(z_nz, starts)
        e_nz = np.exp(z_nz - np.repeat(seg_max, seg_lens))
        seg_sum = np.add.reduceat(e_nz, starts, dtype=np.float64)
        log_z[nonempty] = seg_max + np.log(seg_sum)
    empty = ~nonempty
    if empty.any():
        xe = x2[empty]
        max_e = xe.max(axis=1, keepdims=True)
        sum_e = np.exp(xe - max_e).sum(axis=1, keepdims=True,
                                       dtype=np.float64)
        log_z[empty] = smask.floor + (max_e + np.log(sum_e)).ravel()
    adjust = smask.floor - log_z
    if adjust.dtype != x2.dtype:
        adjust = adjust.astype(x2.dtype)
    out = x2 + adjust[:, None]
    out[nz_rows, smask.indices] = z_nz - log_z[nz_rows]
    return out


def _assert_layout_consistent(mask: SparseConstraintMask) -> None:
    flat, counts = mask.layout
    np.testing.assert_array_equal(counts, np.diff(mask.indptr))
    rows = np.repeat(np.arange(mask.n_rows), np.diff(mask.indptr))
    np.testing.assert_array_equal(flat, rows * mask.shape[-1] + mask.indices)


def _assert_bitwise(mask: SparseConstraintMask, x2: np.ndarray) -> None:
    want = _row_indexed_log_probs(x2, mask)
    assert want.dtype == x2.dtype
    for variant in (mask, _without_layout(mask)):
        got, aux = _sparse_log_probs_ref(x2, variant, False)
        assert aux is None
        assert got.dtype == x2.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("logit_dtype", [np.float64, np.float32])
@pytest.mark.parametrize("value_dtype", [np.float64, np.float32])
def test_take_and_row_slice_layouts_are_bitwise(seed, logit_dtype, value_dtype):
    rng = np.random.default_rng(seed)
    source = _source_mask(rng, 120, value_dtype)
    for _ in range(8):
        n = int(rng.integers(1, 41))
        block = source.take(rng.choice(source.n_rows, size=n))
        assert block.layout is not None
        _assert_layout_consistent(block)
        x2 = rng.normal(scale=3.0, size=(n, S)).astype(logit_dtype)
        if rng.random() < 0.5:
            x2 = np.asfortranarray(x2)  # not a C-contiguous view
        _assert_bitwise(block, x2)
        if n < 2:
            continue
        lo = int(rng.integers(1, n))
        hi = int(rng.integers(lo + 1, n + 1))
        part = block.row_slice(lo, hi)
        _assert_layout_consistent(part)
        _assert_bitwise(part, x2[lo:hi])


def test_a_mask_with_an_empty_row_has_no_layout():
    rng = np.random.default_rng(7)
    source = _source_mask(rng, 30, np.float64, empty_rows=(4, 11))
    assert source.take(np.array([0, 4, 9])).layout is None
    assert source.take(np.array([0, 4, 9])).row_slice(1, 3).layout is None
    with_all = source.take(np.array([0, 9, 12]))
    assert with_all.layout is not None
    # The empty row takes the dense fallback, with the same bits.
    x2 = rng.normal(size=(3, S))
    _assert_bitwise(source.take(np.array([0, 4, 9])), x2)
    _assert_bitwise(source.take(np.array([4, 11])), x2[:2])


def test_built_and_identity_masks_have_no_layout(tiny_dataset, tiny_mask,
                                                 tiny_world):
    from repro.core import ConstraintMaskBuilder

    batch = tiny_dataset.full_batch()
    built = tiny_mask.build_sparse(batch)
    assert built.layout is None
    identity = ConstraintMaskBuilder(tiny_world.network,
                                     identity=True).build_sparse(batch)
    assert identity.take(np.arange(4)).layout is None
    # A block gathered from a built mask (the decode engine's use).
    rows = np.arange(built.n_rows)[np.diff(built.indptr) > 0][:30]
    block = built.take(rows)
    assert block.layout is not None
    x2 = np.random.default_rng(1).normal(
        size=(rows.size, built.shape[-1])).astype(built.log_values.dtype)
    _assert_bitwise(block, x2)
    _assert_bitwise(block.row_slice(3, 17), x2[3:17])


def test_want_soft_ignores_the_layout():
    """The training leg derives its aux output from ``indptr``."""
    rng = np.random.default_rng(2)
    block = _source_mask(rng, 40, np.float64).take(np.arange(5, 25))
    x2 = rng.normal(size=(20, S))
    got, (nz_rows, soft_nz, empty, soft_empty) = _sparse_log_probs_ref(
        x2, block, True)
    want, (_, want_soft, _, _) = _sparse_log_probs_ref(
        x2, _without_layout(block), True)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(soft_nz, want_soft)
    assert nz_rows.size == block.nnz and not empty.any()


def test_gather_is_take_without_the_layout():
    rng = np.random.default_rng(3)
    source = _source_mask(rng, 50, np.float32)
    rows = rng.choice(source.n_rows, size=17)
    taken, gathered = source.take(rows), source.gather(rows)
    assert taken.layout is not None and gathered.layout is None
    for name in ("indptr", "indices", "log_values"):
        np.testing.assert_array_equal(getattr(gathered, name),
                                      getattr(taken, name))
    assert gathered.shape == taken.shape and gathered.floor == taken.floor
    identity = SparseConstraintMask.identity_mask((50, S))
    assert identity.gather(rows).identity and identity.take(rows).layout is None
