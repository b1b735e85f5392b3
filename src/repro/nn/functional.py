"""Composite differentiable operations built on :mod:`repro.nn.tensor`.

These are the ops that do not belong on the :class:`~repro.nn.tensor.Tensor`
class itself: multi-input ops (``concat``, ``stack``), numerically
stabilised softmax variants, and indexing helpers used by embedding
layers.
"""

from __future__ import annotations

import numpy as np

from .kernels import call_kernel
from .tensor import Tensor, _node, as_tensor

__all__ = [
    "addmm",
    "concat",
    "stack",
    "softmax",
    "log_softmax",
    "masked_log_softmax",
    "sparse_masked_log_probs",
    "row_dot",
    "gather_rows",
    "embedding_lookup",
    "dropout",
    "where_mask",
    "pad_sequences",
]


def addmm(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``x @ weight + bias`` recorded as a single tape node.

    ``weight`` must be 2-D ``(K, N)`` and ``bias`` 1-D ``(N,)``; ``x``
    may carry arbitrary leading batch dimensions ``(..., K)``.  Compared
    with the composed ``x @ w + b`` this records one node instead of
    two, which matters on hot paths that call Dense layers per element.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    a, w = x.data, weight.data
    if w.ndim != 2:
        raise ValueError(f"addmm weight must be 2-D, got shape {w.shape}")
    # Flatten leading batch dims into one big GEMM: (B, T, K) @ (K, N)
    # as (B*T, K) @ (K, N) beats NumPy's loop of B small matmuls.
    lead = a.shape[:-1]
    a2 = a.reshape(-1, w.shape[0]) if a.ndim != 2 else a
    out = a2 @ w
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.data
    out = out.reshape(*lead, w.shape[1])

    def backward(grad, stage):
        flat_grad = np.asarray(grad).reshape(-1, w.shape[1])
        stage(x, (flat_grad @ w.T).reshape(a.shape))
        stage(weight, a2.T @ flat_grad)
        if bias is not None:
            # float64 accumulation over the B*T rows (rounded once at
            # the stage hand-off); identical bits at float64 compute.
            stage(bias, flat_grad.sum(axis=0, dtype=np.float64))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out, parents, backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad, stage):
        grad = np.asarray(grad)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            stage(tensor, grad[tuple(index)])

    return _node(data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad, stage):
        grad = np.asarray(grad)
        for i, tensor in enumerate(tensors):
            index = [slice(None)] * grad.ndim
            index[axis] = i
            stage(tensor, grad[tuple(index)])

    return _node(data, tuple(tensors), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The normaliser accumulates in float64 even at float32 compute (one
    rounding per row instead of a term-by-term float32 drift).
    """
    x = as_tensor(x)
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True, dtype=np.float64)

    def backward(grad, stage):
        grad = np.asarray(grad)
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        stage(x, out_data * (grad - dot))

    return _node(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    ``exp`` over the full array is the dominant cost, so it runs once:
    the exponentials are reused (normalised in place) as the softmax
    the backward pass needs.
    """
    x = as_tensor(x)
    out_data, soft = call_kernel("log_softmax_dense", _log_softmax_ref,
                                 x.data, axis)

    def backward(grad, stage):
        grad = np.asarray(grad)
        stage(x, grad - soft * grad.sum(axis=axis, keepdims=True))

    return _node(out_data, (x,), backward)


def _log_softmax_ref(x_data: np.ndarray, axis: int):
    """Dense log-softmax core: ``(out, soft)`` on raw arrays.

    Hot kernel ``"log_softmax_dense"``.  Both arrays escape into the
    tape node and its backward closure.
    """
    shifted = x_data - x_data.max(axis=axis, keepdims=True)
    soft = np.exp(shifted)
    # float64 normaliser accumulation (exact at float64 compute; one
    # rounding per row at float32 — see docs/PERFORMANCE.md precision).
    sumexp = soft.sum(axis=axis, keepdims=True, dtype=np.float64)
    out_data = shifted
    out_data -= np.log(sumexp)
    soft /= sumexp
    return out_data, soft


def _masked_log_softmax_ref(x_data: np.ndarray, log_mask: np.ndarray,
                            axis: int):
    """Dense masked log-softmax core (hot kernel
    ``"masked_log_softmax_dense"``); see :func:`_log_softmax_ref`."""
    shifted = x_data + log_mask
    shifted -= shifted.max(axis=axis, keepdims=True)
    soft = np.exp(shifted)
    sumexp = soft.sum(axis=axis, keepdims=True, dtype=np.float64)
    out_data = shifted
    out_data -= np.log(sumexp)
    soft /= sumexp
    return out_data, soft


def masked_log_softmax(x: Tensor, log_mask, axis: int = -1) -> Tensor:
    """``log_softmax(x + log_mask)`` as one tape node (paper Eq. 11).

    ``log_mask`` is a constant additive bias (the constraint-mask log
    weights), so folding it into the log-softmax skips one add node and
    its dense backward pass on the hot decode path.

    ``log_mask`` is either a dense array broadcastable against ``x`` or
    a CSR-style sparse mask (an object with ``indptr`` / ``indices`` /
    ``log_values`` / ``floor`` attributes, such as
    :class:`repro.core.mask.SparseConstraintMask`).  With a sparse mask
    the exponentials, the normaliser, and the backward softmax term are
    computed only over each row's active indices — the dominant softmax
    cost scales with the mask's nnz instead of the full vocabulary.
    """
    if not isinstance(log_mask, np.ndarray):
        return _sparse_masked_log_softmax(x, log_mask, axis)
    x = as_tensor(x)
    if log_mask.dtype != x.data.dtype:
        # A float64 mask would silently upcast the whole softmax chain
        # at float32 compute; cast once here instead.
        log_mask = log_mask.astype(x.data.dtype)
    out_data, soft = call_kernel("masked_log_softmax_dense",
                                 _masked_log_softmax_ref, x.data, log_mask,
                                 axis)

    def backward(grad, stage):
        grad = np.asarray(grad)
        dx = soft * grad.sum(axis=axis, keepdims=True)
        np.subtract(grad, dx, out=dx)
        stage(x, dx)

    return _node(out_data, (x,), backward)


def _sparse_log_probs_core(x2: np.ndarray, smask, want_soft: bool):
    """Masked log-softmax over CSR rows; shared by tape and no-tape paths
    (hot kernel ``"sparse_log_probs"``).

    ``x2`` is the ``(R, S)`` row-flattened logits; ``smask`` supplies
    ``indptr`` (``(R+1,)``), ``indices`` / ``log_values`` (``(nnz,)``)
    and the scalar ``floor`` assigned to inactive entries.  The dense
    equivalent adds ``floor`` everywhere and the active ``log_values``
    on top, then log-softmaxes each row; here ``exp`` runs only over
    the nnz active entries, and rows with an empty active set (the
    empty-radius fallback, where the dense mask is uniformly ``floor``)
    drop to a dense log-softmax over just those rows.

    Entries are read and written at their flat positions
    ``row * S + index`` in ``x2``.  Without ``want_soft``, a mask
    carrying a step ``layout`` (see
    :class:`repro.core.mask.SparseConstraintMask`) supplies those
    positions and the row lengths, so no per-row bookkeeping is
    re-derived each decode step.

    Returns ``(out, aux)``.  With ``want_soft``, ``aux`` is
    ``(nz_rows, soft_nz, empty, soft_empty)``: what the backward pass
    needs (each active entry's row and softmax value, and dense softmax
    rows for empty-set rows, ``soft_empty`` ``None`` when there are
    none); otherwise ``aux`` is ``None``.
    """
    return call_kernel("sparse_log_probs", _sparse_log_probs_ref,
                       x2, smask, want_soft)


def _sparse_log_probs_ref(x2: np.ndarray, smask, want_soft: bool):
    """Reference CSR masked log-softmax (see :func:`_sparse_log_probs_core`)."""
    log_values = smask.log_values
    if log_values.dtype != x2.dtype:
        log_values = log_values.astype(x2.dtype)
    r, s = x2.shape
    indptr = smask.indptr
    layout = None if want_soft else getattr(smask, "layout", None)
    if layout is not None:
        # Entry k sits at flat position flat[k] of x2 and every row is
        # non-empty: nothing per-row is re-derived.
        flat, counts = layout
        nz_rows = empty = None
        has_empty = False
    else:
        counts = np.diff(indptr)
        nz_rows = np.repeat(np.arange(r), counts)
        flat = nz_rows * s + smask.indices
        empty = counts == 0
        has_empty = bool(empty.any())
    z_nz = x2.take(flat) + log_values
    soft_nz = None
    # Per-row normalisers accumulate in float64 regardless of the
    # compute dtype (identical bits at float64; one rounding per row
    # at float32 when folded back below).
    log_z = np.empty(r, dtype=np.float64)
    if z_nz.size:
        starts, seg_lens = indptr[:-1], counts
        if has_empty:
            nonempty = ~empty
            starts, seg_lens = starts[nonempty], counts[nonempty]
        seg_max = np.maximum.reduceat(z_nz, starts)
        e_nz = np.exp(z_nz - np.repeat(seg_max, seg_lens))
        seg_sum = np.add.reduceat(e_nz, starts, dtype=np.float64)
        if has_empty:
            log_z[nonempty] = seg_max + np.log(seg_sum)
        else:
            log_z = seg_max + np.log(seg_sum)
        if want_soft:
            e_nz /= np.repeat(seg_sum, seg_lens)
            soft_nz = e_nz
    elif want_soft:
        soft_nz = np.empty(0, dtype=x2.dtype)
    soft_empty = None
    if has_empty:
        xe = x2[empty]
        max_e = xe.max(axis=1, keepdims=True)
        exp_e = np.exp(xe - max_e)
        sum_e = exp_e.sum(axis=1, keepdims=True, dtype=np.float64)
        log_z[empty] = smask.floor + (max_e + np.log(sum_e)).ravel()
        if want_soft:
            exp_e /= sum_e
            soft_empty = exp_e
    adjust = smask.floor - log_z
    if adjust.dtype != x2.dtype:
        adjust = adjust.astype(x2.dtype)
    out = np.add(x2, adjust[:, None], order="C")  # ravel() must be a view
    out.ravel()[flat] = z_nz - np.repeat(log_z, counts)
    if not want_soft:
        return out, None
    return out, (nz_rows, soft_nz, empty, soft_empty)


def _sparse_masked_log_softmax(x: Tensor, smask, axis: int) -> Tensor:
    """Sparse-mask leg of :func:`masked_log_softmax` (one tape node)."""
    x = as_tensor(x)
    if axis not in (-1, x.ndim - 1):
        raise ValueError("sparse masked_log_softmax supports the last axis only")
    if getattr(smask, "identity", False):
        # Disabled mask: a uniformly-zero log weight cancels in softmax.
        return log_softmax(x, axis=-1)
    if tuple(smask.shape) != x.shape:
        raise ValueError(
            f"sparse mask shape {tuple(smask.shape)} does not match logits {x.shape}"
        )
    s = x.shape[-1]
    x2 = x.data.reshape(-1, s)
    out2, (nz_rows, soft_nz, empty, soft_empty) = _sparse_log_probs_core(
        x2, smask, want_soft=True
    )
    indices = smask.indices

    def backward(grad, stage):
        g2 = np.asarray(grad).reshape(-1, s)
        g_sum = g2.sum(axis=1)
        dx = g2.copy()
        if nz_rows.size:
            dx[nz_rows, indices] -= soft_nz * g_sum[nz_rows]
        if soft_empty is not None:
            dx[empty] -= soft_empty * g_sum[empty, None]
        stage(x, dx.reshape(x.shape))

    return _node(out2.reshape(x.shape), (x,), backward)


def sparse_masked_log_probs(logits: np.ndarray, smask) -> np.ndarray:
    """Plain-NumPy sparse masked log-softmax (no tape): inference path.

    Same computation as the sparse leg of :func:`masked_log_softmax`
    but on raw arrays, for the tape-free autoregressive decode.
    ``logits`` may carry leading batch dims; ``smask`` rows must match
    their product.
    """
    if getattr(smask, "identity", False):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        # Mirror of log_softmax: float64 normaliser, rounded in place.
        shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True,
                                                dtype=np.float64))
        return shifted
    out, _ = _sparse_log_probs_core(
        logits.reshape(-1, logits.shape[-1]), smask, want_soft=False
    )
    return out.reshape(logits.shape)


def row_dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Packing-stable ``(..., K) @ (K, 1)`` mat-vec on raw arrays.

    BLAS dispatches single-output-column matmuls to GEMV kernels whose
    accumulation blocking depends on the row count, so the same row can
    come out a few ULP different inside working sets of different
    sizes.  The packed decode engine compacts its working set whenever
    a trajectory finishes, so its single-output heads (moving-ratio
    heads, the additive-attention energy) use this reduction instead:
    an elementwise product and a per-row pairwise sum, bit-stable under
    any row packing.  Returns shape ``(...)`` (the unit column dropped);
    values agree with the ``@`` form to ~1 ULP.
    """
    return (x * w.reshape(-1)).sum(axis=-1)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one entry per row: ``x[arange(N), indices]`` as one node.

    Because every picked position is distinct (one per row), the
    backward scatter is a direct fancy-index assignment rather than the
    much slower ``np.add.at`` accumulation the generic ``__getitem__``
    needs.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"gather_rows expects (N, C) input, got {x.shape}")
    n = x.shape[0]
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape != (n,):
        raise ValueError(f"indices shape {indices.shape} does not match rows {n}")
    rows = np.arange(n)

    def backward(grad, stage):
        full = np.zeros_like(x.data)
        full[rows, indices] = grad
        stage(x, full)

    return _node(x.data[rows, indices], (x,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add gradient.

    Parameters
    ----------
    weight:
        ``(vocab, dim)`` embedding matrix.
    indices:
        Integer array of any shape; result has shape ``indices.shape + (dim,)``.
    """
    indices = np.asarray(indices, dtype=np.int64)

    def backward(grad, stage):
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), np.asarray(grad).reshape(-1, weight.data.shape[1]))
        stage(weight, full)

    return _node(weight.data[indices], (weight,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` in training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    # Draw float64 (identical RNG stream at any compute dtype), then
    # match the keep-scale to x so the multiply does not upcast.
    keep = ((rng.random(x.shape) >= p) / (1.0 - p)).astype(x.data.dtype,
                                                           copy=False)

    def backward(grad, stage):
        stage(x, np.asarray(grad) * keep)

    return _node(x.data * keep, (x,), backward)


def where_mask(mask: np.ndarray, x: Tensor, fill: float) -> Tensor:
    """Differentiable ``np.where(mask, x, fill)`` with a constant fill.

    Used by the constraint-mask layer to suppress logits of road segments
    that are too far from the observed trajectory.
    """
    mask = np.asarray(mask, dtype=bool)

    def backward(grad, stage):
        stage(x, np.asarray(grad) * mask)

    return _node(np.where(mask, x.data, fill), (x,), backward)


def pad_sequences(arrays: list[np.ndarray], pad_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Pad a list of ``(T_i, ...)`` arrays to ``(N, T_max, ...)``.

    Returns the padded batch and a boolean validity mask of shape
    ``(N, T_max)``.  This is a plain-NumPy helper (no gradients) used by
    the batching code.
    """
    if not arrays:
        raise ValueError("pad_sequences() needs at least one sequence")
    max_len = max(a.shape[0] for a in arrays)
    trailing = arrays[0].shape[1:]
    batch = np.full((len(arrays), max_len, *trailing), pad_value, dtype=np.asarray(arrays[0]).dtype)
    mask = np.zeros((len(arrays), max_len), dtype=bool)
    for i, a in enumerate(arrays):
        batch[i, : a.shape[0]] = a
        mask[i, : a.shape[0]] = True
    return batch, mask
