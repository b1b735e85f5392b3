"""Compute dtype: the precision of tensors, kernels and decode state.

The **compute dtype** (:func:`set_compute_dtype`, default ``float64``) is
the dtype of everything the hot loops touch: :class:`~repro.nn.tensor.Tensor`
data (parameters, activations, gradients), the fused RNN/GRU/LSTM scan
buffers, constraint-mask arrays, and the packed decode engine's state.
Setting it to ``float32`` halves the memory traffic of every kernel the
perf PRs made compute-bound.  Numerically sensitive *accumulations*
stay float64 regardless — the log-softmax normalisers (dense, masked,
and CSR-sparse), loss reductions (:meth:`Tensor.sum` accumulates in
float64), and the bias-gradient reductions of the fused BPTT scans —
so float32 runs round once per reduction instead of drifting term by
term.  Optimisers are mixed-precision by contract: moments and the
flat update arithmetic are always float64 ("master" precision), and
the update is cast to the compute dtype only when scattered back into
the parameters (see :mod:`repro.nn.optim`).

Flat parameter vectors (:mod:`repro.nn.flatten`) are always float64;
a float32 federated wire is the ``"float32"`` exchange codec
(:mod:`repro.federated.communication`).  With the compute dtype at
``float64`` every code path is bitwise identical to the
pre-mixed-precision tree — float64 is the reference substrate.

The flag is process-global.  Parallel round runners re-assert it
inside every worker task (see :mod:`repro.federated.runner`), so serial
and process-pool federated runs see identical kernel precision.  Set
the compute dtype *before* building models: parameters adopt the dtype
active at construction time.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["get_compute_dtype", "set_compute_dtype", "use_compute_dtype"]

#: Supported compute dtypes.  Everything else would silently corrupt
#: integer state or lose more precision than the tolerance audit (or
#: federated averaging) can absorb, so the setter validates against it.
_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))

#: Read directly (as ``dtypes._COMPUTE_DTYPE``) by Tensor construction,
#: which is too hot for a function call per node.
_COMPUTE_DTYPE = np.dtype(np.float64)


def get_compute_dtype() -> np.dtype:
    """The dtype tensors, kernels, and decode state currently use."""
    return _COMPUTE_DTYPE


def set_compute_dtype(dtype) -> np.dtype:
    """Set the compute dtype (``"float32"``/``"float64"``); returns the
    previous value so callers can restore it.

    Affects tensors and masks built *after* the call; set it before
    constructing models (existing parameters keep their dtype).
    """
    global _COMPUTE_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _ALLOWED:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; expected one of "
            f"{tuple(d.name for d in _ALLOWED)}"
        )
    previous = _COMPUTE_DTYPE
    _COMPUTE_DTYPE = resolved
    return previous


@contextlib.contextmanager
def use_compute_dtype(dtype):
    """Context manager scoping the compute dtype (like ``no_grad``)."""
    previous = set_compute_dtype(dtype)
    try:
        yield
    finally:
        set_compute_dtype(previous)
