"""Per-step reference kernels: the oracles the fused hot paths are pinned to.

The library runs one implementation per layer — fused whole-sequence
RNN/GRU/LSTM scans, the fused ``addmm`` dense layer, the ``gather_rows``
loss pick, and LTE's fused teacher-forced and engine decodes.  The
original per-step tape implementations live here, test-side only, and
:func:`reference_kernels` patches them in for a block::

    with reference_kernels():
        expected = model(batch, log_mask)   # per-step tape path

Contracts asserted against these oracles (at float64 compute):

* fused vs per-step kernels match outputs and gradients to atol 1e-10
  (``tests/nn/test_fused_recurrent.py``, ``tests/core/test_fused_decode.py``);
* under :func:`reference_kernels` LTE has no decode program, so
  :func:`repro.serving.decode_model` falls back to the per-step tape
  decode — values to 1e-10, argmax segments identical
  (``tests/serving/test_decode_session.py``).

The other two oracles need no patching: the dense constraint mask is
:meth:`ConstraintMaskBuilder.build` (sparse vs dense:
``tests/core/test_sparse_mask.py``), and the padded full-length decode
is a direct ``model(batch, log_mask, teacher_forcing=False)`` under
``no_grad`` (packed == padded bitwise on valid steps:
``tests/serving/test_decode_session.py``).  At the program level the
padded decode is :func:`padded_decode`: every row of one working set
stepped for the full horizon, no sorting, no compaction, no blocks —
the oracle of the engine's time-major plan
(``tests/serving/test_decode_plan.py``).

Lives next to ``index_oracle.py`` so every test directory (and the
slow hot-path benchmark, which appends this directory to ``sys.path``)
can import it.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.core.lte import LTEModel
from repro.core.mask import SparseConstraintMask
from repro.nn.dtypes import get_compute_dtype
from repro.nn import loss as loss_module
from repro.nn.functional import stack
from repro.nn.layers import Linear
from repro.nn.recurrent import _SequenceRNN

__all__ = ["reference_kernels", "padded_decode"]


def _sequence_forward_stepwise(self, x, h0=None, mask=None):
    """One cell call (one tape-node chain) per timestep."""
    if x.ndim != 3:
        raise ValueError(f"expected (B, T, D) input, got shape {x.shape}")
    batch, steps, _ = x.shape
    h = h0 if h0 is not None else self.cell.initial_state(batch)
    outputs = []
    for t in range(steps):
        h_next = self.cell(x[:, t, :], h)
        if mask is not None:
            keep = mask[:, t : t + 1].astype(x.data.dtype)
            h = h_next * keep + h * (1.0 - keep)
        else:
            h = h_next
        outputs.append(h)
    return stack(outputs, axis=1), h


def _linear_matmul_add(self, x):
    """Matmul and bias add as two separate tape nodes."""
    out = x @ self.weight
    if self.bias is not None:
        out = out + self.bias
    return out


def _fancy_index_pick(log_probs, targets):
    """One log-probability per row through a fancy-index tape node."""
    return log_probs[np.arange(log_probs.shape[0]), targets]


def _lte_forward_stepwise(self, batch, log_mask, teacher_forcing=True):
    """LTE decode through the per-step tape loop in every mode."""
    self._validate_mask(log_mask, batch, self.config.num_segments)
    h = self.encode(batch)
    extras = self._step_extras(batch)
    if isinstance(log_mask, SparseConstraintMask):
        log_mask = log_mask.to_dense()
    return self._forward_stepwise(batch, log_mask, h, extras, teacher_forcing)


def _no_decode_program(self, batch, log_mask):
    return None


_PATCHES = (
    (_SequenceRNN, "forward", _sequence_forward_stepwise),
    (Linear, "forward", _linear_matmul_add),
    (loss_module, "gather_rows", _fancy_index_pick),
    (LTEModel, "forward", _lte_forward_stepwise),
    (LTEModel, "decode_program", _no_decode_program),
)


@contextlib.contextmanager
def reference_kernels(enabled: bool = True):
    """Run the block on the per-step reference kernels.

    Patches the sequence wrappers' forward, ``Linear.forward``, the loss
    pick, ``LTEModel.forward`` and ``LTEModel.decode_program``; the
    fused implementations are restored on exit, also on error.
    ``enabled=False`` patches nothing, so a test parametrized over both
    paths can write ``with reference_kernels(not fused):``.
    """
    if not enabled:
        yield
        return
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in _PATCHES]
    try:
        for owner, name, reference in _PATCHES:
            setattr(owner, name, reference)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def padded_decode(program, batch, lengths) -> tuple:
    """Greedy decode of every row of ``program`` for all ``num_steps``
    steps in one working set; returns ``(log_probs, ratios, segments)``
    zeroed beyond each row's length, the layout of
    :class:`repro.serving.PackedDecodeResult`.

    A one-row program runs with a duplicate of its row (the engine's
    self-ballast), so every step is a GEMM over at least two rows.
    """
    b, steps = program.num_rows, program.num_steps
    rows = np.arange(max(b, 2)) % b
    state = program.select_rows(program.initial_state(), rows)
    prev_segments = batch.tgt_segments[rows, 0]
    prev_ratios = batch.tgt_ratios[rows, 0]
    dtype = get_compute_dtype()
    log_probs = np.zeros((b, steps, program.num_classes), dtype=dtype)
    ratios = np.zeros((b, steps), dtype=dtype)
    segments = np.zeros((b, steps), dtype=np.int64)
    for t in range(steps):
        constants = program.constants_at(program.row_tables(),
                                         rows * steps + t)
        state, step_logs = program.advance_on(state, constants,
                                              prev_segments, prev_ratios)
        step_segments = np.argmax(step_logs, axis=-1).astype(np.int64)
        step_ratios = program.emit(state, step_segments)
        log_probs[:, t] = step_logs[:b]
        segments[:, t] = step_segments[:b]
        ratios[:, t] = step_ratios[:b]
        observed = batch.observed_flags[rows, t]
        prev_segments = np.where(observed, batch.tgt_segments[rows, t],
                                 step_segments)
        prev_ratios = np.where(observed, batch.tgt_ratios[rows, t],
                               np.clip(step_ratios, 0.0, 1.0))
    padding = np.arange(steps) >= np.asarray(lengths)[:, None]
    log_probs[padding] = 0.0
    ratios[padding] = 0.0
    segments[padding] = 0
    return log_probs, ratios, segments
