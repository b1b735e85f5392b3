"""Decode programs: per-model adapters the engine steps.

A program bundles everything one packed decode run needs — the raw
per-row decoder state, the per-row constants (auxiliary step features,
the constraint mask, encoder states), and the model's step math on raw
arrays — behind the protocol :class:`~repro.serving.DecodeSession`
drives (see that module's docstring).  Three programs cover every
autoregressive model in the repo, replacing what used to be three
near-duplicate per-model inference loops:

* :class:`STDecodeProgram` — LightTR's lightweight ST-operator
  (:class:`~repro.core.st_block.LightweightSTOperator`), consuming
  dense *or* CSR-sparse constraint masks;
* :class:`StackedRNNDecodeProgram` — the RNN+FL baseline's stacked
  Elman decoder with independent segment/ratio heads;
* :class:`AttnDecodeProgram` — the MTrajRec/RNTrajRec shape: additive
  attention over the encoder states feeding a GRU cell and the
  multi-task head (RNTrajRec differs only in the segment-embedding
  table it passes, the GCN-refined one).

Every step mirrors the corresponding tape path operation by operation
(same expressions, same association), so packed decode reproduces the
per-row bit patterns of the padded loops; all state is kept as raw
arrays and ``select_rows`` is a pure gather, which is what makes
active-row compaction cheap.

Mux protocol (live admission)
-----------------------------
On top of the stepping protocol every program implements the *mux*
extension :class:`~repro.serving.LiveDecodeSet` drives, which factors
``advance`` into a per-row-constants gather and a pure batched step so
rows from **different** programs (different requests, different padded
widths) can share one kernel pass:

``mux_key()``
    Hashable compatibility key.  Two programs may be joined iff their
    keys are equal: same program family, same owning model modules (by
    identity — one frozen model per live set), same per-row state
    geometry (e.g. the attention programs' encoder width ``To``), and
    the same mask representation.
``step_constants(rows, t)``
    The per-row constants ``advance`` would slice at ``(rows, t)`` —
    each entry gathers these at its *own* clock ``t``.
``join_constants(parts)`` / ``join_states(states)``
    Row-concatenate constants / states from mux-compatible programs.
``advance_on(state, constants, prev_segments, prev_ratios)``
    The batched step on pre-gathered constants; ``advance`` is
    literally ``advance_on(state, step_constants(rows, t), ...)``, so
    the joined step runs the exact expressions of every solo step and
    concat/split is bitwise-neutral (all step math is batched GEMM +
    row-local elementwise).
"""

from __future__ import annotations

import numpy as np

from ..nn.functional import row_dot
from ..nn.kernels import call_kernel

__all__ = ["STDecodeProgram", "StackedRNNDecodeProgram", "AttnDecodeProgram"]


def _sparse_mask_step_ref(log_mask, t: int, rows: np.ndarray):
    return log_mask.step(t, rows)


def _mask_step(log_mask, t: int, rows: np.ndarray):
    """Slice decode step ``t`` of the mask over the compacted ``rows``.

    Real CSR batch masks run through the ``"sparse_mask_step"`` hot
    kernel.
    """
    if isinstance(log_mask, np.ndarray):
        return log_mask[rows, t, :]
    if log_mask.identity or len(log_mask.shape) != 3:
        return log_mask.step(t, rows)
    return call_kernel("sparse_mask_step", _sparse_mask_step_ref,
                       log_mask, t, rows)


def _mask_kind(log_mask) -> tuple:
    """Mux-compatibility tag of a mask representation.

    Dense arrays, CSR sparse masks, and identity (disabled) masks step
    to different types, so only like-kinded masks can be joined.
    """
    if isinstance(log_mask, np.ndarray):
        return ("dense", log_mask.dtype.str)
    if log_mask.identity:
        return ("identity", log_mask.shape[-1])
    return ("sparse", float(log_mask.floor), log_mask.log_values.dtype.str,
            log_mask.shape[-1])


def _join_mask_parts(parts: list):
    """Row-concatenate per-entry mask steps (dense or duck-typed sparse)."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    # Sparse step masks join through their own class (duck-typed so this
    # module never imports repro.core, which imports serving at load).
    return type(parts[0]).concat_rows(parts)


def _dense_log_softmax(masked: np.ndarray) -> np.ndarray:
    """Raw mirror of the tape ``log_softmax`` (same expressions,
    including the float64 normaliser accumulation)."""
    shifted = masked - masked.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True,
                                           dtype=np.float64))
    return shifted


def _relu(x: np.ndarray) -> np.ndarray:
    """Raw mirror of ``Tensor.relu`` (``x * (x > 0)``)."""
    return x * (x > 0)


class _State:
    """One working set's decoder state (arrays compacted in lockstep)."""

    __slots__ = ("arrays", "cache")

    def __init__(self, arrays: list[np.ndarray], cache: np.ndarray | None = None):
        self.arrays = arrays  # per-row state, gathered by select_rows
        self.cache = cache  # advance -> emit carry (not gathered)


class STDecodeProgram:
    """LTE decode: the ST-operator's compacted-state step kernels."""

    def __init__(self, operator, h0: np.ndarray, extras: np.ndarray,
                 log_mask):
        self.operator = operator
        self._h0 = h0  # (B, H) encoder state
        self._extras = extras  # (B, T, extra_inputs)
        self._mask = log_mask  # dense (B, T, S) or SparseConstraintMask
        self.num_rows = int(extras.shape[0])
        self.num_steps = int(extras.shape[1])
        self.num_classes = int(operator.num_segments)

    def initial_state(self) -> _State:
        return _State([self._h0 for _ in range(self.operator.num_blocks)])

    def select_rows(self, state: _State, keep: np.ndarray) -> _State:
        return _State([h[keep] for h in state.arrays])

    def mux_key(self) -> tuple:
        return ("st", id(self.operator), int(self._extras.shape[-1]),
                _mask_kind(self._mask))

    def step_constants(self, rows: np.ndarray, t: int) -> tuple:
        return (self._extras[rows, t], _mask_step(self._mask, t, rows))

    def join_constants(self, parts: list) -> tuple:
        return (np.concatenate([p[0] for p in parts]),
                _join_mask_parts([p[1] for p in parts]))

    def join_states(self, states: list) -> _State:
        return _State([np.concatenate(arrays)
                       for arrays in zip(*(s.arrays for s in states))])

    def advance_on(self, state: _State, constants: tuple,
                   prev_segments: np.ndarray, prev_ratios: np.ndarray
                   ) -> tuple[_State, np.ndarray]:
        extras, mask_t = constants
        states, h_d, log_probs = self.operator.step_advance(
            state.arrays, prev_segments, prev_ratios, extras, mask_t,
        )
        return _State(states, h_d), log_probs

    def advance(self, state: _State, rows: np.ndarray, t: int,
                prev_segments: np.ndarray, prev_ratios: np.ndarray
                ) -> tuple[_State, np.ndarray]:
        return self.advance_on(state, self.step_constants(rows, t),
                               prev_segments, prev_ratios)

    def emit(self, state: _State, segments: np.ndarray) -> np.ndarray:
        return self.operator.step_emit(state.cache, segments)


class StackedRNNDecodeProgram:
    """RNN+FL decode: stacked Elman cells, independent linear heads.

    The ratio head reads the top cell state directly (it does not
    depend on the emitted segment), so ratios are computed in
    ``advance`` and ``emit`` just returns them.
    """

    def __init__(self, seg_table: np.ndarray, cells, seg_head, ratio_head,
                 h0: np.ndarray, extras: np.ndarray, log_mask: np.ndarray):
        self._seg_table = seg_table  # (S, E) embedding rows
        self._cells = list(cells)
        self._seg_head = seg_head
        self._ratio_head = ratio_head
        self._h0 = h0
        self._extras = extras
        self._mask = log_mask
        self.num_rows = int(extras.shape[0])
        self.num_steps = int(extras.shape[1])
        self.num_classes = int(seg_head.out_features)

    def initial_state(self) -> _State:
        return _State([self._h0 for _ in self._cells])

    def select_rows(self, state: _State, keep: np.ndarray) -> _State:
        return _State([h[keep] for h in state.arrays])

    def mux_key(self) -> tuple:
        return ("rnn", id(self._seg_head), len(self._cells),
                int(self._extras.shape[-1]), _mask_kind(self._mask))

    def step_constants(self, rows: np.ndarray, t: int) -> tuple:
        return (self._extras[rows, t], _mask_step(self._mask, t, rows))

    def join_constants(self, parts: list) -> tuple:
        return (np.concatenate([p[0] for p in parts]),
                _join_mask_parts([p[1] for p in parts]))

    def join_states(self, states: list) -> _State:
        return _State([np.concatenate(arrays)
                       for arrays in zip(*(s.arrays for s in states))])

    def advance_on(self, state: _State, constants: tuple,
                   prev_segments: np.ndarray, prev_ratios: np.ndarray
                   ) -> tuple[_State, np.ndarray]:
        extras, mask_t = constants
        z = np.concatenate(
            [self._seg_table[prev_segments], prev_ratios[:, None], extras],
            axis=-1,
        )
        states: list[np.ndarray] = []
        for cell, h in zip(self._cells, state.arrays):
            z = cell.step_array(z, h)
            states.append(z)
        logits = z @ self._seg_head.weight.data
        log_probs = _dense_log_softmax(logits + mask_t)
        ratios = _relu(row_dot(z, self._ratio_head.weight.data)
                       + self._ratio_head.bias.data)
        return _State(states, ratios), log_probs

    def advance(self, state: _State, rows: np.ndarray, t: int,
                prev_segments: np.ndarray, prev_ratios: np.ndarray
                ) -> tuple[_State, np.ndarray]:
        return self.advance_on(state, self.step_constants(rows, t),
                               prev_segments, prev_ratios)

    def emit(self, state: _State, segments: np.ndarray) -> np.ndarray:
        return state.cache


class AttnDecodeProgram:
    """MTrajRec/RNTrajRec decode: additive attention + GRU + MT head.

    ``seg_table`` is the raw segment-embedding table the decoder feeds
    back — the plain embedding weight for MTrajRec, the GCN-refined
    table for RNTrajRec (computed once per session; it is constant
    during decoding).  The attention key projection is hoisted out of
    the step loop (:meth:`AdditiveAttention.project_keys`).
    """

    def __init__(self, seg_table: np.ndarray, attention, cell, dense_d,
                 seg_head, emb_proj, ratio_head, h0: np.ndarray,
                 encoder_states: np.ndarray, obs_mask: np.ndarray,
                 extras: np.ndarray, log_mask: np.ndarray):
        self._seg_table = seg_table
        self._attention = attention
        self._cell = cell
        self._dense_d = dense_d
        self._seg_head = seg_head
        self._emb_proj = emb_proj
        self._ratio_head = ratio_head
        self._h0 = h0  # (B, H)
        self._keys = encoder_states  # (B, To, H)
        self._keys_proj = attention.project_keys(encoder_states)
        self._obs_mask = np.asarray(obs_mask, dtype=bool)
        self._extras = extras
        self._mask = log_mask
        self.num_rows = int(extras.shape[0])
        self.num_steps = int(extras.shape[1])
        self.num_classes = int(seg_head.out_features)

    def initial_state(self) -> _State:
        return _State([self._h0, self._keys, self._keys_proj, self._obs_mask])

    def select_rows(self, state: _State, keep: np.ndarray) -> _State:
        return _State([a[keep] for a in state.arrays])

    def mux_key(self) -> tuple:
        # ``To`` (the padded encoder width) is part of the key: the
        # per-row attention reductions run over a row's full key axis,
        # and zero-extending that axis is *not* bitwise-stable, so only
        # equal-width encoder states may share a working set.
        return ("attn", id(self._cell), int(self._keys.shape[1]),
                int(self._keys.shape[2]), int(self._extras.shape[-1]),
                _mask_kind(self._mask))

    def step_constants(self, rows: np.ndarray, t: int) -> tuple:
        return (self._extras[rows, t], _mask_step(self._mask, t, rows))

    def join_constants(self, parts: list) -> tuple:
        return (np.concatenate([p[0] for p in parts]),
                _join_mask_parts([p[1] for p in parts]))

    def join_states(self, states: list) -> _State:
        return _State([np.concatenate(arrays)
                       for arrays in zip(*(s.arrays for s in states))])

    def advance_on(self, state: _State, constants: tuple,
                   prev_segments: np.ndarray, prev_ratios: np.ndarray
                   ) -> tuple[_State, np.ndarray]:
        extras, mask_t = constants
        h, keys, keys_proj, obs_mask = state.arrays
        context = self._attention.step_array(h, keys, keys_proj, obs_mask)
        z = np.concatenate(
            [self._seg_table[prev_segments], prev_ratios[:, None],
             extras, context], axis=-1,
        )
        h = self._cell.step_array(z, h)
        h_d = h @ self._dense_d.weight.data + self._dense_d.bias.data
        logits = h_d @ self._seg_head.weight.data
        log_probs = _dense_log_softmax(logits + mask_t)
        return _State([h, keys, keys_proj, obs_mask], h_d), log_probs

    def advance(self, state: _State, rows: np.ndarray, t: int,
                prev_segments: np.ndarray, prev_ratios: np.ndarray
                ) -> tuple[_State, np.ndarray]:
        return self.advance_on(state, self.step_constants(rows, t),
                               prev_segments, prev_ratios)

    def emit(self, state: _State, segments: np.ndarray) -> np.ndarray:
        seg_emb = self._seg_table[segments]
        h_e = _relu(state.cache + (seg_emb @ self._emb_proj.weight.data
                                   + self._emb_proj.bias.data))
        return _relu(
            row_dot(np.concatenate([h_e, seg_emb], axis=-1),
                    self._ratio_head.weight.data)
            + self._ratio_head.bias.data
        )
