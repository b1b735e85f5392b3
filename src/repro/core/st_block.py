"""The lightweight ST-operator (paper Section IV-B2, Eq. 7-9).

One ST-block = a single RNN layer whose cell output feeds a pure-MLP
multi-task (MT) head that predicts the road segment ``e_t`` (through a
dense layer + constraint mask, Eq. 11) and the moving ratio ``r_t``
(dense over the concatenation of the enriched hidden state and the
segment embedding, Eq. 8) simultaneously.  The predicted ``(e_t, r_t)``
are fed back as the next step's input (Eq. 9), so spatial decisions
propagate temporally without any attention or convolution - this is
what makes the operator "lightweight" (Table II's O(N(L+D)) row).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.kernels import call_kernel
from ..nn.tensor import Tensor

__all__ = ["LightweightSTOperator", "STStepOutput"]


class STStepOutput:
    """Outputs of one decoding step."""

    __slots__ = ("hidden", "log_probs", "segments", "ratios")

    def __init__(self, hidden: Tensor, log_probs: Tensor,
                 segments: np.ndarray, ratios: Tensor):
        self.hidden = hidden  # (B, H) next recurrent state
        self.log_probs = log_probs  # (B, S) masked log probabilities
        self.segments = segments  # (B,) argmax segment ids (int64)
        self.ratios = ratios  # (B,) predicted moving ratios


class LightweightSTOperator(nn.Module):
    """RNN + MLP multi-task head over the segment vocabulary.

    Parameters
    ----------
    num_segments:
        Size of the road-segment vocabulary (classifier width).
    seg_emb_dim:
        Dimension of the road-segment embedding (Eq. 8's Emb layer).
    hidden_size:
        Recurrent state width.
    extra_inputs:
        Width of additional per-step features (step fraction, guide
        position, observed flag) concatenated into the cell input.
    num_blocks:
        Number of stacked RNN cells (the paper stacks ST-blocks; the MT
        head reads the top cell's state).
    """

    def __init__(self, num_segments: int, seg_emb_dim: int, hidden_size: int,
                 rng: np.random.Generator, extra_inputs: int = 4,
                 num_blocks: int = 2):
        super().__init__()
        if num_blocks < 1:
            raise ValueError("need at least one ST-block")
        self.num_segments = num_segments
        self.hidden_size = hidden_size
        self.num_blocks = num_blocks

        step_input = seg_emb_dim + 1 + extra_inputs  # prev emb + prev ratio + extras
        self.seg_embedding = nn.Embedding(num_segments, seg_emb_dim, rng)
        cells = [nn.RNNCell(step_input, hidden_size, rng)]
        for _ in range(num_blocks - 1):
            cells.append(nn.RNNCell(hidden_size, hidden_size, rng))
        self.cells = nn.ModuleList(cells)

        # MT head (Eq. 8): Dense -> (mask) -> segment; Emb enrich -> ratio.
        self.dense_d = nn.Linear(hidden_size, hidden_size, rng)
        self.seg_head = nn.Linear(hidden_size, num_segments, rng, bias=False)
        self.emb_proj = nn.Linear(seg_emb_dim, hidden_size, rng)
        self.ratio_head = nn.Linear(hidden_size + seg_emb_dim, 1, rng)

    def step(self, hidden_states: list[Tensor], prev_segments: np.ndarray,
             prev_ratios: Tensor, extras: np.ndarray,
             log_mask_t: np.ndarray) -> tuple[list[Tensor], STStepOutput]:
        """Run one decoding step.

        Parameters
        ----------
        hidden_states:
            Per-block recurrent states, each ``(B, H)``.
        prev_segments:
            ``(B,)`` previous road segment ids (ground truth under
            teacher forcing; model predictions at inference).
        prev_ratios:
            ``(B,)`` previous moving ratios as a tensor.
        extras:
            ``(B, extra_inputs)`` auxiliary step features.
        log_mask_t:
            ``(B, S)`` constraint-mask log weights for this timestep.

        Returns
        -------
        (next_hidden_states, STStepOutput)
        """
        prev_emb = self.seg_embedding(prev_segments)  # (B, E)
        x = nn.concat(
            [prev_emb, prev_ratios.reshape(-1, 1), nn.Tensor(extras)], axis=-1
        )
        next_states: list[Tensor] = []
        for cell, h in zip(self.cells, hidden_states):
            x = cell(x, h)
            next_states.append(x)
        h_prime = x  # top block state (Eq. 7's h'_t)

        h_d = self.dense_d(h_prime)  # (B, H)
        logits = self.seg_head(h_d)  # (B, S)
        masked = logits + nn.Tensor(log_mask_t)  # Eq. 11 in log space
        log_probs = nn.log_softmax(masked, axis=-1)
        segments = np.argmax(log_probs.data, axis=-1).astype(np.int64)

        seg_emb = self.seg_embedding(segments)  # (B, E), detached ids
        h_e = (h_d + self.emb_proj(seg_emb)).relu()  # Eq. 8 Emb step
        ratios = self.ratio_head(nn.concat([h_e, seg_emb], axis=-1)).relu()
        return next_states, STStepOutput(
            hidden=h_prime, log_probs=log_probs,
            segments=segments, ratios=ratios.reshape(-1),
        )

    def forward_teacher_forced(self, initial_states: list[Tensor],
                               prev_segments: np.ndarray,
                               prev_ratios: np.ndarray,
                               extras: np.ndarray,
                               log_mask: np.ndarray
                               ) -> tuple[Tensor, Tensor, np.ndarray]:
        """Fused decode of the whole sequence under teacher forcing.

        With teacher forcing the per-step inputs (previous ground-truth
        segment/ratio and the auxiliary features) are known up front, so
        the recurrence collapses to one fused RNN scan per block and the
        MT head applies to all ``(B, T)`` positions in a handful of
        batched ops — one embedding lookup, one masked log-softmax over
        ``(B, T, S)``, two dense layers — instead of ``T`` per-step
        closures.  Numerically equivalent to driving :meth:`step`.

        Parameters
        ----------
        initial_states:
            Per-block initial recurrent states, each ``(B, H)``.
        prev_segments:
            ``(B, T)`` previous ground-truth segment ids per step.
        prev_ratios:
            ``(B, T)`` previous ground-truth moving ratios per step.
        extras:
            ``(B, T, extra_inputs)`` auxiliary step features.
        log_mask:
            ``(B, T, S)`` constraint-mask log weights — dense array or
            :class:`~repro.core.mask.SparseConstraintMask` (the masked
            log-softmax then runs over active indices only).

        Returns
        -------
        (log_probs, ratios, segments):
            ``(B, T, S)`` masked log-probabilities, ``(B, T)`` predicted
            ratios, and ``(B, T)`` argmax segment ids.
        """
        batch, steps = prev_segments.shape
        prev_emb = self.seg_embedding(prev_segments)  # (B, T, E)
        x = nn.concat(
            [prev_emb, Tensor(prev_ratios[..., None]), Tensor(extras)], axis=-1
        )
        for cell, h0 in zip(self.cells, initial_states):
            x = cell.scan(x, h0)  # (B, T, H) fused BPTT node
        h_prime = x  # top block states (Eq. 7's h'_t for every t)

        h_d = self.dense_d(h_prime)  # (B, T, H)
        logits = self.seg_head(h_d)  # (B, T, S)
        log_probs = nn.masked_log_softmax(logits, log_mask)  # Eq. 11
        segments = np.argmax(log_probs.data, axis=-1).astype(np.int64)

        seg_emb = self.seg_embedding(segments)  # (B, T, E), detached ids
        h_e = (h_d + self.emb_proj(seg_emb)).relu()  # Eq. 8 Emb step
        ratios = self.ratio_head(nn.concat([h_e, seg_emb], axis=-1)).relu()
        return log_probs, ratios.reshape(batch, steps), segments

    def step_advance(self, hidden_states: list[np.ndarray],
                     prev_segments: np.ndarray, prev_ratios: np.ndarray,
                     extras: np.ndarray, log_mask_t: np.ndarray
                     ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Advance the recurrent state one step and score the vocabulary.

        The first half of a tape-free decode step (compacted-state step
        API): runs the stacked cells and the segment head over whatever
        subset of batch rows ``hidden_states`` holds, without choosing a
        segment — that is the emission policy's job
        (:mod:`repro.serving`).  ``log_mask_t`` is either a dense
        ``(B, S)`` array or a per-step ``(B, S)`` sparse mask (from
        :meth:`SparseConstraintMask.step`), in which case the masked
        log-softmax runs over active indices only.  Returns
        ``(next_states, h_d, log_probs)``; feed ``h_d`` and the chosen
        segments to :meth:`step_emit` for the moving ratios.
        """
        return call_kernel("st_decode_step", _st_decode_step_ref, self,
                           hidden_states, prev_segments, prev_ratios,
                           extras, log_mask_t)

    def step_emit(self, h_d: np.ndarray, segments: np.ndarray) -> np.ndarray:
        """Moving ratios for the chosen ``segments`` (second half of a
        tape-free decode step; Eq. 8's Emb enrichment on raw arrays).

        The single-output ratio head goes through
        :func:`repro.nn.row_dot` so its bits do not depend on how many
        rows the decode engine's working set currently holds.
        """
        emb_w = self.seg_embedding.weight.data
        seg_emb = emb_w[segments]
        h_e = np.maximum(
            h_d + seg_emb @ self.emb_proj.weight.data + self.emb_proj.bias.data,
            0.0,
        )
        return np.maximum(
            nn.row_dot(np.concatenate([h_e, seg_emb], axis=1),
                       self.ratio_head.weight.data)
            + self.ratio_head.bias.data,
            0.0,
        )

    def initial_states(self, encoder_state: Tensor) -> list[Tensor]:
        """Per-block initial recurrent states seeded by the encoder."""
        return [encoder_state for _ in range(self.num_blocks)]


def _st_decode_step_ref(operator, hidden_states, prev_segments, prev_ratios,
                        extras, log_mask_t):
    """Kernel ``"st_decode_step"``: one tape-free decode-step advance."""
    emb_w = operator.seg_embedding.weight.data
    x = np.concatenate(
        [emb_w[prev_segments], prev_ratios[:, None], extras], axis=1
    )
    next_states: list[np.ndarray] = []
    for cell, h in zip(operator.cells, hidden_states):
        x = np.tanh(x @ cell.w_x.data + h @ cell.w_h.data + cell.bias.data)
        next_states.append(x)

    h_d = x @ operator.dense_d.weight.data + operator.dense_d.bias.data
    logits = h_d @ operator.seg_head.weight.data
    if operator.seg_head.bias is not None:
        logits += operator.seg_head.bias.data
    if not isinstance(log_mask_t, np.ndarray):
        return next_states, h_d, nn.sparse_masked_log_probs(logits, log_mask_t)
    # Raw mirror of the tape masked_log_softmax, including its float64
    # normaliser accumulation (rounded back in place at reduced compute
    # dtypes), so packed decode reproduces the tape path's bits at any
    # precision.
    if log_mask_t.dtype != logits.dtype:
        log_mask_t = log_mask_t.astype(logits.dtype)
    masked = logits + log_mask_t
    shifted = masked - masked.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True,
                                            dtype=np.float64))
    return next_states, h_d, shifted
