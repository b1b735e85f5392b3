"""LTE - the Lightweight Trajectory Embedding model (paper Section IV-B).

Architecture (Figure 3):

* **Embedding model**: grid-cell embeddings of the observed points plus
  time-index features go through a GRU (Eq. 5-6); the final state is the
  trajectory embedding ``h``.
* **ST-blocks**: the :class:`~repro.core.st_block.LightweightSTOperator`
  decodes the complete trajectory step by step, predicting the road
  segment and moving ratio of every point (Eq. 7-9) under the
  constraint mask (Eq. 10-11).

The model is used as both the *student* (local model) and the *teacher*
(meta-learner) in the meta-knowledge training scheme (Section IV-C).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.dataset import Batch
from ..nn.tensor import Tensor
from ..serving.engine import DecodeSession
from ..serving.programs import STDecodeProgram
from .base import ModelOutput, RecoveryModel, RecoveryModelConfig
from .mask import SparseConstraintMask
from .st_block import LightweightSTOperator

__all__ = ["LTEConfig", "LTEModel"]

# The LTE model shares the generic recovery-model hyper-parameters.
LTEConfig = RecoveryModelConfig


class LTEModel(RecoveryModel):
    """The LightTR local model: GRU encoder + lightweight ST-operator."""

    #: number of auxiliary features fed to each decode step
    EXTRA_INPUTS = 4

    #: Both fused decode paths consume CSR constraint masks natively
    #: (the grad-enabled autoregressive loop densifies them on entry).
    supports_sparse_mask = True

    def __init__(self, config: RecoveryModelConfig, rng: np.random.Generator):
        super().__init__(config)
        self.cell_embedding = nn.Embedding(config.num_cells, config.cell_emb_dim, rng)
        self.cell_embedding.decode_side = False  # encoder-side (flops walk)
        self.embed_dropout = nn.Dropout(config.dropout, rng) if config.dropout else None
        encoder_cls = {"gru": nn.GRU, "lstm": nn.LSTM, "rnn": nn.RNN}[config.encoder]
        self.encoder = encoder_cls(config.cell_emb_dim + 2, config.hidden_size, rng)
        self.st_operator = LightweightSTOperator(
            num_segments=config.num_segments,
            seg_emb_dim=config.seg_emb_dim,
            hidden_size=config.hidden_size,
            rng=rng,
            extra_inputs=self.EXTRA_INPUTS,
            num_blocks=config.num_st_blocks,
        )

    def encode(self, batch: Batch) -> Tensor:
        """Embed the observed (incomplete) trajectory into ``(B, H)``."""
        emb = self.cell_embedding(batch.obs_cells)  # (B, To, E)
        if self.embed_dropout is not None:
            emb = self.embed_dropout(emb)
        x = nn.concat([emb, nn.Tensor(batch.obs_feats)], axis=-1)
        _, h = self.encoder(x, mask=batch.obs_mask)
        return h

    def forward(self, batch: Batch, log_mask: np.ndarray,
                teacher_forcing: bool = True) -> ModelOutput:
        """Recover the complete trajectory.

        Parameters
        ----------
        batch:
            Padded mini-batch.
        log_mask:
            Constraint-mask log weights ``(B, T, S)`` from
            :class:`~repro.core.mask.ConstraintMaskBuilder` — either the
            dense array of :meth:`~ConstraintMaskBuilder.build` or the
            CSR :class:`~repro.core.mask.SparseConstraintMask` of
            :meth:`~ConstraintMaskBuilder.build_sparse`; the fused
            decode paths then restrict the masked log-softmax to each
            row's active segments.
        teacher_forcing:
            During training, feed ground-truth previous points into each
            step; at inference, feed the model's own predictions (with
            observed points clamped to their known values - they are
            inputs, not predictions).

        Teacher forcing runs the fused whole-sequence decode; inference
        under ``no_grad`` runs the tape-free engine decode.  Only
        autoregressive decode with gradients enabled (its feedback
        depends on each step's argmax) steps the per-step tape loop.
        """
        self._validate_mask(log_mask, batch, self.config.num_segments)
        h = self.encode(batch)
        extras = self._step_extras(batch)

        if teacher_forcing:
            return self._forward_teacher_forced_fused(batch, log_mask, h,
                                                      extras)
        if not nn.is_grad_enabled():
            return self._forward_inference_fused(batch, log_mask, h, extras)
        if isinstance(log_mask, SparseConstraintMask):
            # The per-step tape loop indexes the mask densely.
            log_mask = log_mask.to_dense()
        return self._forward_stepwise(batch, log_mask, h, extras,
                                      teacher_forcing=False)

    def _forward_teacher_forced_fused(self, batch: Batch, log_mask: np.ndarray,
                                      h: Tensor, extras: np.ndarray
                                      ) -> ModelOutput:
        """Whole-sequence decode: ground-truth inputs are known up front."""
        # Step t consumes the ground truth of step t-1 (step 0 is observed).
        prev_segments = np.concatenate(
            [batch.tgt_segments[:, :1], batch.tgt_segments[:, :-1]], axis=1
        )
        prev_ratios = np.concatenate(
            [batch.tgt_ratios[:, :1], batch.tgt_ratios[:, :-1]], axis=1
        )
        log_probs, ratios, segments = self.st_operator.forward_teacher_forced(
            self.st_operator.initial_states(h), prev_segments, prev_ratios,
            extras, log_mask,
        )
        return ModelOutput(log_probs=log_probs, ratios=ratios, segments=segments)

    def decode_program(self, batch: Batch, log_mask) -> STDecodeProgram:
        """The serving engine's adapter over the ST-operator step kernels.

        Consumes dense or CSR-sparse constraint masks natively.
        """
        self._validate_mask(log_mask, batch, self.config.num_segments)
        h = self.encode(batch)
        return STDecodeProgram(self.st_operator, h.data,
                               self._step_extras(batch), log_mask)

    def _forward_inference_fused(self, batch: Batch, log_mask: np.ndarray,
                                 h: Tensor, extras: np.ndarray) -> ModelOutput:
        """Tape-free autoregressive decode (predictions feed back).

        One :class:`~repro.serving.DecodeSession` run over the full
        padded horizon — the same engine the serving layer drives with
        ragged lengths, here with no compaction so the output covers
        every ``(B, T)`` position like the tape paths do.
        """
        program = STDecodeProgram(self.st_operator, h.data, extras, log_mask)
        result = DecodeSession().run(program, batch)
        return ModelOutput(log_probs=nn.Tensor(result.log_probs),
                           ratios=nn.Tensor(result.ratios),
                           segments=result.segments)

    def _forward_stepwise(self, batch: Batch, log_mask: np.ndarray, h: Tensor,
                          extras: np.ndarray, teacher_forcing: bool
                          ) -> ModelOutput:
        """Per-step tape decode driving :meth:`LightweightSTOperator.step`.

        The grad-enabled autoregressive path; under teacher forcing it
        is the test oracle of the fused whole-sequence decode.
        """
        b, t = batch.tgt_segments.shape
        states = self.st_operator.initial_states(h)
        prev_segments = batch.tgt_segments[:, 0].copy()  # index 0 is observed
        prev_ratios: Tensor = nn.Tensor(batch.tgt_ratios[:, 0].copy())

        step_logs: list[Tensor] = []
        step_ratios: list[Tensor] = []
        step_segments: list[np.ndarray] = []
        for step in range(t):
            states, out = self.st_operator.step(
                states, prev_segments, prev_ratios, extras[:, step],
                log_mask[:, step, :]
            )
            step_logs.append(out.log_probs)
            step_ratios.append(out.ratios)
            step_segments.append(out.segments)

            if teacher_forcing:
                prev_segments = batch.tgt_segments[:, step]
                prev_ratios = nn.Tensor(batch.tgt_ratios[:, step])
            else:
                observed = batch.observed_flags[:, step]
                prev_segments = np.where(observed, batch.tgt_segments[:, step],
                                         out.segments)
                clamped = np.where(observed, batch.tgt_ratios[:, step],
                                   np.clip(out.ratios.data, 0.0, 1.0))
                prev_ratios = nn.Tensor(clamped)

        return ModelOutput(
            log_probs=nn.stack(step_logs, axis=1),
            ratios=nn.stack(step_ratios, axis=1),
            segments=np.stack(step_segments, axis=1),
        )
