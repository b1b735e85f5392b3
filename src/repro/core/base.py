"""Shared interface for every trajectory recovery model in the repo.

LightTR's LTE model and all four federated baselines (FC, RNN,
MTrajRec, RNTrajRec) implement the same contract so that a single
trainer, federated loop, and metric pipeline serve them all:

* ``forward(batch, log_mask, teacher_forcing)`` returns a
  :class:`ModelOutput` with per-step segment log-probabilities, moving
  ratios, and argmax segment ids;
* ``loss(output, batch, mu)`` is the paper's multi-task objective
  ``L1 + mu * L2`` (Eq. 13-15), shared across models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.dataset import Batch
from ..nn.tensor import Tensor
from ..serving.engine import DecodeSession

__all__ = ["ModelOutput", "RecoveryModel", "RecoveryModelConfig"]


@dataclass(frozen=True)
class RecoveryModelConfig:
    """Hyper-parameters shared by all recovery models."""

    num_cells: int
    num_segments: int
    cell_emb_dim: int = 24
    seg_emb_dim: int = 24
    hidden_size: int = 64
    num_st_blocks: int = 2
    dropout: float = 0.1
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    encoder: str = "gru"  # "gru" (paper), "lstm", or "rnn" (ablations)

    def __post_init__(self):
        if self.num_cells < 1 or self.num_segments < 1:
            raise ValueError("vocabulary sizes must be positive")
        if self.hidden_size < 1:
            raise ValueError("hidden size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.encoder not in ("gru", "lstm", "rnn"):
            raise ValueError(f"unknown encoder {self.encoder!r}")


class ModelOutput:
    """Forward-pass outputs over a batch."""

    __slots__ = ("log_probs", "ratios", "segments")

    def __init__(self, log_probs: Tensor, ratios: Tensor, segments: np.ndarray):
        self.log_probs = log_probs  # (B, T, S)
        self.ratios = ratios  # (B, T)
        self.segments = segments  # (B, T) int64 argmax predictions

    def probs(self) -> Tensor:
        """Segment probability tensor (used for distillation)."""
        return self.log_probs.exp()


class RecoveryModel(nn.Module):
    """Base class: shared loss and coordinate normalisation."""

    #: Whether ``forward`` accepts a CSR-style
    #: :class:`~repro.core.mask.SparseConstraintMask` in place of the
    #: dense ``(B, T, S)`` log-mask array.  Models that opt in get the
    #: sparse hot path from :meth:`ConstraintMaskBuilder.build_for`.
    supports_sparse_mask = False

    def __init__(self, config: RecoveryModelConfig):
        super().__init__()
        self.config = config

    # ------------------------------------------------------------------
    # contract
    # ------------------------------------------------------------------
    def forward(self, batch: Batch, log_mask: np.ndarray,
                teacher_forcing: bool = True) -> ModelOutput:
        raise NotImplementedError

    def decode_program(self, batch: Batch, log_mask):
        """A decode program for the serving engine, or ``None``.

        Autoregressive models return an adapter implementing the
        :class:`~repro.serving.DecodeSession` protocol (built on their
        raw-array step kernels); ``None`` means the model has no packed
        decode path and serving call sites fall back to the padded
        ``forward(..., teacher_forcing=False)`` decode.  Callers run
        under ``no_grad`` with the model in eval mode.
        """
        return None

    def _packed_inference(self, batch: Batch, log_mask) -> ModelOutput | None:
        """Engine-driven full-length inference decode, or ``None``.

        The shared tape-free decode loop models call from
        ``forward(teacher_forcing=False)``: builds the decode program
        and steps it through one :class:`~repro.serving.DecodeSession`
        over the full padded horizon (no compaction), which reproduces
        the padded per-step loops bit-for-bit while skipping all tape
        bookkeeping.  Returns ``None`` when gradients are being
        recorded or the model has no program — callers then take their
        per-step tape loop.
        """
        if nn.is_grad_enabled():
            return None
        program = self.decode_program(batch, log_mask)
        if program is None:
            return None
        result = DecodeSession().run(program, batch)
        return ModelOutput(log_probs=nn.Tensor(result.log_probs),
                           ratios=nn.Tensor(result.ratios),
                           segments=result.segments)

    # ------------------------------------------------------------------
    # loss (paper Eq. 13-15)
    # ------------------------------------------------------------------
    def loss(self, output: ModelOutput, batch: Batch, mu: float = 1.0
             ) -> tuple[Tensor, dict[str, float]]:
        """Local recovery loss ``L1 + mu * L2`` over valid steps.

        ``L1`` is segment cross-entropy computed from the (masked)
        log-probabilities; ``L2`` is moving-ratio MSE.  Padding steps
        are excluded through per-sample weights.
        """
        b, t, s = output.log_probs.shape
        weights = batch.tgt_mask.astype(np.float64).reshape(-1)
        flat_logs = output.log_probs.reshape(b * t, s)
        l1 = nn.nll_from_log_probs(flat_logs, batch.tgt_segments.reshape(-1), weights)
        l2 = nn.mse_loss(output.ratios.reshape(-1),
                         batch.tgt_ratios.reshape(-1), weights)
        total = l1 + mu * l2
        return total, {"ce": l1.item(), "mse": l2.item(), "total": total.item()}

    # ------------------------------------------------------------------
    # helpers shared by subclasses
    # ------------------------------------------------------------------
    def _step_extras(self, batch: Batch) -> np.ndarray:
        """Auxiliary decode inputs for every step: ``(B, T, 4)``.

        Per step: the step fraction, the normalised guide position, and
        the observed flag — the features every autoregressive decoder
        in the repo concatenates into its step input (bitwise equal to
        building them one step at a time).
        """
        b, t = batch.tgt_segments.shape
        guide = self._normalise_guides(batch.guide_xy)
        fractions = np.arange(t, dtype=np.float64) / max(1, t - 1)
        extras = np.concatenate(
            [
                np.broadcast_to(fractions[None, :, None], (b, t, 1)),
                guide,
                batch.observed_flags[..., None].astype(np.float64),
            ],
            axis=-1,
        )
        # Built in float64 (guide normalisation reads float64 planar
        # coordinates), handed to the decode kernels in the compute
        # dtype — one cast here instead of an upcast every step.
        return extras.astype(nn.get_compute_dtype(), copy=False)

    def _normalise_guides(self, guide_xy: np.ndarray) -> np.ndarray:
        """Map guide positions into roughly [-1, 1] model coordinates."""
        min_x, min_y, max_x, max_y = self.config.bbox
        cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
        half = max(max_x - min_x, max_y - min_y) / 2.0 or 1.0
        normed = np.empty_like(guide_xy)
        normed[..., 0] = (guide_xy[..., 0] - cx) / half
        normed[..., 1] = (guide_xy[..., 1] - cy) / half
        return normed

    def _validate_mask(self, log_mask, batch: Batch, num_segments: int) -> None:
        if not isinstance(log_mask, np.ndarray) and not self.supports_sparse_mask:
            raise TypeError(
                f"{type(self).__name__} does not accept sparse constraint "
                f"masks; build a dense one with ConstraintMaskBuilder.build() "
                f"(or let build_for() pick the representation)"
            )
        b, t = batch.tgt_segments.shape
        if tuple(log_mask.shape) != (b, t, num_segments):
            raise ValueError(
                f"log_mask shape {tuple(log_mask.shape)} does not match batch "
                f"({b}, {t}, {num_segments})"
            )
