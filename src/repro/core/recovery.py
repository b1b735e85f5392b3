"""High-level trajectory recovery API.

:class:`TrajectoryRecovery` wraps a trained model and the constraint
mask and turns encoded datasets back into recovered
:class:`~repro.data.trajectory.MatchedTrajectory` objects - the
user-facing operation ``F(.)`` of the problem statement (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.dataset import Batch, TrajectoryDataset
from ..data.trajectory import MatchedTrajectory
from ..serving import decode_model
from .base import RecoveryModel
from .mask import ConstraintMaskBuilder

__all__ = ["RecoveredTrajectory", "TrajectoryRecovery"]


@dataclass(frozen=True)
class RecoveredTrajectory:
    """A recovered trajectory together with its provenance."""

    trajectory: MatchedTrajectory
    traj_id: int
    recovered_indices: tuple[int, ...]  # which points the model produced


class TrajectoryRecovery:
    """Recover complete trajectories from incomplete ones with a model.

    Observed points are passed through unchanged (they are inputs);
    missing points take the model's predicted segment and clipped
    moving ratio.
    """

    def __init__(self, model: RecoveryModel, mask_builder: ConstraintMaskBuilder):
        self.model = model
        self.mask_builder = mask_builder

    def predict_batch(self, batch: Batch, decode_batch: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Predicted ``(segments, ratios)`` arrays of shape ``(B, T)``.

        Observed steps are clamped to their ground-truth (observed)
        values; ratios are clipped to [0, 1].  Inference runs through
        the packed decode engine (:mod:`repro.serving`) — each row is
        decoded only to its true length, stepped ``decode_batch``
        trajectories at a time (``None`` = all at once).
        """
        log_mask = self.mask_builder.build_for(batch, self.model)
        self.model.eval()
        with nn.no_grad():
            output = decode_model(self.model, batch, log_mask,
                                  decode_batch=decode_batch)
        segments = np.where(batch.observed_flags, batch.tgt_segments, output.segments)
        ratios = np.where(batch.observed_flags, batch.tgt_ratios,
                          np.clip(output.ratios.data, 0.0, 1.0))
        return segments.astype(np.int64), ratios

    def recover_dataset(self, dataset: TrajectoryDataset,
                        epsilon: float = 15.0,
                        decode_batch: int | None = None
                        ) -> list[RecoveredTrajectory]:
        """Recover every trajectory in ``dataset``.

        The whole dataset is collated once through the memoised
        :meth:`TrajectoryDataset.full_batch` path (repeated recovery
        passes — every round of a serving loop — never re-pad), and
        ``decode_batch`` bounds the packed decode working set inside
        that one batch.  Chunking the *decode* rather than the
        collation keeps the step-feature geometry (which depends on the
        batch's padded width) identical under any ``decode_batch``, so
        the knob trades memory, not results.
        """
        if len(dataset) == 0:
            return []
        batch = dataset.full_batch()
        segments, ratios = self.predict_batch(batch, decode_batch=decode_batch)
        steps = np.arange(segments.shape[1])
        times = steps * epsilon
        results = []
        for example, segment_row, ratio_row in zip(dataset.examples, segments, ratios):
            n = example.full_length
            recovered = MatchedTrajectory.from_columns(
                example.traj_id, example.driver_id, epsilon,
                segment_row[:n], ratio_row[:n], times[:n], steps[:n],
            )
            missing = tuple(np.flatnonzero(~example.observed_flags).tolist())
            results.append(RecoveredTrajectory(
                trajectory=recovered, traj_id=example.traj_id,
                recovered_indices=missing,
            ))
        return results
