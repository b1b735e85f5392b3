"""Local training loop shared by clients, teachers, and baselines.

One :class:`LocalTrainer` wraps a recovery model with its optimiser and
constraint-mask builder, and exposes exactly what the federated layer
needs: ``train_epochs`` (with optional distillation against a teacher)
and ``segment_accuracy`` (the validation accuracy used by the gates of
Algorithms 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.dataset import Batch, TrajectoryDataset
from ..serving import decode_model
from .base import ModelOutput, RecoveryModel
from .mask import ConstraintMaskBuilder

__all__ = ["TrainingConfig", "LocalTrainer", "evaluate_output_accuracy"]


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of local (per-client) optimisation."""

    epochs: int = 5
    batch_size: int = 16
    lr: float = 1e-3
    mu: float = 1.0  # CE/MSE trade-off of Eq. 13
    grad_clip: float = 5.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


class LocalTrainer:
    """Trains one recovery model on one local dataset."""

    def __init__(self, model: RecoveryModel, mask_builder: ConstraintMaskBuilder,
                 config: TrainingConfig, rng: np.random.Generator):
        self.model = model
        self.mask_builder = mask_builder
        self.config = config
        self.rng = rng
        self.optimizer = nn.Adam(model.parameters(), lr=config.lr)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_epochs(self, dataset: TrajectoryDataset, epochs: int | None = None,
                     distiller=None, lam: float = 0.0) -> list[float]:
        """Run ``epochs`` training passes; returns per-epoch mean losses.

        When ``distiller`` is given and ``lam > 0``, adds the
        meta-knowledge distillation term ``lam * L_dist`` (Eq. 17).
        """
        losses = []
        for _ in range(epochs if epochs is not None else self.config.epochs):
            losses.append(self.train_epoch(dataset, distiller=distiller, lam=lam))
        return losses

    def train_epoch(self, dataset: TrajectoryDataset, distiller=None,
                    lam: float = 0.0) -> float:
        """One pass over the dataset; returns the mean total loss."""
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        self.model.train()
        epoch_loss = 0.0
        num_batches = 0
        for batch in dataset.batches(self.config.batch_size, rng=self.rng):
            log_mask = self.mask_builder.build_for(batch, self.model)
            self.optimizer.zero_grad()
            output = self.model(batch, log_mask, teacher_forcing=True)
            loss, _ = self.model.loss(output, batch, mu=self.config.mu)
            if distiller is not None and lam > 0.0:
                loss = loss + lam * distiller.distillation_term(output, batch, log_mask)
            loss.backward()
            nn.clip_grad_norm(self.model.parameters(), self.config.grad_clip)
            self.optimizer.step()
            epoch_loss += loss.item()
            num_batches += 1
        return epoch_loss / num_batches

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def segment_accuracy(self, dataset: TrajectoryDataset) -> float:
        """Fraction of missing points whose road segment is predicted
        correctly (the "accuracy" of Algorithms 1-2's gates)."""
        return model_segment_accuracy(self.model, self.mask_builder, dataset)


def model_segment_accuracy(model: RecoveryModel, mask_builder: ConstraintMaskBuilder,
                           dataset: TrajectoryDataset) -> float:
    """Segment accuracy of ``model`` over the missing points of ``dataset``.

    Runs through the packed decode engine (:mod:`repro.serving`) —
    this is the eval hook inside the federated loop's accuracy gates,
    so it is as hot as training itself.  The model's train/eval mode is
    restored afterwards, so a frozen teacher stays in eval mode.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    was_training = model.training
    model.eval()
    batch = dataset.full_batch()
    log_mask = mask_builder.build_for(batch, model)
    with nn.no_grad():
        output = decode_model(model, batch, log_mask)
    model.train(was_training)
    return evaluate_output_accuracy(output, batch)


def evaluate_output_accuracy(output: ModelOutput, batch: Batch) -> float:
    """Accuracy of predicted segments over valid missing steps."""
    missing = batch.tgt_mask & ~batch.observed_flags
    if not missing.any():
        return 1.0
    correct = output.segments == batch.tgt_segments
    return float(correct[missing].mean())
