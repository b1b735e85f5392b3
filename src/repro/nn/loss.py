"""Loss functions used by LightTR and the baselines.

The paper's local objective (Eq. 13) combines a cross-entropy term for
road-segment classification (Eq. 14) with a mean-squared-error term for
the moving ratio (Eq. 15), plus an L2 knowledge-distillation term
against the teacher's predictions (Eq. 16).
"""

from __future__ import annotations

import numpy as np

from .functional import gather_rows, log_softmax
from .tensor import Tensor, as_tensor

__all__ = ["cross_entropy", "mse_loss", "l1_loss", "distillation_loss", "nll_from_log_probs"]


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weights: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy between ``logits (N, C)`` and integer ``targets (N,)``.

    Parameters
    ----------
    logits:
        Unnormalised class scores.
    targets:
        Integer class indices.
    weights:
        Optional per-sample weights (e.g. to mask padded steps).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected (N, C) logits, got shape {logits.shape}")
    n, c = logits.shape
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError("target class index out of range")
    log_probs = log_softmax(logits, axis=-1)
    picked = gather_rows(log_probs, targets)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("cross_entropy weights sum to zero")
        return -(picked * weights).sum() * (1.0 / total)
    return -picked.mean()


def nll_from_log_probs(log_probs: Tensor, targets: np.ndarray,
                       weights: np.ndarray | None = None) -> Tensor:
    """Negative log-likelihood when the model already outputs log-probs.

    The constraint-mask layer of LightTR produces a masked *probability*
    distribution directly (paper Eq. 11), so its loss consumes log-probs
    rather than raw logits.
    """
    targets = np.asarray(targets, dtype=np.int64)
    picked = gather_rows(log_probs, targets)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("nll weights sum to zero")
        return -(picked * weights).sum() * (1.0 / total)
    return -picked.mean()


def mse_loss(prediction: Tensor, target, weights: np.ndarray | None = None) -> Tensor:
    """Mean squared error, optionally sample-weighted."""
    target = as_tensor(target)
    diff = prediction - target
    sq = diff * diff
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("mse weights sum to zero")
        return (sq * weights).sum() * (1.0 / total)
    return sq.mean()


def l1_loss(prediction: Tensor, target) -> Tensor:
    """Mean absolute error (used in some ablation diagnostics)."""
    target = as_tensor(target)
    diff = prediction - target
    return ((diff * diff) ** 0.5).mean()


def distillation_loss(teacher_output: Tensor, student_output: Tensor) -> Tensor:
    """Paper Eq. 16: ``||f_tea(T) - f_stu(T)||_2^2`` (mean over elements).

    The teacher output is detached: distillation shapes the student only.
    """
    diff = student_output - teacher_output.detach()
    return (diff * diff).mean()
