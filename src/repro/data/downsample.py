"""Downsampling complete trajectories to low-sampling-rate inputs.

The paper transforms complete (high-sampling-rate) trajectories into
incomplete ones by removing points with a *keep ratio* of 6.25%, 12.5%
or 25% - i.e. strides of 16, 8 and 4 - so that "six points between each
two consecutive points ... are required to be restored averagely"
(Section V-A5).  Both endpoint observations are always kept.
"""

from __future__ import annotations

import numpy as np

from .trajectory import IncompleteTrajectory, MatchedTrajectory

__all__ = ["downsample", "downsample_random", "stride_for_keep_ratio", "strided_flags",
           "KEEP_RATIOS"]

#: The keep ratios evaluated in the paper (Tables IV/VI).
KEEP_RATIOS = (0.0625, 0.125, 0.25)


def stride_for_keep_ratio(keep_ratio: float) -> int:
    """Sampling stride corresponding to a keep ratio (e.g. 12.5% -> 8)."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep ratio must be in (0, 1], got {keep_ratio}")
    return max(1, int(round(1.0 / keep_ratio)))


def strided_flags(index: np.ndarray, length: np.ndarray, stride: int) -> np.ndarray:
    """The strided keep rule, elementwise: is point ``index`` of a
    trajectory of ``length`` points observed?

    Keeps indices ``0, k, 2k, ...`` and always the final point.  The
    arguments broadcast, so one call covers every point of many
    trajectories (``TrajectoryDataset.from_matched``).
    """
    return (index % stride == 0) | (index == length - 1)


def downsample(trajectory: MatchedTrajectory, keep_ratio: float) -> IncompleteTrajectory:
    """Deterministic strided downsampling (the paper's evaluation setting).

    Keeps indices ``0, k, 2k, ...`` and always the final point, where
    ``k = round(1 / keep_ratio)``.
    """
    stride = stride_for_keep_ratio(keep_ratio)
    n = len(trajectory)
    indices = np.flatnonzero(strided_flags(np.arange(n), n, stride))
    return IncompleteTrajectory(
        source=trajectory,
        observed_indices=tuple(indices.tolist()),
        keep_ratio=keep_ratio,
    )


def downsample_random(trajectory: MatchedTrajectory, keep_ratio: float,
                      rng: np.random.Generator) -> IncompleteTrajectory:
    """Random interior downsampling (keeps endpoints; used in robustness tests).

    Each interior point survives independently with probability
    ``keep_ratio``, matching the paper's "randomly remove points"
    wording; at least one interior point is kept when possible so
    sequences never collapse to bare endpoints on long trajectories: when
    no interior point survives and ``n > 2``, one interior index is drawn
    with ``rng.integers(1, n - 1)`` (the only extra draw).
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep ratio must be in (0, 1], got {keep_ratio}")
    n = len(trajectory)
    interior = [i for i in range(1, n - 1) if rng.random() < keep_ratio]
    if not interior and n > 2:
        interior = [int(rng.integers(1, n - 1))]
    indices = [0, *interior, n - 1]
    return IncompleteTrajectory(
        source=trajectory,
        observed_indices=tuple(indices),
        keep_ratio=keep_ratio,
    )
