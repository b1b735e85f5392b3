"""Per-point oracle for the dataset encoder.

These are the original one-trajectory-at-a-time ``downsample`` and
``encode_example``: every position is one scalar ``position_at`` call,
every cell one scalar ``Grid.cell_id`` call, and the guide one
``np.interp`` per axis over the trajectory's own index.  The old
trajectory accessors (``positions``, ``segment_ids()``, ``ratios()``)
are spelled out over ``points`` with their original bodies, so nothing
here runs through the array passes it checks.

:meth:`repro.data.TrajectoryDataset.from_matched` and
:func:`repro.data.encode_example` must agree with :func:`encode_example`
here bit for bit: every ``RecoveryExample`` field, its dtype and shape.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import RecoveryExample
from repro.data.downsample import stride_for_keep_ratio
from repro.data.trajectory import IncompleteTrajectory, MatchedTrajectory
from repro.spatial.grid import Grid
from repro.spatial.roadnet import RoadNetwork


def downsample(trajectory: MatchedTrajectory, keep_ratio: float) -> IncompleteTrajectory:
    """Deterministic strided downsampling (the paper's evaluation setting).

    Keeps indices ``0, k, 2k, ...`` and always the final point, where
    ``k = round(1 / keep_ratio)``.
    """
    stride = stride_for_keep_ratio(keep_ratio)
    n = len(trajectory)
    indices = list(range(0, n, stride))
    if indices[-1] != n - 1:
        indices.append(n - 1)
    return IncompleteTrajectory(
        source=trajectory,
        observed_indices=tuple(indices),
        keep_ratio=keep_ratio,
    )


def encode_example(incomplete: IncompleteTrajectory, grid: Grid,
                   network: RoadNetwork) -> RecoveryExample:
    """Encode an incomplete trajectory and its ground truth into arrays."""
    source = incomplete.source
    n_full = incomplete.full_length
    obs_idx = np.asarray(incomplete.observed_indices, dtype=np.int64)

    positions = np.array(
        [[p.x, p.y] for p in (q.position(network) for q in source.points)],
        dtype=np.float64,
    )
    obs_xy = positions[obs_idx]
    obs_cells = np.array(
        [grid.cell_id(source.points[i].position(network)) for i in obs_idx],
        dtype=np.int64,
    )
    obs_tids = np.array([source.points[i].tid for i in obs_idx], dtype=np.int64)

    guide = _interpolate_guides(obs_idx, obs_xy, n_full)

    return RecoveryExample(
        traj_id=source.traj_id,
        driver_id=source.driver_id,
        obs_cells=obs_cells,
        obs_tids=obs_tids,
        obs_xy=obs_xy,
        tgt_segments=np.array([p.segment_id for p in source.points], dtype=np.int64),
        tgt_ratios=np.array([p.ratio for p in source.points], dtype=np.float64),
        observed_flags=np.array(incomplete.observed_flags(), dtype=bool),
        guide_xy=guide,
    )


def _interpolate_guides(obs_idx: np.ndarray, obs_xy: np.ndarray, n_full: int) -> np.ndarray:
    """Linear interpolation of observed positions at every timestep.

    This approximates where the vehicle plausibly was between two
    observations and anchors the constraint mask there.
    """
    steps = np.arange(n_full, dtype=np.float64)
    gx = np.interp(steps, obs_idx.astype(np.float64), obs_xy[:, 0])
    gy = np.interp(steps, obs_idx.astype(np.float64), obs_xy[:, 1])
    return np.stack([gx, gy], axis=1)
