"""Encoding trajectories into model-ready arrays, splits, and batching.

A :class:`RecoveryExample` is one (incomplete -> complete) training pair:
the observed points encoded as grid-cell ids + time indices (the paper's
``g_i = (x_i, y_i, tid_i)``), the target segment/ratio sequences, and a
per-timestep *guide position* (linear interpolation between the
surrounding observed points) that the constraint-mask layer uses to
restrict the candidate road segments (paper Eq. 10-11).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from ..nn.dtypes import get_compute_dtype
from ..spatial.grid import Grid
from ..spatial.roadnet import RoadNetwork
from .downsample import downsample
from .trajectory import IncompleteTrajectory, MatchedTrajectory

__all__ = ["RecoveryExample", "Batch", "TrajectoryDataset", "encode_example"]


@dataclass(frozen=True)
class RecoveryExample:
    """One encoded recovery problem (arrays, ready for the model)."""

    traj_id: int
    driver_id: int
    obs_cells: np.ndarray  # (n_obs,) int64 grid cell ids
    obs_tids: np.ndarray  # (n_obs,) int64 time indices
    obs_xy: np.ndarray  # (n_obs, 2) float64 matched planar positions
    tgt_segments: np.ndarray  # (n_full,) int64 road segment labels
    tgt_ratios: np.ndarray  # (n_full,) float64 moving ratios
    observed_flags: np.ndarray  # (n_full,) bool - True where the point was observed
    guide_xy: np.ndarray  # (n_full, 2) float64 interpolated guide positions

    @property
    def num_observed(self) -> int:
        return int(self.obs_cells.shape[0])

    @property
    def full_length(self) -> int:
        return int(self.tgt_segments.shape[0])


@dataclass(frozen=True)
class Batch:
    """A padded mini-batch of recovery examples.

    Model-input float fields (``obs_feats``, ``tgt_ratios``) collate in
    the active *compute dtype* (:func:`repro.nn.set_compute_dtype`) so
    float32 runs never pay a float64 copy per batch; ``guide_xy`` stays
    float64 — it feeds spatial mask building, not model kernels.
    """

    obs_cells: np.ndarray  # (B, To) int64
    obs_feats: np.ndarray  # (B, To, 2) compute dtype: [tid frac, gap frac]
    obs_mask: np.ndarray  # (B, To) bool
    tgt_segments: np.ndarray  # (B, T) int64
    tgt_ratios: np.ndarray  # (B, T) compute dtype
    tgt_mask: np.ndarray  # (B, T) bool - valid (non-padding) timesteps
    observed_flags: np.ndarray  # (B, T) bool
    guide_xy: np.ndarray  # (B, T, 2) float64
    traj_ids: np.ndarray  # (B,) int64

    @property
    def size(self) -> int:
        return int(self.obs_cells.shape[0])

    @property
    def steps(self) -> int:
        return int(self.tgt_segments.shape[1])


def encode_example(incomplete: IncompleteTrajectory, grid: Grid,
                   network: RoadNetwork) -> RecoveryExample:
    """Encode an incomplete trajectory and its ground truth into arrays."""
    source = incomplete.source
    n_full = incomplete.full_length
    obs_idx = np.asarray(incomplete.observed_indices, dtype=np.int64)

    positions = np.array(
        [[p.x, p.y] for p in source.positions(network)], dtype=np.float64
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
        tgt_segments=np.array(source.segment_ids(), dtype=np.int64),
        tgt_ratios=np.array(source.ratios(), dtype=np.float64),
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


#: Upper bound on memoised collated batches per dataset.  Shuffled epoch
#: loops produce fresh chunk keys every pass, so without a cap the cache
#: would grow by one entry per batch forever; LRU eviction keeps the
#: recurring keys (full-batch evaluation, unshuffled iteration) resident.
_BATCH_CACHE_CAP = 128


class TrajectoryDataset:
    """A list of encoded recovery examples plus the world they live in.

    Collated batches are memoised per chunk key (the exact example-index
    tuple): evaluation's :meth:`full_batch` and deterministic
    :meth:`batches` iteration re-pad once instead of every epoch.  The
    cached arrays are returned read-only because callers share them;
    ``copy.deepcopy`` a batch before mutating it.  A new dataset (e.g.
    from :meth:`split`) starts with an empty cache; call
    :meth:`clear_batch_cache` after mutating ``examples`` in place.
    """

    def __init__(self, examples: list[RecoveryExample], grid: Grid,
                 network: RoadNetwork, keep_ratio: float):
        self.examples = list(examples)
        self.grid = grid
        self.network = network
        self.keep_ratio = keep_ratio
        # Per-example observed-feature rows, computed once: epoch loops
        # re-collate the same examples every pass (only batch composition
        # changes with the shuffle).
        self._obs_feat_cache: dict[int, np.ndarray] = {}
        # Collated-Batch memo, LRU-bounded, keyed by example-index tuple.
        self._batch_cache: "OrderedDict[tuple[int, ...], Batch]" = OrderedDict()
        self._batch_cache_cap = _BATCH_CACHE_CAP

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index: int) -> RecoveryExample:
        return self.examples[index]

    @property
    def num_segments(self) -> int:
        """Road-segment vocabulary size."""
        return self.network.num_segments

    @property
    def num_cells(self) -> int:
        """Grid-cell vocabulary size."""
        return self.grid.num_cells

    @classmethod
    def from_matched(cls, trajectories: list[MatchedTrajectory], grid: Grid,
                     network: RoadNetwork, keep_ratio: float) -> "TrajectoryDataset":
        """Downsample and encode complete trajectories into a dataset."""
        examples = [
            encode_example(downsample(traj, keep_ratio), grid, network)
            for traj in trajectories
        ]
        return cls(examples, grid, network, keep_ratio)

    def split(self, fractions: tuple[float, float, float] = (0.7, 0.2, 0.1),
              rng: np.random.Generator | None = None
              ) -> tuple["TrajectoryDataset", "TrajectoryDataset", "TrajectoryDataset"]:
        """Shuffle and split into train/valid/test (paper ratio 7:2:1)."""
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        order = rng.permutation(len(self.examples))
        n_train = int(round(fractions[0] * len(order)))
        n_valid = int(round(fractions[1] * len(order)))
        picks = (
            order[:n_train],
            order[n_train : n_train + n_valid],
            order[n_train + n_valid :],
        )
        return tuple(
            TrajectoryDataset([self.examples[i] for i in part], self.grid,
                              self.network, self.keep_ratio)
            for part in picks
        )  # type: ignore[return-value]

    def batches(self, batch_size: int, rng: np.random.Generator | None = None):
        """Yield padded :class:`Batch` objects (shuffled when ``rng`` given)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        order = np.arange(len(self.examples))
        if rng is not None:
            order = rng.permutation(order)
        for start in range(0, len(order), batch_size):
            yield self._collate_cached(
                tuple(int(i) for i in order[start : start + batch_size])
            )

    def full_batch(self) -> Batch:
        """The whole dataset as one batch (used for evaluation).

        Cached: every round's evaluation pass reuses one padded batch.
        """
        if not self.examples:
            raise ValueError("dataset is empty")
        return self._collate_cached(tuple(range(len(self.examples))))

    def clear_batch_cache(self) -> None:
        """Drop memoised collated batches (after mutating ``examples``)."""
        self._batch_cache.clear()

    def set_batch_cache_limit(self, limit: int) -> None:
        """Bound this dataset's collation memo to ``limit`` entries.

        The module default (``_BATCH_CACHE_CAP``) is sized for a
        handful of datasets; a thousand-client federation holds 3N + 1
        of them, so the per-dataset budget becomes a hidden memory
        multiplier — ``FederatedConfig.collation_cache_entries``
        forwards here to shrink it.  Lowering the limit evicts
        immediately (LRU order); caching itself cannot be disabled
        (``limit >= 1``) because :meth:`full_batch` consumers rely on
        the shared read-only batch.
        """
        if limit < 1:
            raise ValueError("batch cache limit must be >= 1")
        self._batch_cache_cap = int(limit)
        while len(self._batch_cache) > self._batch_cache_cap:
            self._batch_cache.popitem(last=False)

    def _collate_cached(self, key: tuple[int, ...]) -> Batch:
        """Collate the examples at ``key``, memoising per index tuple.

        The memo key carries the compute dtype: flipping it mid-run
        re-collates instead of serving arrays built under the previous
        precision.
        """
        key = (get_compute_dtype().char,) + key
        batch = self._batch_cache.get(key)
        if batch is not None:
            self._batch_cache.move_to_end(key)
            return batch
        batch = self._collate([self.examples[i] for i in key[1:]])
        for spec in fields(Batch):  # shared across callers: freeze
            getattr(batch, spec.name).flags.writeable = False
        self._batch_cache[key] = batch
        while len(self._batch_cache) > self._batch_cache_cap:
            self._batch_cache.popitem(last=False)
        return batch

    def _collate(self, chunk: list[RecoveryExample]) -> Batch:
        b = len(chunk)
        to = max(e.num_observed for e in chunk)
        t = max(e.full_length for e in chunk)
        dtype = get_compute_dtype()
        obs_cells = np.zeros((b, to), dtype=np.int64)
        obs_feats = np.zeros((b, to, 2), dtype=dtype)
        obs_mask = np.zeros((b, to), dtype=bool)
        tgt_segments = np.zeros((b, t), dtype=np.int64)
        tgt_ratios = np.zeros((b, t), dtype=dtype)
        tgt_mask = np.zeros((b, t), dtype=bool)
        observed_flags = np.zeros((b, t), dtype=bool)
        guide_xy = np.zeros((b, t, 2), dtype=np.float64)
        traj_ids = np.array([e.traj_id for e in chunk], dtype=np.int64)
        for i, e in enumerate(chunk):
            no, nf = e.num_observed, e.full_length
            obs_cells[i, :no] = e.obs_cells
            feats = self._obs_feat_cache.get(id(e))
            if feats is None:
                denom = max(1.0, float(nf - 1))
                gaps = np.diff(e.obs_tids, prepend=e.obs_tids[0])
                feats = np.stack([e.obs_tids / denom, gaps / denom], axis=1)
                self._obs_feat_cache[id(e)] = feats
            obs_feats[i, :no] = feats
            obs_mask[i, :no] = True
            tgt_segments[i, :nf] = e.tgt_segments
            tgt_ratios[i, :nf] = e.tgt_ratios
            tgt_mask[i, :nf] = True
            observed_flags[i, :nf] = e.observed_flags
            guide_xy[i, :nf] = e.guide_xy
            if nf < t:
                guide_xy[i, nf:] = e.guide_xy[-1]
        return Batch(
            obs_cells=obs_cells, obs_feats=obs_feats, obs_mask=obs_mask,
            tgt_segments=tgt_segments, tgt_ratios=tgt_ratios, tgt_mask=tgt_mask,
            observed_flags=observed_flags, guide_xy=guide_xy, traj_ids=traj_ids,
        )
