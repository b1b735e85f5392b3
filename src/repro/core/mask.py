"""Constraint mask layer (paper Section IV-B2, Eq. 10-11).

For every timestep to recover, only road segments near the trajectory's
plausible position are viable.  The mask weights each candidate segment
by ``c = exp(-dist^2 / gamma)`` where ``dist`` is the distance from the
guide position (interpolated between the surrounding observed points)
to the segment, and suppresses everything else.  Combined with softmax
(Eq. 11) this both reduces training complexity and enforces
map-matched predictions.

Dense vs sparse layout
----------------------
Guide positions are quantised to a 25 m grid, so a whole neighbourhood
of points shares one mask *row*.  The builder's source of truth is a
**sparse row pool**: for every quantised key it stores just the active
segment ids and their log weights (``_sp_indices`` / ``_sp_values``
slices addressed by per-row ``_sp_starts`` / ``_sp_lens``).  Everything
else is derived from that pool on demand:

* :meth:`ConstraintMaskBuilder.build_sparse` assembles a
  :class:`SparseConstraintMask` — CSR over the ``B * T`` flattened
  batch rows (``indptr`` row offsets into flat ``indices`` /
  ``log_values`` arrays) — with one searchsorted key lookup and one
  pooled gather, never materialising ``(B, T, S)``;
* :meth:`ConstraintMaskBuilder.build` densifies pool rows lazily into a
  ``(U, S)`` row matrix and gathers the dense ``(B, T, S)`` mask from
  it (the representation of models without sparse-mask support, and
  the test oracle of the sparse one);
* :meth:`ConstraintMaskBuilder.build_for` picks between the two from
  the consuming model's ``supports_sparse_mask``.

Segments outside the search radius carry the finite ``floor`` log
weight (:data:`_FLOOR_LOG`) in the dense representation; the sparse one
simply omits them, and the sparse-aware
:func:`repro.nn.masked_log_softmax` reconstructs the exact dense
behaviour (including the all-floor *empty-radius fallback* rows, which
get a uniform mask) without touching inactive entries.
"""

from __future__ import annotations

import math

import numpy as np

from ..data.dataset import Batch
from ..nn.dtypes import get_compute_dtype
from ..spatial.index import SegmentIndex
from ..spatial.roadnet import RoadNetwork

__all__ = ["ConstraintMaskBuilder", "SparseConstraintMask", "GAMMA_DEFAULT"]

#: The paper sets gamma = 125 (a road-network-related constant).
GAMMA_DEFAULT = 125.0

#: Log-weight assigned to segments outside the search radius.  Finite so
#: gradients stay well-defined, but small enough to never win argmax.
_FLOOR_LOG = -30.0

#: Cache quantisation step in metres: guide points within the same
#: 25 m cell share one mask row.
_QUANT = 25.0


def _encode(kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """One int64 per quantised key, ordered like the ``(kx, ky)`` tuples;
    injective for ``|k| < 2**31`` (coordinates within ~5e10 m of the
    origin)."""
    return kx * (np.int64(1) << 32) + ky


def _gather_csr(starts: np.ndarray, lens: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """CSR assembly for rows stored as pool slices.

    Given each output row's ``starts`` / ``lens`` into a flat pool,
    returns the output ``indptr`` and the flat pool positions ``pos``
    such that ``pool[pos]`` concatenates the rows in order.
    """
    indptr = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    pos = (np.arange(int(indptr[-1]), dtype=np.int64)
           + np.repeat(starts - indptr[:-1], lens))
    return indptr, pos


class SparseConstraintMask:
    """CSR-style constraint mask over flattened ``(B * T)`` rows.

    Row ``r`` (for batch element ``b``, timestep ``t``, ``r = b * T + t``)
    has active segment ids ``indices[indptr[r]:indptr[r + 1]]`` with log
    weights ``log_values`` at the same positions; every other segment
    implicitly carries the constant ``floor`` log weight.  ``shape`` is
    the equivalent dense shape (``(B, T, S)``, or ``(B, S)`` for one
    decode step).  ``identity=True`` marks a disabled mask (dense
    equivalent: all-zero log weights) — consumers fall back to a plain
    log-softmax and the CSR arrays are empty.

    ``layout`` is the optional *step layout* of a gathered mask whose
    rows are all non-empty: ``(flat, counts)``, where ``flat[k]`` is
    entry ``k``'s position ``row * S + index`` in the flattened
    ``(R, S)`` logits and ``counts`` holds the row lengths.  :meth:`take`
    records it (and :meth:`row_slice` carries it) so the inference
    log-softmax runs flat take/put and ``reduceat`` slices instead of
    re-deriving each entry's row every decode step.  Masks with an
    empty row, identity masks and :meth:`ConstraintMaskBuilder.build_sparse`
    outputs carry ``None``.
    """

    __slots__ = ("shape", "indptr", "indices", "log_values", "floor",
                 "identity", "layout")

    def __init__(self, shape: tuple[int, ...], indptr: np.ndarray,
                 indices: np.ndarray, log_values: np.ndarray,
                 floor: float = _FLOOR_LOG, identity: bool = False,
                 layout: tuple[np.ndarray, np.ndarray] | None = None):
        self.shape = tuple(shape)
        self.indptr = indptr
        self.indices = indices
        self.log_values = log_values
        self.floor = floor
        self.identity = identity
        self.layout = layout
        rows = self.n_rows
        if indptr.shape != (rows + 1,):
            raise ValueError(
                f"indptr shape {indptr.shape} does not match {rows} rows")
        if indices.shape != log_values.shape:
            raise ValueError("indices and log_values must have equal length")

    @classmethod
    def identity_mask(cls, shape: tuple[int, ...]) -> "SparseConstraintMask":
        """The disabled-mask representation (all-zero log weights)."""
        rows = int(math.prod(shape[:-1]))
        return cls(shape, np.zeros(rows + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=get_compute_dtype()), floor=0.0,
                   identity=True)

    @property
    def n_rows(self) -> int:
        return int(math.prod(self.shape[:-1]))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """Fraction of dense entries that are active (1.0 for identity)."""
        if self.identity:
            return 1.0
        dense_size = self.n_rows * self.shape[-1]
        return self.nnz / dense_size if dense_size else 0.0

    def step(self, t: int,
             rows: np.ndarray | None = None) -> "SparseConstraintMask":
        """The ``(B, S)`` sub-mask of decode step ``t`` of a ``(B, T, S)``
        mask (used by the autoregressive inference loops).

        ``rows`` restricts the slice to the given batch-row indices (in
        order), yielding an ``(len(rows), S)`` mask: :meth:`take` of the
        flattened rows ``rows * T + t``, which is how the decode engine
        slices masks over its compacted working set.
        """
        if len(self.shape) != 3:
            raise ValueError(f"step() needs a (B, T, S) mask, got {self.shape}")
        b, steps, _ = self.shape
        if not 0 <= t < steps:
            raise IndexError(f"step {t} out of range for {steps} timesteps")
        if rows is None:
            rows = np.arange(b, dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        return self.take(rows * steps + t)

    def take(self, flat_rows: np.ndarray) -> "SparseConstraintMask":
        """The ``(len(flat_rows), S)`` mask of the given flattened rows,
        in order (row ``b * T + t`` of a ``(B, T, S)`` mask), with its
        step layout when every gathered row is non-empty."""
        mask, lens = self._gather(flat_rows)
        if not mask.identity and lens.all():
            s = self.shape[-1]
            flat = np.repeat(np.arange(0, lens.size * s, s, dtype=np.int64),
                             lens)
            flat += mask.indices
            mask.layout = (flat, lens)
        return mask

    def gather(self, flat_rows: np.ndarray) -> "SparseConstraintMask":
        """:meth:`take` without the step layout, for a gathered mask that
        is copied rather than decoded (the live set's table compaction)."""
        return self._gather(flat_rows)[0]

    def _gather(self, flat_rows: np.ndarray
                ) -> tuple["SparseConstraintMask", np.ndarray | None]:
        s = self.shape[-1]
        if self.identity:
            return SparseConstraintMask.identity_mask((flat_rows.size, s)), None
        starts = self.indptr[flat_rows]
        lens = self.indptr[flat_rows + 1] - starts
        indptr, pos = _gather_csr(starts, lens)
        return SparseConstraintMask((flat_rows.size, s), indptr,
                                    self.indices[pos], self.log_values[pos],
                                    floor=self.floor), lens

    def row_slice(self, lo: int, hi: int) -> "SparseConstraintMask":
        """The ``(hi - lo, S)`` mask of flattened rows ``lo`` to ``hi``:
        :meth:`take` of ``np.arange(lo, hi)`` without the gather (the
        index and value arrays are views, ``indptr`` is rebased, and a
        step layout is carried over rebased to row ``lo``)."""
        s = self.shape[-1]
        if self.identity:
            return SparseConstraintMask.identity_mask((hi - lo, s))
        indptr = self.indptr[lo:hi + 1] - self.indptr[lo]
        start, end = int(self.indptr[lo]), int(self.indptr[hi])
        layout = None
        if self.layout is not None:
            flat, counts = self.layout
            layout = (flat[start:end] - lo * s, counts[lo:hi])
        return SparseConstraintMask((hi - lo, s), indptr,
                                    self.indices[start:end],
                                    self.log_values[start:end],
                                    floor=self.floor, layout=layout)

    @staticmethod
    def extend_rows(table, used: int,
                    part: "SparseConstraintMask") -> "SparseConstraintMask":
        """``table`` (None: a new one) with ``part``'s flattened rows
        written from row ``used`` on: the continuous-batching live set's
        working-set mask, gathered with one :meth:`take` per step.  CSR
        slices are copied exactly; the arrays grow geometrically, so
        rows past ``used + part.n_rows`` are spare capacity.  Parts must
        agree on kind and ``floor`` (mux keys enforce both)."""
        s = int(part.shape[-1])
        rows = used + part.n_rows
        if part.identity:
            return SparseConstraintMask.identity_mask((rows, s))
        if table is None:
            indptr = np.zeros(1, dtype=np.int64)
            indices, values = part.indices[:0], part.log_values[:0]
        else:
            indptr, indices, values = table.indptr, table.indices, table.log_values
        start = int(indptr[used])
        end = start + part.nnz
        if rows >= indptr.size:
            indptr = np.resize(indptr, 2 * rows + 1)
        if end > indices.size:
            indices, values = np.resize(indices, 2 * end), np.resize(values, 2 * end)
        indptr[used + 1:rows + 1] = part.indptr[1:] + start
        indices[start:end] = part.indices
        values[start:end] = part.log_values
        return SparseConstraintMask((indptr.size - 1, s), indptr, indices,
                                    values, floor=part.floor)

    def to_dense(self) -> np.ndarray:
        """The equivalent dense log-mask array (tests / reference path).

        Densifies in the mask's own value dtype (= the compute dtype it
        was built under)."""
        if self.identity:
            return np.zeros(self.shape, dtype=self.log_values.dtype)
        s = self.shape[-1]
        out = np.full((self.n_rows, s), self.floor,
                      dtype=self.log_values.dtype)
        lens = np.diff(self.indptr)
        nz_rows = np.repeat(np.arange(self.n_rows), lens)
        out[nz_rows, self.indices] = self.log_values
        return out.reshape(self.shape)


class ConstraintMaskBuilder:
    """Builds per-timestep log mask weights over the segment vocabulary.

    Parameters
    ----------
    network:
        Road network (defines the segment vocabulary).
    gamma:
        Distance-decay length scale of Eq. 10, in metres.  We use
        ``exp(-(dist/gamma)^2)`` with the paper's value 125, i.e. the
        weight falls to ``1/e`` at 125 m, which matches the guide-point
        interpolation error at the paper's keep ratios.
    radius:
        Search radius in metres around the guide position.  Segments
        further than this get the floor weight (paper: "we set
        omega(e, p) as 0" for far segments).
    identity:
        When true the mask is disabled (all-zero log weights); used by
        the ablation in Figure 7-style experiments.
    """

    def __init__(self, network: RoadNetwork, gamma: float = GAMMA_DEFAULT,
                 radius: float = 400.0, identity: bool = False,
                 index: SegmentIndex | None = None):
        if gamma <= 0 or radius <= 0:
            raise ValueError("gamma and radius must be positive")
        self.network = network
        self.gamma = gamma
        self.radius = radius
        self.identity = identity
        self.index = index if index is not None else SegmentIndex(network)
        # Sparse row pool — the source of truth.  Row i (the i-th key
        # ever registered) owns _sp_indices[_sp_starts[i] : + _sp_lens[i]]
        # and the matching _sp_values slice; _sp_keys[i] is its encoded
        # key.
        self._key_to_row: dict[tuple[int, int], int] = {}
        self._sp_keys = np.empty(0, dtype=np.int64)
        self._sp_starts = np.empty(0, dtype=np.int64)
        self._sp_lens = np.empty(0, dtype=np.int64)
        self._sp_indices = np.empty(0, dtype=np.int64)
        self._sp_values = np.empty(0)
        self._sp_used = 0  # valid prefix length of the index/value pools
        # Lazily maintained compute-dtype mirror of the float64 value
        # pool (only materialised when the compute dtype is reduced, so
        # float32 builds gather from a float32 pool — one copy, not two).
        self._sp_values_cast: np.ndarray | None = None
        self._sp_cast_used = 0
        # Sorted encoded-key index for vectorized batch lookups: once a
        # batch's keys are all known, building is pure searchsorted+gather.
        # It covers pool rows [0, _enc_rows.size).
        self._enc_sorted = np.empty(0, dtype=np.int64)
        self._enc_rows = np.empty(0, dtype=np.int64)
        # Dense mirrors, densified lazily from the pool: the (U, S) row
        # matrix backing `build`, and the per-point row cache backing
        # `log_mask_for_point`.  The sparse hot path never fills them.
        self._cache: dict[tuple[int, int], np.ndarray] = {}
        self._row_matrix = np.empty((0, network.num_segments))
        self._dense_rows = 0  # rows [0, _dense_rows) of _row_matrix are filled

    def __getstate__(self) -> dict:
        """Pickle only the defining knobs, never the memoised rows.

        Worker processes of the parallel round runner rebuild the
        segment index and start with empty caches — the sparse row pool
        and both dense mirrors alike: reconstruction is cheap (workers
        re-warm sparse rows via :meth:`warm`), the rows are
        deterministic functions of the network, and the caches can be
        orders of magnitude larger than the builder.
        """
        return {"network": self.network, "gamma": self.gamma,
                "radius": self.radius, "identity": self.identity}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["network"], gamma=state["gamma"],
                      radius=state["radius"], identity=state["identity"])

    def warm(self, dataset) -> int:
        """Precompute sparse mask rows for every guide point of ``dataset``.

        Fills the quantised-key sparse row pool directly from the
        examples' guide positions — peak memory is the pool (active
        entries only), never a dense ``(B, T, S)`` batch mask or even
        the ``(U, S)`` row matrix — so later epoch loops (or a freshly
        forked worker) run pure searchsorted+gather for sparse builds,
        and dense builds only pay a one-off densify of the warmed rows.
        Returns the number of cached rows.
        """
        if self.identity or len(dataset) == 0:
            return 0
        keys: set[tuple[int, int]] = set()
        for example in dataset.examples:
            quantised = np.floor_divide(example.guide_xy, _QUANT).astype(np.int64)
            keys.update(zip(quantised[:, 0].tolist(), quantised[:, 1].tolist()))
        self._register_keys(sorted(keys))
        self._refresh_sorted_index()
        return len(self._key_to_row)

    def log_mask_for_point(self, x: float, y: float) -> np.ndarray:
        """Log mask weights ``log c`` over all segments for one guide point.

        Results are cached on a 25 m quantised key: guide positions from
        the same neighbourhood share masks, which makes epoch loops cheap.
        The cached row is returned read-only; copy before mutating.
        """
        if self.identity:
            return np.zeros(self.network.num_segments)
        return self._row_for_key((int(x // _QUANT), int(y // _QUANT)))

    def _register_keys(self, keys: list[tuple[int, int]]) -> None:
        """Add a pool row for each key of ``keys`` not seen before, in
        order, with one batched spatial-index query for all of them."""
        keys = [key for key in keys if key not in self._key_to_row]
        if not keys:
            return
        quantised = np.array(keys, dtype=np.int64)
        centres = (quantised + 0.5) * _QUANT
        indptr, ids, dists = self.index.query(centres, self.radius)
        inv_gamma_sq = 1.0 / (self.gamma * self.gamma)
        values = np.maximum(_FLOOR_LOG, -(dists * dists) * inv_gamma_sq)
        lens = np.diff(indptr)
        # Store rows id-sorted: deterministic CSR layout.
        order = np.lexsort((ids, np.repeat(np.arange(len(keys)), lens)))
        first = len(self._key_to_row)
        rows_needed = first + len(keys)
        # Grow geometrically, to the smallest 64 * 2**k (rows) or
        # 1024 * 2**k (entries) that holds them.
        if rows_needed > self._sp_starts.size:
            capacity = 64 << ((rows_needed - 1) // 64).bit_length()
            self._sp_keys = np.resize(self._sp_keys, capacity)
            self._sp_starts = np.resize(self._sp_starts, capacity)
            self._sp_lens = np.resize(self._sp_lens, capacity)
        needed = self._sp_used + ids.size
        if needed > self._sp_indices.size:
            capacity = 1024 << ((needed - 1) // 1024).bit_length()
            grown_idx = np.empty(capacity, dtype=np.int64)
            grown_idx[: self._sp_used] = self._sp_indices[: self._sp_used]
            self._sp_indices = grown_idx
            grown_val = np.empty(capacity)
            grown_val[: self._sp_used] = self._sp_values[: self._sp_used]
            self._sp_values = grown_val
        self._sp_indices[self._sp_used:needed] = ids[order]
        self._sp_values[self._sp_used:needed] = values[order]
        self._sp_keys[first:rows_needed] = _encode(quantised[:, 0],
                                                   quantised[:, 1])
        self._sp_starts[first:rows_needed] = self._sp_used + indptr[:-1]
        self._sp_lens[first:rows_needed] = lens
        self._sp_used = needed
        self._key_to_row.update(zip(keys, range(first, rows_needed)))

    def _fill_dense_row(self, out: np.ndarray, idx: int) -> None:
        """Densify pool row ``idx`` into the ``(S,)`` array ``out``."""
        out.fill(_FLOOR_LOG)
        start = self._sp_starts[idx]
        stop = start + self._sp_lens[idx]
        out[self._sp_indices[start:stop]] = self._sp_values[start:stop]

    def _row_for_key(self, key: tuple[int, int]) -> np.ndarray:
        """Compute (or fetch) the read-only dense mask row of one key."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._register_keys([key])
        log_mask = np.empty(self.network.num_segments)
        self._fill_dense_row(log_mask, self._key_to_row[key])
        log_mask.flags.writeable = False  # callers share this row
        self._cache[key] = log_mask
        return log_mask

    def _densify_rows(self) -> None:
        """Fill the dense row matrix for every pool row not yet densified.

        The matrix is kept in the active compute dtype (rows fill from
        the float64 pool with one cast per entry on assignment); when
        the compute dtype changes between builds the matrix re-densifies
        from scratch — a rare, experiment-setup-time event.
        """
        dtype = get_compute_dtype()
        if self._row_matrix.dtype != dtype:
            self._row_matrix = np.empty((0, self.network.num_segments),
                                        dtype=dtype)
            self._dense_rows = 0
        n = len(self._key_to_row)
        if self._dense_rows >= n:
            return
        if n > self._row_matrix.shape[0]:  # grow geometrically
            capacity = max(64, 2 * self._row_matrix.shape[0], n)
            grown = np.empty((capacity, self.network.num_segments), dtype=dtype)
            grown[: self._dense_rows] = self._row_matrix[: self._dense_rows]
            self._row_matrix = grown
        for idx in range(self._dense_rows, n):
            self._fill_dense_row(self._row_matrix[idx], idx)
        self._dense_rows = n

    def _batch_rows(self, batch: Batch) -> np.ndarray:
        """Pool row index of every flattened ``(B * T)`` batch position,
        registering any keys not seen before."""
        quantised = np.floor_divide(batch.guide_xy, _QUANT).astype(np.int64)
        kx = quantised[..., 0].reshape(-1)
        ky = quantised[..., 1].reshape(-1)
        encoded = _encode(kx, ky)
        position, hit = self._locate(encoded)
        if not hit.all():
            # Some keys are new: compute each distinct missing key's row
            # once, refresh the sorted index, and look up again (one
            # extra pass; positions shift when the index grows).
            miss_idx = np.flatnonzero(~hit)
            _, first = np.unique(encoded[miss_idx], return_index=True)
            new = miss_idx[first]
            self._register_keys(list(zip(kx[new].tolist(), ky[new].tolist())))
            self._refresh_sorted_index()
            position, _ = self._locate(encoded)
        return self._enc_rows[position]

    def build(self, batch: Batch) -> np.ndarray:
        """Dense log mask for a whole batch: shape ``(B, T, num_segments)``.

        Vectorized over the unique quantised cache keys of the batch:
        each distinct key's row is computed (or fetched) once, and the
        dense ``(B, T, S)`` mask is assembled with a single fancy-index
        gather from the ``(U, S)`` row matrix instead of ``B * T``
        Python-level lookups and row copies.  This is the reference
        representation; the hot path is :meth:`build_sparse` (see
        :meth:`build_for`).
        """
        b, t = batch.guide_xy.shape[:2]
        num_segments = self.network.num_segments
        if self.identity:
            return np.zeros((b, t, num_segments), dtype=get_compute_dtype())
        rows = self._batch_rows(batch)
        self._densify_rows()
        return self._row_matrix[rows].reshape(b, t, num_segments)

    def _values_pool(self) -> np.ndarray:
        """The value pool in the active compute dtype.

        float64 compute reads the master pool directly; a reduced
        compute dtype reads a cast mirror that is re-materialised
        whenever the pool grew (or the dtype changed) since last time.
        """
        dtype = get_compute_dtype()
        if dtype == self._sp_values.dtype:
            return self._sp_values
        if (self._sp_values_cast is None
                or self._sp_values_cast.dtype != dtype
                or self._sp_cast_used != self._sp_used):
            self._sp_values_cast = self._sp_values[: self._sp_used].astype(dtype)
            self._sp_cast_used = self._sp_used
        return self._sp_values_cast

    def build_sparse(self, batch: Batch) -> SparseConstraintMask:
        """CSR log mask for a whole batch, straight from the sparse pool.

        One searchsorted key lookup plus one pooled gather; neither the
        dense ``(B, T, S)`` mask nor the ``(U, S)`` row matrix is ever
        materialised.  Values are bit-identical to the active entries of
        :meth:`build`'s output, in the active compute dtype.
        """
        b, t = batch.guide_xy.shape[:2]
        num_segments = self.network.num_segments
        if self.identity:
            return SparseConstraintMask.identity_mask((b, t, num_segments))
        rows = self._batch_rows(batch)
        indptr, pos = _gather_csr(self._sp_starts[rows], self._sp_lens[rows])
        return SparseConstraintMask(
            (b, t, num_segments), indptr, self._sp_indices[pos],
            self._values_pool()[pos], floor=_FLOOR_LOG,
        )

    def build_for(self, batch: Batch, model=None):
        """The mask representation the consuming model should receive.

        Returns :meth:`build_sparse`'s CSR mask unless ``model`` is
        given and does not advertise ``supports_sparse_mask``; then the
        dense :meth:`build` array.
        """
        if model is None or getattr(model, "supports_sparse_mask", False):
            return self.build_sparse(batch)
        return self.build(batch)

    def _locate(self, encoded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One searchsorted pass: ``(positions, hit_mask)`` for ``encoded``."""
        if self._enc_sorted.size == 0:
            return (np.zeros(encoded.shape, dtype=np.int64),
                    np.zeros(encoded.shape, dtype=bool))
        position = np.minimum(np.searchsorted(self._enc_sorted, encoded),
                              self._enc_sorted.size - 1)
        return position, self._enc_sorted[position] == encoded

    def _refresh_sorted_index(self) -> None:
        """Re-sort the encoded-key index over every registered pool row.

        Row ``i``'s key is ``_sp_keys[i]``, so the argsort order of the
        registered prefix *is* the sorted rows array.  A no-op (the same
        array objects survive) when no key was registered since the
        last refresh.
        """
        n = len(self._key_to_row)
        if self._enc_rows.size == n:
            return
        keys = self._sp_keys[:n]
        self._enc_rows = np.argsort(keys)
        self._enc_sorted = keys[self._enc_rows]

    def build_reference(self, batch: Batch) -> np.ndarray:
        """Per-point reference build (the pre-vectorization path).

        Kept for equivalence tests and as the baseline leg of the
        hot-path benchmark; ``build`` produces identical values.
        """
        b, t = batch.guide_xy.shape[:2]
        out = np.empty((b, t, self.network.num_segments),
                       dtype=get_compute_dtype())
        for i in range(b):
            for j in range(t):
                out[i, j] = self.log_mask_for_point(
                    batch.guide_xy[i, j, 0], batch.guide_xy[i, j, 1]
                )
        return out

    def clear_cache(self) -> None:
        """Drop memoised masks (tests / after changing parameters)."""
        self._cache.clear()
        self._key_to_row.clear()
        self._sp_keys = np.empty(0, dtype=np.int64)
        self._sp_starts = np.empty(0, dtype=np.int64)
        self._sp_lens = np.empty(0, dtype=np.int64)
        self._sp_indices = np.empty(0, dtype=np.int64)
        self._sp_values = np.empty(0)
        self._sp_used = 0
        self._sp_values_cast = None
        self._sp_cast_used = 0
        self._row_matrix = np.empty((0, self.network.num_segments))
        self._dense_rows = 0
        self._enc_sorted = np.empty(0, dtype=np.int64)
        self._enc_rows = np.empty(0, dtype=np.int64)
