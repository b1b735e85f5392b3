"""The central server of the horizontal FL architecture.

Holds the global model, samples a client fraction each round
(Algorithm 3 line 2), and aggregates uploaded parameters (line 11).

The server views the global model through a
:class:`~repro.nn.flatten.FlatParameterSpace`: broadcast and
aggregation move single ``(P,)`` vectors, and averaging ``C`` uploads
is one ``np.average`` over the stacked ``(C, P)`` matrix.  The flat
vectors are float64; a float32 wire is the ``"float32"`` exchange codec
(:mod:`repro.federated.communication`), and aggregation averages the
decoded uploads in float64 either way.
"""

from __future__ import annotations

import numpy as np

from ..core.base import RecoveryModel
from ..nn.flatten import FlatParameterSpace
from .aggregation import average_flat, average_states

__all__ = ["FederatedServer", "AggregationSlab", "DEFAULT_MAX_UPLOAD_NORM"]

#: Default ceiling on the L2 norm of an accepted upload.  Healthy
#: uploads sit orders of magnitude below this; a norm-blowup corruption
#: (:data:`repro.federated.faults.NORM_BLOWUP`) sits orders above.
DEFAULT_MAX_UPLOAD_NORM = 1e6


class AggregationSlab:
    """A preallocated, grow-only ``(capacity, P)`` float64 staging
    buffer for one flush's uploads.

    The trainer copies every buffered upload into a slab row, so the
    FedAvg reduction runs over one contiguous 2-D array.  Because
    :func:`~repro.federated.aggregation.average_flat` already upcasts
    its stacked input to a C-contiguous float64 matrix, feeding it a
    slab view is **bitwise identical** to the historical
    stack-of-vectors path — float32→float64 casts are exact and the
    reduction sees the same memory layout either way.

    The slab never shrinks: growth is geometric on capacity and linear
    on ``P`` changes (only relevant to tests that rebuild worlds), so a
    steady-state trainer allocates it once.
    """

    def __init__(self, num_parameters: int, capacity: int = 0):
        if num_parameters < 1:
            raise ValueError("slab needs at least one parameter column")
        self.num_parameters = int(num_parameters)
        capacity = max(1, int(capacity))
        self._buf = np.empty((capacity, self.num_parameters), dtype=np.float64)

    @property
    def capacity(self) -> int:
        return self._buf.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing buffer (for memory accounting)."""
        return self._buf.nbytes

    def rows(self, count: int) -> np.ndarray:
        """A writable ``(count, P)`` float64 view, growing the backing
        buffer if this round samples more clients than any before."""
        if count < 0:
            raise ValueError(f"cannot stage {count} rows")
        if count > self._buf.shape[0]:
            grown = max(count, 2 * self._buf.shape[0])
            self._buf = np.empty((grown, self.num_parameters),
                                 dtype=np.float64)
        return self._buf[:count]


class FederatedServer:
    """Orchestrates parameter exchange; never sees raw trajectories."""

    def __init__(self, global_model: RecoveryModel):
        self.global_model = global_model
        self._space = FlatParameterSpace.from_module(global_model)

    def global_state(self) -> dict:
        """The current global parameters as a state dict."""
        return self.global_model.state_dict()

    def global_flat(self, dtype=np.float64) -> np.ndarray:
        """The current global parameters as one flat ``(P,)`` vector
        (float64 unless ``dtype`` says otherwise)."""
        return self._space.get_flat(dtype=dtype)

    def load_global_flat(self, flat: np.ndarray) -> None:
        """Overwrite the global parameters from one flat ``(P,)`` vector
        (checkpoint restore)."""
        self._space.set_flat(flat)

    @property
    def num_parameters(self) -> int:
        """Size ``P`` of the flat parameter vector."""
        return self._space.total_size

    def select_clients(self, num_clients: int, fraction: float,
                       rng: np.random.Generator,
                       candidates: "list[int] | None" = None) -> list[int]:
        """Randomly sample ``ceil(fraction * num_clients)`` client ids.

        ``candidates`` restricts the draw to a subset (the async
        trainer's idle clients; None means every client); the target
        count is still computed from the federation size, capped by
        the candidates available.  An empty candidate list selects
        nobody.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"client fraction must be in (0, 1], got {fraction}")
        count = max(1, int(np.ceil(fraction * num_clients)))
        pool = (np.arange(num_clients, dtype=np.int64) if candidates is None
                else np.asarray(sorted(candidates), dtype=np.int64))
        if not pool.size:
            return []
        picks = rng.choice(pool, size=min(count, pool.size), replace=False)
        return sorted(int(i) for i in picks)

    def validate_upload(self, vector,
                        max_norm: float | None = DEFAULT_MAX_UPLOAD_NORM
                        ) -> str | None:
        """Why this upload must be rejected, or None if it is acceptable.

        Checks — in order — that the payload is an array of the global
        shape ``(P,)``, of a floating dtype, fully finite, and (when
        ``max_norm`` is given) of bounded L2 norm.  The last two run in
        :meth:`validate_rows` over a one-row float64 view.  The trainer
        treats a rejection as a client failure for the round, so one
        poisoned payload can never NaN the global average.
        """
        arr = np.asarray(vector)
        expected = self._space.total_size
        if arr.shape != (expected,):
            return f"shape {arr.shape} != ({expected},)"
        if not np.issubdtype(arr.dtype, np.floating):
            return f"non-float dtype {arr.dtype}"
        row = arr.astype(np.float64, copy=False).reshape(1, expected)
        return self.validate_rows(row, max_norm)[0]

    def validate_rows(self, matrix: np.ndarray,
                      max_norm: float | None = DEFAULT_MAX_UPLOAD_NORM
                      ) -> "list[str | None]":
        """Per-row rejection reasons for staged uploads (None = accept).

        The finiteness test is vectorised over the whole ``(C, P)``
        float64 matrix; the norm is computed per row over the 1-D view
        because ``np.linalg.norm(matrix, axis=1)`` reduces in a
        different association order than the per-vector call.  Shape
        and dtype are the caller's to check (:meth:`validate_upload`).
        """
        finite_rows = np.isfinite(matrix).all(axis=1)
        reasons: "list[str | None]" = []
        for i, row in enumerate(matrix):
            if not finite_rows[i]:
                bad = int(row.size - np.isfinite(row).sum())
                reasons.append(f"{bad} non-finite entries")
                continue
            if max_norm is not None:
                norm = float(np.linalg.norm(row))
                if norm > max_norm:
                    reasons.append(f"norm {norm:.3g} exceeds {max_norm:g}")
                    continue
            reasons.append(None)
        return reasons

    def aggregate_rows(self, matrix: np.ndarray,
                       weights: list[float] | None = None) -> np.ndarray:
        """Average a staged ``(C, P)`` slab view into the global model.

        The zero-copy dual of :meth:`aggregate_flat`: the rows were
        decoded straight into the slab, so no stacking happens here —
        :func:`average_flat` reduces the float64 matrix as-is, which is
        bitwise identical to stacking ``C`` separate vectors first.
        Rows must already have passed :meth:`validate_rows`.
        """
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError(
                f"cannot aggregate slab of shape {np.shape(matrix)}; "
                f"need a non-empty (C, P) matrix")
        if matrix.shape[1] != self._space.total_size:
            raise ValueError(
                f"slab width {matrix.shape[1]} != global parameter "
                f"count {self._space.total_size}")
        new_flat = average_flat(matrix, weights)
        self._space.set_flat(new_flat)
        return new_flat

    def aggregate_flat(self, vectors: list[np.ndarray],
                       weights: list[float] | None = None) -> np.ndarray:
        """Average uploaded flat vectors into the global model.

        Uploads may arrive in any float dtype; the average itself runs
        in float64.
        Non-finite uploads are refused outright — callers wanting
        per-client tolerance screen with :meth:`validate_upload` first.
        """
        if not vectors:
            raise ValueError("cannot aggregate zero states")
        expected = self._space.total_size
        for i, vec in enumerate(vectors):
            arr = np.asarray(vec)
            if arr.shape != (expected,):
                raise ValueError(
                    f"client vector {i} has shape {arr.shape}, "
                    f"expected ({expected},)"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(
                    f"client vector {i} contains non-finite entries; "
                    f"screen uploads with validate_upload() first"
                )
        new_flat = average_flat(np.stack(vectors), weights)
        self._space.set_flat(new_flat)
        return new_flat

    def aggregate(self, states: list[dict],
                  weights: list[float] | None = None) -> dict:
        """Average uploaded state dicts into the global model (dict shim).

        The paper's Algorithm 3 uses the uniform mean; passing
        ``weights`` gives example-count-weighted FedAvg instead.
        """
        new_state = average_states(states, weights)
        self.global_model.load_state_dict(new_state)
        return new_state
