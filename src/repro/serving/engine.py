"""Batched variable-length decode engine (the serving hot path).

Autoregressive trajectory recovery steps a decoder once per output
timestep.  The padded decode paths step **every** batch row for
``max_length`` steps, so a batch of ragged-length trajectories pays for
``B * T_max`` row-steps even though only ``sum(T_i)`` carry signal.
:class:`DecodeSession` packs an arbitrary set of variable-length
trajectories into one batched stepping loop with **active-row
compaction**: rows whose trajectory is finished are dropped from the
working set at the step where they finish, every kernel in the step
(recurrent cells, heads, masked log-softmax) runs over the unfinished
rows only, and the outputs are scattered into their original positions.
Decode cost then scales with the number of *unfinished* rows per step.

A fixed working set runs as a **time-major plan**.  Its rows are sorted
once by decreasing length (stable), so the rows still decoding at step
``t`` are a prefix and compaction is a truncation of the state and the
fed-back arrays.  Plan entry ``offsets[t] + i`` is sorted row ``i`` at
step ``t``: the step constants (auxiliary features and the constraint
mask) are gathered in that order once per block of steps (at most
``_BLOCK_ROWS`` row-steps, so the extra memory is a block, not the
batch), and each step reads contiguous slices of its block.  The
observed flags and targets are gathered in plan order once; segments
and ratios are written in plan order and scattered once at the end;
log-probabilities go straight into the ``(B, T, S)`` output.

The engine is model-agnostic: it drives a **decode program** — an
adapter each recovery model builds via
:meth:`~repro.core.base.RecoveryModel.decode_program` — through a small
duck-typed protocol:

``num_rows`` / ``num_steps`` / ``num_classes``
    Working-set geometry (batch rows, max timesteps, vocabulary size).
``initial_state()``
    The per-row decoder state for all ``num_rows`` rows.  Must be safe
    to reuse across :meth:`DecodeSession.run` calls (the engine never
    mutates it; ``advance_on`` returns fresh state).
``select_rows(state, keep)``
    The state at positions ``keep`` (an index array, or a prefix
    ``slice``) of the current working set.
``row_tables()`` / ``constants_at(tables, flat_rows)``
    The per-row-step constants as flat tables over the program's
    ``B * T`` row-steps (row ``b * T + t``), and their gather at any
    row-steps: a tuple of arrays and CSR masks, each sliced by rows.
``advance_on(state, constants, prev_segments, prev_ratios)``
    Advance one step over the working set on its gathered constants and
    return ``(next_state, log_probs)`` with ``log_probs`` of shape
    ``(A, S)``.
``emit(state, segments)``
    The moving ratios ``(A,)`` for the segments the emission policy
    chose.

Choosing the emitted segment is delegated to a pluggable
:class:`EmissionPolicy` (greedy argmax today; the split
``advance_on``/``emit`` protocol is exactly the seam a beam policy
needs — score all hypotheses, then emit ratios for the survivors).

Determinism contract
--------------------
Compaction only ever *removes* rows from the batched kernels, and
sorting only *reorders* them inside a fixed-set working set; every
operation in a decode step is row-local, so each row computes the same
values it would inside the full batch.  Two BLAS caveats are handled
explicitly:

* single-output matmuls (``(M, K) @ (K, 1)`` — ratio heads, attention
  energies) dispatch to GEMV kernels whose accumulation blocking
  depends on ``M``, so the step kernels route them through the
  packing-stable :func:`repro.nn.row_dot` reduction instead;
* a single-row working set dispatches *every* matmul to GEMV, so when
  compaction would shrink a multi-row working set to exactly one row
  the engine carries the next (finished) row along as inert ballast
  (its outputs are discarded) and the live row keeps its GEMM
  bit-pattern.

Packed output is therefore **bit-identical** to the padded full-length
engine decode on every valid timestep, for any working set — including
one-row working sets (``decode_batch=1``, one-trajectory request
batches): a working set that *starts* at exactly one row carries a
duplicate of that row as inert **self-ballast**, so the live row runs
the same GEMM kernels (and therefore the same bit patterns) as inside
any larger packed batch.  That is what lets the continuous-batching
scheduler (:mod:`repro.serving.scheduler`) prove solo-vs-batched
*equality* rather than closeness.

One gap is known: OpenBLAS runs small GEMMs (``M * N * K`` up to
``1e6``) on a separate kernel, and above that size a row's last
``N mod 8`` output columns can depend on its position.  A working set
wide enough for its segment head to cross that size (about 300 rows at
``H = 16``, ``S = 206``) can therefore move a log-probability by an ULP
with the row order; segments and ratios did not move in any measured
case (``tests/serving/test_decode_plan.py``).

Live admission
--------------
:meth:`DecodeSession.open` returns a :class:`LiveDecodeSet` — the
incremental dual of :meth:`DecodeSession.run` that *also* accepts new
rows mid-flight (:meth:`LiveDecodeSet.admit`) at step boundaries, each
row on its own clock.  Admitted programs must be *mux-compatible* (see
``mux_key`` in :mod:`repro.serving.programs`).  Because every step
kernel is row-local and GEMM bit-patterns are row-count independent,
an admitted row computes exactly the bits of its solo
:func:`~repro.serving.api.decode_model` call, no matter what else
shares the working set or when it was admitted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from ..nn.dtypes import get_compute_dtype

__all__ = ["EmissionPolicy", "GreedyEmission", "PackedDecodeResult",
           "DecodeSession", "LiveDecodeSet", "LiveDecodeResult", "MuxError"]

#: Row-steps of constants :meth:`DecodeSession.run` gathers at once: a
#: working set's steps are cut into blocks of at most this many computed
#: rows (at least one step each), which bounds the plan's extra memory.
_BLOCK_ROWS = 1024


def _row_range(part, lo: int, hi: int):
    """Rows ``lo`` to ``hi`` of a gathered constant: a view of an array,
    a ``row_slice`` of a CSR mask."""
    if isinstance(part, np.ndarray):
        return part[lo:hi]
    return part.row_slice(lo, hi)


class EmissionPolicy:
    """Chooses the emitted segment per active row each decode step.

    ``select`` receives the masked log-probabilities ``(A, S)`` of the
    compacted working set and returns one segment id per row.  Policies
    are stateless with respect to the engine loop: richer policies
    (e.g. beam search) would subclass :class:`DecodeSession` to expand
    the working set per hypothesis, but reuse this same scoring seam —
    the engine already separates scoring (``advance_on``) from emission
    (``emit``), so a policy never has to re-run the decoder to change
    what is emitted.

    State extension seam
    --------------------
    A policy that keeps per-row state (a beam policy's per-row beam
    sets, a top-k sampler's per-row RNG lanes) tracks the working set
    through two hooks both engine loops call at every membership change:
    :meth:`extend` when rows join (appended at the end of the working
    set, in admission order; a fixed set joins once, with its rows that
    decode at all) and :meth:`compact` when finished rows retire
    (``keep`` holds the surviving positions, in order; a fixed set
    keeps a prefix of its length-sorted rows and ends empty).
    Both default to no-ops — greedy emission is stateless.  ``select``
    may additionally see **one trailing ballast row** beyond the
    tracked working set (the BLAS guard); its emission is discarded, so
    stateful policies should simply ignore positions past their tracked
    row count.
    """

    def select(self, log_probs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def extend(self, rows: int) -> None:
        """``rows`` new working-set rows were appended (admission)."""

    def compact(self, keep: np.ndarray) -> None:
        """The working set was compacted to positions ``keep``."""


class GreedyEmission(EmissionPolicy):
    """Argmax emission — the paper's decode rule (Eq. 11)."""

    def select(self, log_probs: np.ndarray) -> np.ndarray:
        return np.argmax(log_probs, axis=-1).astype(np.int64, copy=False)


@dataclass(frozen=True)
class PackedDecodeResult:
    """Re-scattered outputs of one packed decode run.

    Rows beyond a trajectory's length hold zeros (they are padding —
    no consumer reads them); ``work_rows`` / ``dense_rows`` record how
    many row-steps the packed loop actually computed vs what a padded
    loop would have, so packing efficiency is observable.
    """

    log_probs: np.ndarray  # (B, T, S) float, zeros beyond each length
    ratios: np.ndarray  # (B, T) float, zeros beyond each length
    segments: np.ndarray  # (B, T) int64, zeros beyond each length
    work_rows: int  # row-steps computed (incl. BLAS-guard ballast)
    dense_rows: int  # row-steps a padded decode would compute


class DecodeSession:
    """Packs ragged-length decode requests into one compacted loop.

    Parameters
    ----------
    policy:
        The :class:`EmissionPolicy`; default greedy argmax.
    decode_batch:
        Maximum number of trajectories stepped together.  ``None``
        decodes the whole request set as one working set; a positive
        value bounds peak per-step memory (each chunk shares the
        program's initial state, so e.g. the encoder still runs once
        for the full batch).  For ``decode_batch >= 2`` a trailing
        one-row chunk is folded into its predecessor so every working
        set keeps the two-row bitwise contract; ``decode_batch=1``
        working sets carry a duplicated-row self-ballast instead, which
        keeps them on the same GEMM kernels (and bits) as any larger
        working set at the cost of one extra computed row per step.
    """

    def __init__(self, policy: EmissionPolicy | None = None,
                 decode_batch: int | None = None):
        if decode_batch is not None and decode_batch < 1:
            raise ValueError("decode_batch must be >= 1 (or None)")
        self.policy = policy if policy is not None else GreedyEmission()
        self.decode_batch = decode_batch

    def open(self, max_batch: int | None = None) -> "LiveDecodeSet":
        """A live working set accepting mid-flight admission.

        The incremental dual of :meth:`run`: where ``run`` decodes a
        fixed request set to completion, the returned
        :class:`LiveDecodeSet` is stepped explicitly and admits new
        rows between steps, bounded by ``max_batch`` live rows.  The
        session's emission policy is shared with the live set.
        """
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1 (or None)")
        return LiveDecodeSet(self.policy, max_batch=max_batch)

    def run(self, program, batch, lengths: np.ndarray | None = None
            ) -> PackedDecodeResult:
        """Decode every row of ``batch`` through ``program``.

        ``lengths`` gives each row's number of valid decode steps;
        ``None`` decodes every row for the full padded ``num_steps``
        (the padded reference behaviour — no compaction ever happens).
        """
        b, t = program.num_rows, program.num_steps
        if lengths is None:
            lengths = np.full(b, t, dtype=np.int64)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (b,):
                raise ValueError(
                    f"lengths shape {lengths.shape} does not match {b} rows")
            if lengths.max(initial=0) > t:
                raise ValueError("a length exceeds the program's num_steps")
        dtype = get_compute_dtype()
        log_probs = np.zeros((b, t, program.num_classes), dtype=dtype)
        ratios = np.zeros((b, t), dtype=dtype)
        segments = np.zeros((b, t), dtype=np.int64)

        state0 = program.initial_state()
        work = 0
        chunk = b if self.decode_batch is None else self.decode_batch
        starts = list(range(0, b, chunk))
        if chunk >= 2 and len(starts) > 1 and b - starts[-1] == 1:
            # A trailing one-row chunk would decode through GEMV kernels
            # (different bit patterns); fold it into its predecessor so
            # every working set honours the >= 2-row bitwise contract.
            starts.pop()
        for i, start in enumerate(starts):
            stop = starts[i + 1] if i + 1 < len(starts) else b
            rows = np.arange(start, stop, dtype=np.int64)
            work += self._run_rows(program, state0, batch, lengths, rows,
                                   log_probs, ratios, segments)
        return PackedDecodeResult(
            log_probs=log_probs, ratios=ratios, segments=segments,
            work_rows=work, dense_rows=b * t,
        )

    # ------------------------------------------------------------------
    # one working set
    # ------------------------------------------------------------------
    def _run_rows(self, program, state0, batch, lengths: np.ndarray,
                  rows: np.ndarray, log_probs: np.ndarray, ratios: np.ndarray,
                  segments: np.ndarray) -> int:
        # Sort once, by decreasing length (stable): the rows still
        # decoding at step t are then the prefix ``order[:live[t]]``.
        order = rows[np.argsort(-lengths[rows], kind="stable")]
        ordered = lengths[order]
        if order.size == 1:
            # Self-ballast: a one-row working set would dispatch every
            # matmul to GEMV kernels whose bit-patterns differ from the
            # GEMM ones that packed multi-row sets run.  Carrying an
            # inert duplicate of the row (length 0: it emits nothing)
            # keeps the live row on the GEMM kernels, making one-row
            # decodes bit-identical to the same row inside any packed
            # working set.
            order = np.concatenate([order, order])
            ordered = np.array([ordered[0], 0], dtype=np.int64)
        horizon = int(ordered.max(initial=0))
        if horizon == 0:
            return 0
        live = order.size - np.cumsum(np.bincount(ordered))[:horizon]
        # BLAS guard: a sole live row carries the next (finished) row
        # along as ballast, so no step runs a one-row GEMV.
        width = np.maximum(live, 2)
        offsets = np.zeros(horizon + 1, dtype=np.int64)
        np.cumsum(width, out=offsets[1:])
        ballast = offsets[:-1][live == 1] + 1  # plan entries that emit nothing
        # The time-major plan: entry ``offsets[t] + i`` is row
        # ``order[i]`` at step ``t``; constants, feedback and outputs
        # are laid out the same way.
        step_of = np.repeat(np.arange(horizon), width)
        row_of = order[np.arange(offsets[-1]) - offsets[step_of]]
        observed = batch.observed_flags[row_of, step_of]
        tgt_segments = batch.tgt_segments[row_of, step_of]
        tgt_ratios = batch.tgt_ratios[row_of, step_of]
        out_segments = np.empty(offsets[-1], dtype=np.int64)
        out_ratios = np.empty(offsets[-1], dtype=ratios.dtype)

        state = program.select_rows(state0, order)
        prev_segments = batch.tgt_segments[order, 0]
        prev_ratios = batch.tgt_ratios[order, 0]
        tables = program.row_tables()
        bounds, live, width = offsets.tolist(), live.tolist(), width.tolist()
        self.policy.extend(live[0])
        block_end = 0
        for t in range(horizon):
            lo, hi, n = bounds[t], bounds[t + 1], width[t]
            if t == block_end:  # gather the next block's step constants
                block_start = lo
                block_end = max(t + 1, bisect.bisect_right(
                    bounds, lo + _BLOCK_ROWS) - 1)
                span = slice(lo, bounds[block_end])
                block = program.constants_at(
                    tables, row_of[span] * program.num_steps + step_of[span])
            if n < len(prev_segments):  # rows finished: keep the prefix
                state = program.select_rows(state, slice(n))
                prev_segments, prev_ratios = prev_segments[:n], prev_ratios[:n]
            if t and live[t] < live[t - 1]:
                self.policy.compact(np.arange(live[t]))
            constants = tuple(
                _row_range(part, lo - block_start, hi - block_start)
                for part in block)
            state, step_logs = program.advance_on(state, constants,
                                                  prev_segments, prev_ratios)
            step_segments = self.policy.select(step_logs)
            step_ratios = program.emit(state, step_segments)
            log_probs[order[:live[t]], t] = step_logs[:live[t]]
            del step_logs  # free it before the next step's kernels run
            out_segments[lo:hi] = step_segments
            out_ratios[lo:hi] = step_ratios
            # Autoregressive feedback: observed points are inputs, not
            # predictions — clamp them to their known values.
            clamp = observed[lo:hi]
            prev_segments = np.where(clamp, tgt_segments[lo:hi], step_segments)
            prev_ratios = np.where(clamp, tgt_ratios[lo:hi],
                                   np.clip(step_ratios, 0.0, 1.0))
        self.policy.compact(np.arange(0))
        emitted = np.ones(offsets[-1], dtype=bool)
        emitted[ballast] = False
        segments[row_of[emitted], step_of[emitted]] = out_segments[emitted]
        ratios[row_of[emitted], step_of[emitted]] = out_ratios[emitted]
        return bounds[-1]


class MuxError(ValueError):
    """A program cannot join the live working set (incompatible mux
    geometry, a different program family, or no admission protocol)."""


@dataclass(frozen=True)
class LiveDecodeResult:
    """One finished admission's re-scattered outputs.

    The live-set sibling of :class:`PackedDecodeResult`; ``work_rows``
    counts only this entry's own live row-steps — BLAS-guard ballast
    rows are **excluded**, so per-request cost accounting (decode
    FLOPs, packing ratios) never double-counts the guard.
    """

    handle: int  # the token admit() returned for this entry
    log_probs: np.ndarray  # (B, T, S), zeros beyond each length
    ratios: np.ndarray  # (B, T), zeros beyond each length
    segments: np.ndarray  # (B, T) int64, zeros beyond each length
    work_rows: int  # live row-steps computed for this entry (no ballast)
    dense_rows: int  # row-steps a padded decode of this entry would compute
    steps: int  # per-entry clock value when the last row retired


def _extend(table, used: int, part):
    """``table`` (None: a new one) with ``part``'s rows written from row
    ``used`` on.  Arrays grow geometrically, so the table's length
    counts spare capacity; masks extend through ``extend_rows``."""
    if not isinstance(part, np.ndarray):
        return type(part).extend_rows(table, used, part)
    end = used + len(part)
    if table is None:
        table = np.empty((2 * end,) + part.shape[1:], dtype=part.dtype)
    elif end > len(table):
        table = np.resize(table, (2 * end,) + part.shape[1:])
    table[used:end] = part
    return table


@dataclass
class _Block:
    """One decoding admission's ``B * T`` rows of the live set's tables."""

    start: int  # first table row; moves when the tables compact
    rows: int  # the program's B
    steps: int  # the program's T
    work: int  # live row-steps it will compute
    dense_rows: int
    horizon: int  # its clock when its last row retires


class LiveDecodeSet:
    """A packed working set with mid-flight admission (the serving dual
    of per-step row retirement).

    Per live row the set keeps the decoder state, the fed-back segment
    and ratio, a clock, a length and a base offset, in admission order
    (batch order within an admission).  Each admission's per-row-step
    constants (the program's ``row_tables()``, the batch's observed
    flags and targets) and its zero-filled outputs are appended once to
    flat tables, row-step ``(b, t)`` at table row ``start + b * T + t``
    and base ``start + b * T``.  A step gathers every row's constants
    at ``base + clock`` — its own steps of its own batch — and scatters
    the outputs with the same index vector, whatever the number of
    admissions.  Retired blocks are dropped once they outnumber the
    live ones (or an admission would grow the tables), so the tables
    hold at most twice the live blocks' rows.

    The first admission into an empty set fixes the mux key; draining
    the set resets it.  ``max_batch`` bounds the *live* rows; the
    BLAS-guard ballast row (carried whenever exactly one row is live)
    holds no request, emits nothing, and is in no work counter.
    """

    def __init__(self, policy: EmissionPolicy, max_batch: int | None = None):
        self.policy = policy
        self.max_batch = max_batch
        self._ready: list[LiveDecodeResult] = []
        self._next_handle = 0
        self._drained()

    def _drained(self) -> None:
        """Forget the (empty) working set: tables, key and template."""
        self._blocks: dict[int, _Block] = {}  # by handle, admission order
        self._mux_key = self._program = None  # the program: step template
        self._tables: tuple = ()  # batch targets, outputs, row_tables()
        self._used = 0  # table rows, retired blocks included
        self._live_size = 0  # table rows of decoding admissions
        self._state = None
        self._set_per_row((np.empty(0, dtype=np.int64),) * 6)

    def _per_row(self) -> tuple:
        return (self._clock, self._length, self._base, self._owner,
                self._prev_segments, self._prev_ratios)

    def _set_per_row(self, arrays) -> None:
        (self._clock, self._length, self._base, self._owner,
         self._prev_segments, self._prev_ratios) = arrays

    # -- introspection --------------------------------------------------
    @property
    def rows(self) -> int:
        """Live rows currently in the working set (ballast excluded)."""
        return int(self._clock.size)

    @property
    def free_rows(self) -> int | None:
        """Admission headroom under ``max_batch`` (None = unbounded)."""
        if self.max_batch is None:
            return None
        return max(0, self.max_batch - self.rows)

    @property
    def empty(self) -> bool:
        """True when nothing is decoding and no result is pending."""
        return not self._blocks and not self._ready

    @property
    def entries(self) -> int:
        """Number of admissions currently decoding."""
        return len(self._blocks)

    # -- admission ------------------------------------------------------
    def admit(self, program, batch, lengths: np.ndarray | None = None,
              rows: np.ndarray | None = None) -> int:
        """Admit ``rows`` of ``program`` (default: all) into the set.

        Returns an opaque handle identifying the admission; the matching
        :class:`LiveDecodeResult` comes out of a later :meth:`step`
        call.  Raises :class:`MuxError` when the program cannot share
        the current working set and ``ValueError`` when the admission
        would exceed ``max_batch``.
        """
        key = getattr(program, "mux_key", None)
        if key is None:
            raise MuxError(
                f"{type(program).__name__} has no mux_key(): it does not "
                f"implement the live-admission program protocol")
        key = program.mux_key()
        if self._blocks and key != self._mux_key:
            raise MuxError(
                f"program is not mux-compatible with the live working set "
                f"(admitted {self._mux_key!r}, got {key!r})")
        b, t = program.num_rows, program.num_steps
        if rows is None:
            rows = np.arange(b, dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        if lengths is None:
            lengths = np.full(b, t, dtype=np.int64)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (b,):
                raise ValueError(
                    f"lengths shape {lengths.shape} does not match {b} rows")
            if lengths.max(initial=0) > t:
                raise ValueError("a length exceeds the program's num_steps")
        if self.max_batch is not None \
                and self.rows + rows.size > self.max_batch:
            raise ValueError(
                f"admitting {rows.size} row(s) would exceed max_batch="
                f"{self.max_batch} (live rows: {self.rows})")
        handle = self._next_handle
        self._next_handle += 1
        dtype = get_compute_dtype()
        outputs = (np.zeros((b * t, program.num_classes), dtype=dtype),
                   np.zeros(b * t, dtype=dtype), np.zeros(b * t, dtype=np.int64))
        row_lengths = lengths[rows]
        alive = np.flatnonzero(row_lengths > 0)
        if alive.size == 0:
            # Nothing to decode (all-zero lengths): finish immediately.
            self._ready.append(LiveDecodeResult(
                handle, outputs[0].reshape(b, t, -1), outputs[1].reshape(b, t),
                outputs[2].reshape(b, t), 0, rows.size * t, 0))
            return handle
        live_rows, live_lengths = rows[alive], row_lengths[alive]
        if (self._blocks and self._used > self._live_size
                and self._used + b * t > len(self._tables[0])):
            self._compact_tables()  # make room before growing
        parts = (batch.observed_flags.reshape(-1),
                 batch.tgt_segments.reshape(-1), batch.tgt_ratios.reshape(-1),
                 *outputs, *program.row_tables())
        state = program.select_rows(program.initial_state(), live_rows)
        per_row = (np.zeros(alive.size, dtype=np.int64), live_lengths,
                   self._used + live_rows * t,
                   np.full(alive.size, handle, dtype=np.int64),
                   batch.tgt_segments[live_rows, 0],
                   batch.tgt_ratios[live_rows, 0])
        if self._blocks:
            state = type(state)([np.concatenate(pair) for pair
                                 in zip(self._state.arrays, state.arrays)])
            per_row = tuple(map(np.concatenate, zip(self._per_row(), per_row)))
        else:  # a new generation
            self._tables = (None,) * len(parts)
            self._mux_key, self._program = key, program
        # The last fallible step (a malformed batch fails here): it
        # writes past ``_used`` only, where no live row reads.
        self._tables = tuple(_extend(table, self._used, part)
                             for table, part in zip(self._tables, parts))
        self._state = state
        self._set_per_row(per_row)
        self._blocks[handle] = _Block(
            self._used, b, t, int(live_lengths.sum()), rows.size * t,
            int(live_lengths.max()))
        self._used += b * t
        self._live_size += b * t
        self.policy.extend(alive.size)
        return handle

    # -- stepping -------------------------------------------------------
    def step(self) -> list[LiveDecodeResult]:
        """Advance every live row one step; return finished admissions.

        One constants gather at every row's ``base + clock``, one
        batched kernel pass, one vectorised output scatter and
        feedback, and one compaction when rows retire.
        """
        results = self._ready
        self._ready = []
        if not self._blocks:
            return results
        program, n = self._program, self.rows
        at = self._base + self._clock
        state, prev_seg, prev_rat, gather = (
            self._state, self._prev_segments, self._prev_ratios, at)
        if n == 1:
            # BLAS guard (see the module docstring): duplicate the sole
            # live row as inert trailing ballast so the step runs GEMM
            # kernels; its outputs are discarded below.
            pair = np.zeros(2, dtype=np.int64)
            state = program.select_rows(state, pair)
            prev_seg, prev_rat, gather = prev_seg[pair], prev_rat[pair], at[pair]
        observed, tgt_segments, tgt_ratios, out_logs, out_ratios, \
            out_segments, *constants = self._tables
        state, log_probs = program.advance_on(
            state, program.constants_at(constants, gather), prev_seg, prev_rat)
        step_segments = self.policy.select(log_probs)
        step_ratios = program.emit(state, step_segments)[:n]
        step_segments = step_segments[:n]
        out_logs[at] = log_probs[:n]
        out_segments[at] = step_segments
        out_ratios[at] = step_ratios
        # Autoregressive feedback: observed points are inputs, not
        # predictions — clamp them to their known values.
        clamp = observed[at]
        self._prev_segments = np.where(clamp, tgt_segments[at], step_segments)
        self._prev_ratios = np.where(clamp, tgt_ratios[at],
                                     np.clip(step_ratios, 0.0, 1.0))
        self._state = state if n > 1 else program.select_rows(state, pair[:1])
        self._clock = self._clock + 1
        done = self._clock >= self._length
        if done.any():
            results.extend(self._retire(done))
        return results

    def _retire(self, done: np.ndarray) -> list[LiveDecodeResult]:
        """Drop finished rows; emit every admission that lost its last."""
        keep = np.flatnonzero(~done)
        self.policy.compact(keep)
        remaining = set(self._owner[keep].tolist())
        finished = [handle for handle in dict.fromkeys(self._owner[done].tolist())
                    if handle not in remaining]
        self._state = self._program.select_rows(self._state, keep)
        self._set_per_row(a[keep] for a in self._per_row())
        results = [self._result(handle) for handle in finished]
        if not self._blocks:
            self._drained()  # the next admit re-keys the set
        elif self._used - self._live_size > self._live_size:
            self._compact_tables()
        return results

    def _result(self, handle: int) -> LiveDecodeResult:
        block = self._blocks.pop(handle)
        b, t = block.rows, block.steps
        self._live_size -= b * t
        log_probs, ratios, segments = (
            table[block.start:block.start + b * t].copy()
            for table in self._tables[3:6])
        return LiveDecodeResult(
            handle, log_probs.reshape(b, t, -1), ratios.reshape(b, t),
            segments.reshape(b, t), block.work, block.dense_rows,
            block.horizon)

    def _compact_tables(self) -> None:
        """Drop retired blocks from the tables (rows keep their order)."""
        keep, shifts, start = [], [], 0
        for block in self._blocks.values():
            size = block.rows * block.steps
            keep.append(np.arange(block.start, block.start + size))
            shifts.append(block.start - start)
            block.start = start
            start += size
        keep = np.concatenate(keep)
        self._tables = tuple(_extend(table, 0, table[keep] if isinstance(
            table, np.ndarray) else table.gather(keep)) for table in self._tables)
        # Rows are grouped by admission, in admission order, and every
        # decoding admission still owns at least one row.
        counts = np.unique(self._owner, return_counts=True)[1]
        self._base = self._base - np.repeat(shifts, counts)
        self._used = start
