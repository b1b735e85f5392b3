"""Per-admission oracle for the packed ``LiveDecodeSet``.

This is the original live set: each admission keeps its own rows,
clock, state and outputs, and every step re-joins the admissions'
constants and states, runs one batched kernel pass, then scatters the
outputs and the feedback back admission by admission.
``LiveDecodeSet`` must agree with :class:`OracleLiveSet` bitwise
(outputs, ``work_rows``, ``steps``) and call the emission policy's
``extend``/``compact`` hooks with the same arguments.
"""

from __future__ import annotations

import numpy as np

from repro.core.mask import SparseConstraintMask
from repro.nn.dtypes import get_compute_dtype
from repro.serving import LiveDecodeResult, MuxError


def join_masks(parts: list):
    """Row-concatenate per-admission step masks (dense or CSR)."""
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    total = sum(part.shape[0] for part in parts)
    s = parts[0].shape[-1]
    if parts[0].identity:
        return SparseConstraintMask.identity_mask((total, s))
    lens = np.concatenate([np.diff(part.indptr) for part in parts])
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return SparseConstraintMask(
        (total, s), indptr, np.concatenate([p.indices for p in parts]),
        np.concatenate([p.log_values for p in parts]), floor=parts[0].floor)


def join_states(states: list):
    return type(states[0])([np.concatenate(arrays)
                            for arrays in zip(*(s.arrays for s in states))])


def step_constants(program, rows: np.ndarray, t: int) -> tuple:
    """One admission's constants at its own clock ``t``."""
    return program.constants_at(program.row_tables(),
                                rows * program.num_steps + t)


class _Entry:
    def __init__(self, handle, program, batch, rows, lengths, b, t,
                 dense_rows):
        dtype = get_compute_dtype()
        self.handle = handle
        self.program = program
        self.batch = batch
        self.rows = rows
        self.lengths = lengths
        self.t = 0
        self.state = program.select_rows(program.initial_state(), rows)
        self.prev_segments = batch.tgt_segments[rows, 0].copy()
        self.prev_ratios = batch.tgt_ratios[rows, 0].copy()
        self.log_probs = np.zeros((b, t, program.num_classes), dtype=dtype)
        self.ratios = np.zeros((b, t), dtype=dtype)
        self.segments = np.zeros((b, t), dtype=np.int64)
        self.work = 0
        self.dense_rows = dense_rows

    def result(self) -> LiveDecodeResult:
        return LiveDecodeResult(
            handle=self.handle, log_probs=self.log_probs, ratios=self.ratios,
            segments=self.segments, work_rows=self.work,
            dense_rows=self.dense_rows, steps=self.t)


class OracleLiveSet:
    """The per-admission live set (same API as ``LiveDecodeSet``)."""

    def __init__(self, policy, max_batch: int | None = None):
        self.policy = policy
        self.max_batch = max_batch
        self._entries: list[_Entry] = []
        self._ready: list[LiveDecodeResult] = []
        self._mux_key = None
        self._next_handle = 0

    @property
    def rows(self) -> int:
        return sum(e.rows.size for e in self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries and not self._ready

    def admit(self, program, batch, lengths=None, rows=None) -> int:
        key = program.mux_key()
        if self._entries and key != self._mux_key:
            raise MuxError("not mux-compatible")
        b, t = program.num_rows, program.num_steps
        rows = (np.arange(b, dtype=np.int64) if rows is None
                else np.asarray(rows, dtype=np.int64))
        lengths = (np.full(b, t, dtype=np.int64) if lengths is None
                   else np.asarray(lengths, dtype=np.int64))
        if self.max_batch is not None \
                and self.rows + rows.size > self.max_batch:
            raise ValueError("max_batch")
        handle = self._next_handle
        self._next_handle += 1
        row_lengths = lengths[rows]
        alive = np.flatnonzero(row_lengths > 0)
        entry = _Entry(handle, program, batch, rows[alive],
                       row_lengths[alive], b, t, rows.size * t)
        if alive.size == 0:
            self._ready.append(entry.result())
            return handle
        self._entries.append(entry)
        if self._mux_key is None:
            self._mux_key = key
        self.policy.extend(alive.size)
        return handle

    def step(self) -> list[LiveDecodeResult]:
        results = self._ready
        self._ready = []
        entries = self._entries
        if not entries:
            return results
        template = entries[0].program
        states = [e.state for e in entries]
        constants = [step_constants(e.program, e.rows, e.t) for e in entries]
        prev_seg = [e.prev_segments for e in entries]
        prev_rat = [e.prev_ratios for e in entries]
        if sum(e.rows.size for e in entries) == 1:
            # BLAS guard: the sole live row's duplicate as ballast.
            states.append(states[0])
            constants.append(constants[0])
            prev_seg.append(prev_seg[0])
            prev_rat.append(prev_rat[0])
        joined = (np.concatenate([c[0] for c in constants]),
                  join_masks([c[1] for c in constants]))
        state, log_probs = template.advance_on(
            join_states(states), joined, np.concatenate(prev_seg),
            np.concatenate(prev_rat))
        step_segments = self.policy.select(log_probs)
        step_ratios = template.emit(state, step_segments)

        survivors = []
        kept_positions = []
        retired = False
        offset = 0
        for entry in entries:
            n = entry.rows.size
            span = slice(offset, offset + n)
            rows, t = entry.rows, entry.t
            entry.log_probs[rows, t] = log_probs[span]
            entry.segments[rows, t] = step_segments[span]
            entry.ratios[rows, t] = step_ratios[span]
            entry.work += n
            observed = entry.batch.observed_flags[rows, t]
            entry.prev_segments = np.where(
                observed, entry.batch.tgt_segments[rows, t],
                step_segments[span])
            entry.prev_ratios = np.where(
                observed, entry.batch.tgt_ratios[rows, t],
                np.clip(step_ratios[span], 0.0, 1.0))
            entry.state = template.select_rows(
                state, np.arange(offset, offset + n, dtype=np.int64))
            entry.t += 1
            keep = entry.lengths > entry.t
            if not keep.all():
                retired = True
                kept = np.flatnonzero(keep)
                entry.rows = entry.rows[kept]
                entry.lengths = entry.lengths[kept]
                entry.state = template.select_rows(entry.state, kept)
                entry.prev_segments = entry.prev_segments[kept]
                entry.prev_ratios = entry.prev_ratios[kept]
                kept_positions.append(offset + kept)
            else:
                kept_positions.append(
                    np.arange(offset, offset + n, dtype=np.int64))
            if entry.rows.size:
                survivors.append(entry)
            else:
                results.append(entry.result())
            offset += n
        self._entries = survivors
        if retired:
            self.policy.compact(np.concatenate(kept_positions))
        if not survivors:
            self._mux_key = None
        return results
