"""Continuous-batching scheduler: a request queue over a live decode set.

:class:`ContinuousBatcher` is the serving control loop the ROADMAP's
heavy-traffic north star asks for: it owns one
:class:`~repro.serving.engine.DecodeSession` opened as a
:class:`~repro.serving.engine.LiveDecodeSet` and a FIFO request queue,
and interleaves **admission** with **stepping** — new trajectory
requests join the packed working set at step boundaries, filling rows
freed by retirement up to a ``max_batch`` budget, and each request's
result is returned the step its last row finishes.  Requests never
wait for a batch to assemble (the latency failure of static batching)
and the working set never idles rows on finished trajectories (the
throughput failure of padded decoding).

Correctness contract
--------------------
Every admitted request decodes **bit-identically** to a solo
:func:`~repro.serving.decode_model` call on the same request batch
under the same dtypes — proven by the property suite in
``tests/serving/test_continuous_batching.py``, not asserted.  The
engine's live set provides the kernel-level half of the contract (see
``repro/serving/engine.py``); the scheduler contributes the policy
half:

* **FIFO, head-of-line blocking admission.**  Requests are admitted in
  submission order, and a head request that does not currently fit —
  not enough free rows, a mux-incompatible program (e.g. a different
  attention encoder width), or a different compute dtype — *blocks* the
  queue rather than being overtaken.  Nothing can starve: the live set
  drains monotonically, an empty set accepts any program, and an empty
  queue-head admission unblocks everything behind it.
* **Per-request dtype capture.**  Each request records the process
  compute dtype at ``submit`` time, the request's program is built and
  admitted under it, and every step of a working set runs under the
  dtype its residents were admitted with — the
  :class:`~repro.federated.runner.RoundTask` re-assertion idiom applied
  to serving.  Requests with different compute dtypes never share a
  working set.
* **Solo fallback.**  A model with no decode program (the
  non-autoregressive FC baseline) cannot be muxed; its requests run as
  one-off solo :func:`~repro.serving.decode_model` calls at their
  admission turn, preserving FIFO order.

Deadlines are admission deadlines: a request whose deadline passes
while it is still queued is rejected with
:class:`DeadlineExceededError` and never touches the working set; once
admitted, a request always runs to completion (aborting a live row
would change its co-residents' compaction schedule for no benefit —
the work is already in flight).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn.flops import estimate_decode_flops
from .api import batch_lengths, decode_model
from .engine import DecodeSession, EmissionPolicy, MuxError

__all__ = ["ServedResult", "RequestError", "DeadlineExceededError",
           "InvalidRequestError", "ContinuousBatcher"]


class RequestError(RuntimeError):
    """Base class for per-request serving failures."""


class DeadlineExceededError(RequestError):
    """The request's deadline passed before it could be admitted."""


class InvalidRequestError(RequestError):
    """The request is malformed (its ``__cause__`` says how)."""


@dataclass(frozen=True)
class ServedResult:
    """One finished request's outputs plus its cost accounting."""

    handle: int
    segments: np.ndarray  # (B, T) int64, zeros beyond each row's length
    ratios: np.ndarray  # (B, T), zeros beyond each row's length
    log_probs: np.ndarray  # (B, T, S), zeros beyond each row's length
    work_rows: int  # live row-steps computed for this request (no ballast)
    dense_rows: int  # row-steps a padded decode would have computed
    steps: int  # engine steps between this request's admission and finish
    decode_flops: float  # analytic decode cost (true lengths, padded encoder)
    solo_fallback: bool = False  # decoded outside the live set (no program)


class _Request:
    __slots__ = ("handle", "batch", "log_mask", "lengths", "deadline",
                 "compute_dtype", "program", "program_built")

    def __init__(self, handle, batch, log_mask, lengths, deadline,
                 compute_dtype):
        self.handle = handle
        self.batch = batch
        self.log_mask = log_mask
        self.lengths = lengths
        self.deadline = deadline
        self.compute_dtype = compute_dtype
        self.program = None
        self.program_built = False


class ContinuousBatcher:
    """FIFO continuous-batching loop over one frozen model.

    Parameters
    ----------
    model:
        The recovery model to serve.  Its weights must not change while
        the batcher holds live requests (mux compatibility pins module
        identity, and co-resident rows share one kernel pass).
    max_batch:
        Working-set row budget — the latency/throughput knob.  Requests
        larger than this are rejected at ``submit``.
    policy:
        Emission-policy override for the owned session (default greedy).
    clock:
        Time source for deadlines (injectable for tests); defaults to
        :func:`time.monotonic`.

    Not thread-safe: callers (e.g. :class:`~repro.serving.DecodeService`)
    serialise access.
    """

    def __init__(self, model, *, max_batch: int = 8,
                 policy: EmissionPolicy | None = None, clock=time.monotonic):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.model = model
        self.max_batch = max_batch
        self._clock = clock
        self._live = DecodeSession(policy=policy).open(max_batch=max_batch)
        self._live_dtype: np.dtype | None = None  # the residents' compute dtype
        self._queue: deque[_Request] = deque()
        self._deadlines = 0  # queued requests that carry a deadline
        self._flops_memo: dict[tuple[int, int], float] = {}
        self._by_live_handle: dict[int, _Request] = {}
        self._next_handle = 0
        #: Request handles in the order they entered a working set (or
        #: ran their solo fallback) — the FIFO-admission audit trail.
        self.admission_log: list[int] = []

    # -- introspection --------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet admitted."""
        return len(self._queue)

    @property
    def live_rows(self) -> int:
        """Rows currently decoding in the working set."""
        return self._live.rows

    @property
    def idle(self) -> bool:
        """True when there is nothing queued and nothing decoding."""
        return not self._queue and self._live.empty

    # -- submission -----------------------------------------------------
    def submit(self, batch, log_mask, *, lengths: np.ndarray | None = None,
               deadline: float | None = None) -> int:
        """Queue one request batch; returns its handle.

        ``lengths`` defaults to the batch's ``tgt_mask`` row sums;
        ``deadline`` is an absolute :attr:`clock` value by which the
        request must have been *admitted*.  The request is decoded
        under the compute dtype ambient at this call.
        """
        rows = int(batch.size)
        if rows > self.max_batch:
            raise ValueError(
                f"request has {rows} rows but max_batch={self.max_batch}; "
                f"split the batch before submitting")
        if lengths is None:
            lengths = batch_lengths(batch)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (rows,) or lengths.max(initial=0) > batch.steps:
                raise ValueError(f"lengths {lengths.tolist()} do not fit the batch")
        handle = self._next_handle
        self._next_handle += 1
        self._queue.append(
            _Request(handle, batch, log_mask, lengths, deadline,
                     nn.get_compute_dtype()))
        self._deadlines += deadline is not None
        return handle

    # -- the serving loop -----------------------------------------------
    def step(self) -> list[tuple[int, ServedResult | RequestError]]:
        """One scheduler turn: expire, admit, advance.

        Returns ``(handle, outcome)`` pairs for every request that
        finished (a :class:`ServedResult`) or was rejected (a
        :class:`RequestError`) this turn.
        """
        outcomes: list[tuple[int, ServedResult | RequestError]] = []
        self._expire_queued(outcomes)
        self._admit(outcomes)
        if not self._live.empty:
            # Re-assert the residents' dtype only when the ambient one
            # differs (the common case needs no set/restore).
            dtype = (nullcontext() if self._live_dtype == nn.get_compute_dtype()
                     else nn.use_compute_dtype(self._live_dtype))
            with dtype, nn.no_grad():
                finished = self._live.step()
            for live_result in finished:
                request = self._by_live_handle.pop(live_result.handle)
                outcomes.append((request.handle,
                                 self._to_served(request, live_result)))
            if self._live.empty:
                self._live_dtype = None
        return outcomes

    def drain(self) -> list[tuple[int, ServedResult | RequestError]]:
        """Step until the queue and the working set are both empty."""
        outcomes: list[tuple[int, ServedResult | RequestError]] = []
        while not self.idle:
            outcomes.extend(self.step())
        return outcomes

    # -- internals ------------------------------------------------------
    def _expire_queued(self, outcomes) -> None:
        """Reject queued requests whose deadline has passed.

        Expired requests are removed *before* admission, so they never
        touch (or poison) the packed working set."""
        if not self._deadlines:
            return
        now = self._clock()
        kept: deque[_Request] = deque()
        for request in self._queue:
            if request.deadline is not None and now > request.deadline:
                outcomes.append((request.handle, DeadlineExceededError(
                    f"request {request.handle} missed its deadline "
                    f"({now - request.deadline:.3f}s late) while queued "
                    f"(queue depth {len(self._queue)}, "
                    f"live rows {self._live.rows})")))
            else:
                kept.append(request)
        self._queue = kept
        self._deadlines = sum(r.deadline is not None for r in kept)

    def _admit(self, outcomes) -> None:
        """Admit queued requests in FIFO order until the head blocks; a
        request whose program build or solo decode raises fails alone."""
        while self._queue:
            head = self._queue[0]
            if (self._live_dtype is not None
                    and head.compute_dtype != self._live_dtype):
                return  # wait for the set to drain, then re-key the dtype
            try:
                if not head.program_built:
                    with nn.use_compute_dtype(head.compute_dtype), nn.no_grad():
                        head.program = self.model.decode_program(
                            head.batch, head.log_mask)
                    head.program_built = True
                # No decode program (e.g. the FC baseline): serve solo
                # at the request's admission turn, preserving FIFO order.
                outcome = self._solo(head) if head.program is None else None
            except Exception as error:
                outcome = InvalidRequestError(
                    f"request {head.handle} is malformed: {error}")
                outcome.__cause__ = error
            if outcome is None:
                if int(head.batch.size) > self._free_rows():
                    return  # head-of-line: wait for retirement to free rows
                try:
                    # Admission sizes the request's output buffers: at
                    # its own compute dtype, not the ambient one.
                    with nn.use_compute_dtype(head.compute_dtype):
                        live_handle = self._live.admit(
                            head.program, head.batch, lengths=head.lengths)
                except MuxError:
                    return  # incompatible with residents: wait for drain
                self._by_live_handle[live_handle] = head
                if self._live_dtype is None:
                    self._live_dtype = head.compute_dtype
            else:
                outcomes.append((head.handle, outcome))
            self._queue.popleft()
            self._deadlines -= head.deadline is not None
            if not isinstance(outcome, InvalidRequestError):
                self.admission_log.append(head.handle)

    def _free_rows(self) -> int:
        free = self._live.free_rows
        return self.max_batch if free is None else free

    def _solo(self, request: _Request) -> ServedResult:
        with nn.use_compute_dtype(request.compute_dtype):
            output = decode_model(self.model, request.batch, request.log_mask)
        steps = int(request.batch.steps)
        return ServedResult(
            handle=request.handle,
            segments=output.segments,
            ratios=np.asarray(output.ratios.data),
            log_probs=np.asarray(output.log_probs.data),
            work_rows=int(request.batch.size) * steps,
            dense_rows=int(request.batch.size) * steps,
            steps=steps,
            decode_flops=self._flops(request),
            solo_fallback=True)

    def _to_served(self, request: _Request, live_result) -> ServedResult:
        return ServedResult(
            handle=request.handle,
            segments=live_result.segments,
            ratios=live_result.ratios,
            log_probs=live_result.log_probs,
            work_rows=live_result.work_rows,
            dense_rows=live_result.dense_rows,
            steps=live_result.steps,
            decode_flops=self._flops(request))

    def _flops(self, request: _Request) -> float:
        """Analytic decode cost: padded encoder, true per-row lengths."""
        seq_len = int(request.batch.steps)
        memo = self._flops_memo  # per (seq_len, decode_len): model frozen
        for n in request.lengths.tolist():
            if (seq_len, n) not in memo:
                memo[seq_len, n] = estimate_decode_flops(
                    self.model, seq_len, decode_len=n)
        return sum(memo[seq_len, n] for n in request.lengths.tolist())
