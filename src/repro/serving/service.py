"""In-process async front-end over the continuous batcher.

:class:`DecodeService` wraps a :class:`~repro.serving.ContinuousBatcher`
in one worker thread and a submit/result future API — the
dependency-light core the optional HTTP app
(:func:`repro.serving.create_app`) mounts, and a deployable serving
loop on its own:

* :meth:`DecodeService.submit` enqueues a request from any thread and
  returns a handle; :meth:`DecodeService.result` blocks until that
  request finishes (or re-raises its rejection).  The batcher records
  the process compute dtype at ``submit``, under the lock the worker
  steps under, so each request runs at the precision its submitter
  had ambient, never at a dtype a step holds only while it runs.
* **Backpressure**: submissions beyond ``max_queue`` pending requests
  raise :class:`QueueFullError` immediately — callers shed load at the
  door instead of growing an unbounded queue.  Per-request ``timeout``
  becomes a scheduler deadline: requests that cannot be admitted in
  time fail fast with
  :class:`~repro.serving.scheduler.DeadlineExceededError`.
* **Graceful drain/shutdown**: :meth:`drain` blocks until everything
  submitted so far has finished; :meth:`shutdown` stops intake and
  either drains (default) or abandons queued work, failing its futures
  with :class:`ServiceClosedError`.  The service is a context manager
  (``with DecodeService(model) as svc: ...`` drains on exit).
* **Fault isolation**: a malformed request fails alone (an
  ``InvalidRequestError``); any other exception out of a scheduler step
  fails every outstanding future with it and closes the service.

The worker serialises all batcher access under one lock, including the
decode step itself — a submitter may briefly wait out an in-flight
step.  That keeps the batcher single-threaded by construction; the
steps are short (one working-set kernel pass), and the lock is never
held while a *caller* blocks (``result``/``drain`` wait on the
condition with the lock released).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

from .scheduler import ContinuousBatcher, RequestError

__all__ = ["DecodeService", "QueueFullError", "ServiceClosedError"]


class QueueFullError(RuntimeError):
    """Backpressure: the service's pending-request budget is exhausted."""


class ServiceClosedError(RuntimeError):
    """The service is shut down (or abandoned this queued request)."""


class DecodeService:
    """Threaded serving loop around one :class:`ContinuousBatcher`.

    Parameters mirror the batcher (``model``, ``max_batch``,
    ``policy``, ``clock``) plus the service knobs: ``max_queue`` bounds
    pending (submitted but unfinished) requests — the backpressure
    limit — and ``start`` can defer worker startup for tests that want
    to drive :meth:`ContinuousBatcher.step` manually.
    """

    def __init__(self, model, *, max_batch: int = 8, max_queue: int = 64,
                 policy=None, clock=time.monotonic):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = max_queue
        self._clock = clock
        self._batcher = ContinuousBatcher(model, max_batch=max_batch,
                                          policy=policy, clock=clock)
        self._cond = threading.Condition()
        self._futures: dict[int, Future] = {}
        self._closed = False
        self._abandon = False
        self._stats = {"submitted": 0, "completed": 0, "rejected": 0,
                       "solo": 0}
        self._worker = threading.Thread(target=self._run,
                                        name="decode-service", daemon=True)
        self._worker.start()

    # -- client API -----------------------------------------------------
    def submit(self, batch, log_mask, *, lengths=None,
               timeout: float | None = None) -> int:
        """Enqueue one request batch; returns its handle.

        ``timeout`` (seconds) bounds how long the request may wait for
        admission.  Raises :class:`QueueFullError` when ``max_queue``
        requests are already pending and :class:`ServiceClosedError`
        after :meth:`shutdown`.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            if len(self._futures) >= self.max_queue:
                raise QueueFullError(
                    f"{len(self._futures)} requests pending "
                    f"(max_queue={self.max_queue})")
            handle = self._batcher.submit(batch, log_mask, lengths=lengths,
                                          deadline=deadline)
            self._futures[handle] = Future()
            self._stats["submitted"] += 1
            self._cond.notify_all()
            return handle

    def result(self, handle: int, timeout: float | None = None):
        """Block until request ``handle`` finishes; return its
        :class:`~repro.serving.ServedResult` or re-raise its rejection."""
        with self._cond:
            future = self._futures.get(handle)
        if future is None:
            raise KeyError(f"unknown or already-collected handle {handle}")
        try:
            return future.result(timeout=timeout)
        finally:
            with self._cond:
                if future.done():
                    self._futures.pop(handle, None)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has an outcome.

        Returns False if ``timeout`` elapsed first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._settled():
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)
        return True

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop intake; finish (default) or abandon outstanding work.

        With ``drain=False``, queued-but-unfinished requests fail with
        :class:`ServiceClosedError`.  Idempotent."""
        with self._cond:
            self._closed = True
            if not drain:
                self._abandon = True
            self._cond.notify_all()
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "DecodeService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    @property
    def stats(self) -> dict:
        """Counters plus live queue/working-set depths.

        ``solo`` counts the completed requests served outside the live
        set, one at a time, because the model has no decode program.
        """
        with self._cond:
            return dict(self._stats,
                        pending=len(self._futures),
                        queue_depth=self._batcher.queue_depth,
                        live_rows=self._batcher.live_rows)

    # -- worker ---------------------------------------------------------
    def _settled(self) -> bool:
        """All submitted work has an outcome (caller holds the lock)."""
        return (self._batcher.idle or self._closed) and all(
            f.done() for f in self._futures.values())

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed and self._batcher.idle:
                    self._cond.wait()
                if self._abandon or (self._closed and self._batcher.idle):
                    self._fail_outstanding()
                    return
                try:
                    outcomes = self._batcher.step()
                except Exception as fault:
                    self._closed = True
                    self._fail_outstanding(fault)
                    return
                for handle, outcome in outcomes:
                    future = self._futures.get(handle)
                    if future is None:  # result() already gave up on it
                        continue
                    if isinstance(outcome, RequestError):
                        self._stats["rejected"] += 1
                        future.set_exception(outcome)
                    else:
                        self._stats["completed"] += 1
                        self._stats["solo"] += outcome.solo_fallback
                        future.set_result(outcome)
                if outcomes:
                    self._cond.notify_all()

    def _fail_outstanding(self, fault: Exception | None = None) -> None:
        """Abandonment (or fault) path: fail every unfinished future
        with ``fault`` or a :class:`ServiceClosedError` (lock held)."""
        for future in self._futures.values():
            if not future.done():
                self._stats["rejected"] += 1
                future.set_exception(fault or ServiceClosedError(
                    "service shut down before this request ran"))
        self._cond.notify_all()
