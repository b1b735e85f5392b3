"""Pluggable round execution backends for :class:`FederatedTrainer`.

The paper's Algorithm 3 is embarrassingly parallel across the clients
selected in a round: each client downloads the same flat global vector,
trains locally on private data, and uploads a flat vector.  This module
factors the *execution* of one round out of the trainer into a
:class:`RoundRunner` with two backends:

:class:`ArenaRunner`
    Runs the selected clients in-process, one after another, through
    the trainer's bounded :class:`~repro.federated.arena.ModelArena`:
    each task checks out a slot, hydrates it from the task's session
    snapshot and the broadcast, trains, and checks the slot back in.
    The default.

:class:`ProcessPoolRunner`
    Ships each selected client a picklable :class:`RoundTask` — the
    flat global ``(P,)`` vector, the client id, the epoch count, the
    frozen teacher's flat state, and the client's
    :class:`~repro.federated.client.ClientSessionState` (RNG +
    optimiser moments) — to a persistent pool of worker processes.
    Each worker rebuilds the model, constraint-mask builder, and client
    datasets **once** (from the :class:`WorkerSetup` passed to the pool
    initializer) and reuses them across every round.

Both backends execute tasks through the same :class:`TaskExecutor`,
so they differ only in where it runs.

Determinism guarantee
---------------------
With fixed seeds, serial and process-pool runs produce **bit-identical**
round histories and final global parameters:

* every task carries the client's full mutable state (RNG bit-generator
  state, flat Adam/SGD moments), so results do not depend on which
  worker executes which client, or on pool scheduling;
* tasks also re-assert the process-global compute dtype inside the
  worker (worker-side models are cast in place if the parent flipped
  it after pool start-up), so both sides run the same kernels at the
  same precision;
* the trainer submits tasks in ascending client-id order and the
  runners return results in task order, so aggregation order never
  depends on completion order;
* injected faults (:mod:`repro.federated.faults`) are a pure function
  of ``(round, client, attempt)``, so the failure/retry/survivor
  schedule — and therefore the aggregated history — is identical under
  both backends too.

RoundTask shipping contract
---------------------------
A :class:`RoundTask` must stay cheap to pickle and self-sufficient: the
flat ``(P,)`` global vector, the client id, the round index, the local
epoch count, the frozen teacher's flat state (or ``None``), the
client's session snapshot (or ``None`` for the pristine session), and
the six global switches above.  Heavy, rebuildable objects never ride
on tasks — the datasets, road network, constraint-mask builder, and
fault plan travel once in the :class:`WorkerSetup` (the builder pickles
*cache-free*: its sparse row pool and dense row mirrors are dropped by
``__getstate__`` and re-warmed in the worker via
:meth:`ConstraintMaskBuilder.warm`, which fills sparse rows only).

Failure handling
----------------
Per-client failures (an injected fault, a task exception, a blown
per-task deadline) are **per-task outcomes**, not round aborts:
:meth:`RoundRunner.run_round_tolerant` retries the same
:class:`RoundTask` up to :attr:`RetryPolicy.retries` times — the
session snapshot inside the task makes re-execution exact — and then
records a :class:`ClientFailure` instead of raising.  Only a
*whole-pool* failure (dead workers after one in-round pool rebuild)
raises :class:`RoundExecutionError`; the trainer then re-executes just
that round with an :class:`ArenaRunner` and keeps the pool for the
next round — permanent serial demotion is the last resort after
consecutive whole-pool failures.  The strict :meth:`RoundRunner.run_round`
API (fail the round on any error) is kept for callers that want the
original fail-closed behaviour.
"""

from __future__ import annotations

import ctypes
import glob
import multiprocessing as mp
import os
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import nn
from ..core.base import RecoveryModel
from ..core.distill import MetaKnowledgeDistiller
from ..core.mask import ConstraintMaskBuilder
from ..core.training import TrainingConfig
from ..nn.flatten import FlatParameterSpace
from .arena import ModelArena
from .client import ClientData, ClientSessionState, FederatedClient
from .communication import (
    EncodedPayload,
    codec_by_name,
    decode_payload,
    encode_with_feedback,
    payload_num_bytes,
)
from .faults import ClientFaultError, FaultEvent, FaultPlan

__all__ = [
    "RoundTask", "RoundResult", "RoundExecutionError", "WorkerSetup",
    "RetryPolicy", "ClientFailure", "RoundExecution", "TaskExecutor",
    "RoundRunner", "ArenaRunner", "ProcessPoolRunner",
    "preferred_start_method",
]


class RoundExecutionError(RuntimeError):
    """A parallel round could not be executed at all (whole-pool
    failure that survived an in-round rebuild, or pickling failure).
    The trainer re-runs the round serially."""


def preferred_start_method() -> str | None:
    """The multiprocessing start method the pool runner uses by default.

    ``fork`` when the platform offers it: workers inherit the parent's
    world (datasets, road network, model factory closures) without any
    pickling, so pool start-up is milliseconds.  Otherwise the platform
    default, which requires every :class:`WorkerSetup` field to pickle.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else None


# ----------------------------------------------------------------------
# wire types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSetup:
    """Everything a worker rebuilds once and reuses across rounds.

    ``teacher_flat`` is the frozen teacher's flat float64 snapshot,
    shipped **once** with the setup instead of riding on every task:
    tasks built after the teacher is trained set
    :attr:`RoundTask.use_setup_teacher` and carry ``teacher_flat=None``,
    so a thousand-task round pickles the ``(P,)`` teacher exactly once
    per worker instead of once per task.
    """

    model_factory: Callable[[], RecoveryModel]
    client_data: tuple[ClientData, ...]
    mask_builder: ConstraintMaskBuilder
    training: TrainingConfig
    lambda0: float = 5.0
    lt: float = 0.4
    dynamic_lambda: bool = True
    fault_plan: FaultPlan | None = None
    teacher_flat: np.ndarray | None = None  # shared distillation substrate


@dataclass(frozen=True)
class RoundTask:
    """One selected client's work for one communication round.

    ``global_flat`` is the broadcast wire payload: a flat vector under
    the identity codec, an :class:`~repro.federated.communication.EncodedPayload`
    otherwise — executors decode it before loading.  ``exchange_codec``
    names the codec the client encodes its upload with (the error-
    feedback residual lives in the session state, so retries and pool
    workers encode bit-identically).  ``defer_stragglers`` switches an
    injected straggler fault from a real ``time.sleep`` to a virtual
    delay surfaced on :attr:`RoundResult.straggler_delay` — the async
    trainer feeds it into the simulated arrival clock instead of
    stalling a worker.
    """

    client_id: int
    global_flat: "np.ndarray | EncodedPayload"
    epochs: int
    teacher_flat: np.ndarray | None  # float64; None = no distillation
    session: ClientSessionState | None  # None = pristine session
    compute_dtype: str = "float64"
    round_index: int = 0  # fault-plan coordinate
    exchange_codec: str = "identity"  # uplink/downlink wire codec name
    defer_stragglers: bool = False  # async mode: no real sleeps
    use_setup_teacher: bool = False  # distill from WorkerSetup.teacher_flat
    # (shipped once with the setup) instead of a per-task teacher copy


@dataclass(frozen=True)
class RoundResult:
    """What one client's local round produced."""

    client_id: int
    upload_flat: np.ndarray  # decoded upload (privatisation happens server-side)
    metrics: dict
    session: ClientSessionState | None  # the trained session snapshot
    params_flat: np.ndarray | None = None  # exact float64 params when the
    # codec is lossy (the shard must not store rounded parameters) or
    # when the upload was fault-corrupted (the shard must not adopt the
    # corruption — only the wire payload is poisoned)
    payload_bytes: int | None = None  # measured wire size of the encoded
    # upload (None for hand-built results: the trainer falls back to
    # metering upload_flat directly)
    straggler_delay: float = 0.0  # deferred straggler seconds (async mode)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task failure handling knobs of one tolerant round."""

    retries: int = 1  # re-attempts after the first failure
    deadline: float | None = None  # per-task wall-clock seconds
    backoff: float = 0.0  # sleep ``backoff * attempt`` before a retry

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")


@dataclass(frozen=True)
class ClientFailure:
    """One client's final failure for one round (after retries)."""

    client_id: int
    kind: str  # "crash" | "dropout" | "timeout" | "corrupt" | "error" | "rejected"
    attempts: int
    message: str = ""


@dataclass
class RoundExecution:
    """Everything a tolerant round produced."""

    results: list[RoundResult]  # survivors, in task (= client-id) order
    failures: list[ClientFailure] = field(default_factory=list)
    retry_counts: dict[int, int] = field(default_factory=dict)  # extra attempts
    pool_rebuilds: int = 0


# ----------------------------------------------------------------------
# fault-injection hooks shared by both backends
# ----------------------------------------------------------------------
def _inject_pre_train(plan: FaultPlan | None, task: RoundTask, attempt: int,
                      deadline: float | None) -> FaultEvent | None:
    """Consult the plan before local training.

    Raises :class:`ClientFaultError` for no-shows and deadline-busting
    stragglers; sleeps surviving stragglers (or defers them to the
    virtual clock when the task asks); returns the event for faults
    handled after training (crash / corrupt / deferred straggler)."""
    if plan is None:
        return None
    fault = plan.draw(task.round_index, task.client_id, attempt)
    if fault is None:
        return None
    if fault.kind == "dropout":
        raise ClientFaultError("dropout", task.client_id, "injected no-show")
    if fault.kind == "straggler":
        if task.defer_stragglers:
            # Async mode: the delay becomes virtual arrival time, so a
            # straggler never stalls a worker (and never times out —
            # the buffered aggregator simply applies it late).
            return fault
        if deadline is not None and fault.delay >= deadline:
            raise ClientFaultError(
                "timeout", task.client_id,
                f"injected straggler delay {fault.delay:g}s >= deadline "
                f"{deadline:g}s")
        time.sleep(fault.delay)
        return None
    return fault  # crash / corrupt: handled post-training


def _inject_post_train(plan: FaultPlan, task: RoundTask, attempt: int,
                       fault: FaultEvent, flat: np.ndarray
                       ) -> tuple[np.ndarray, bool]:
    """Apply a post-training fault: raise for a crash, corrupt the
    upload copy otherwise.  Returns ``(upload, corrupted)``."""
    if fault.kind == "crash":
        raise ClientFaultError("crash", task.client_id,
                               "injected crash before upload")
    if fault.kind == "corrupt":
        corrupted = plan.corrupt_upload(flat, task.round_index, task.client_id,
                                        attempt, fault.corrupt_mode)
        return corrupted, True
    return flat, False


def _apply_post_fault(plan: FaultPlan | None, task: RoundTask, attempt: int,
                      fault: FaultEvent | None, upload: np.ndarray
                      ) -> tuple[np.ndarray, bool, float]:
    """Resolve a pending fault event against the finished upload.

    Returns ``(upload, corrupted, straggler_delay)``.  Corruption is
    applied to the *decoded* wire vector — after the codec — because
    that is what the server validates; quantising a NaN-poisoned vector
    would be undefined.  A deferred straggler surfaces as a virtual
    delay for the async arrival clock."""
    if fault is None:
        return upload, False, 0.0
    if fault.kind == "straggler":
        return upload, False, fault.delay
    upload, corrupted = _inject_post_train(plan, task, attempt, fault, upload)
    return upload, corrupted, 0.0


def _encode_upload(task: RoundTask, client: FederatedClient,
                   flat: np.ndarray) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Encode one trained upload for the wire.

    Returns ``(upload, payload_bytes, exact_params)``: the decoded
    float64 vector the server will aggregate, the measured wire size of
    the encoded payload, and the client's exact float64 parameters when
    sync-back must not adopt the lossy wire vector (None when the wire
    carries the parameters exactly, i.e. the identity codec).

    ``flat`` is the client's exact float64 parameters; a non-identity
    codec quantises it (plus the carried error-feedback residual) and
    fully determines the wire bytes.  The residual update is a pure
    function of the parameters and the previous residual, so in-process
    and pool execution — and retries, which restore the session
    snapshot first — encode bit-identically."""
    codec = codec_by_name(task.exchange_codec)
    if codec.is_identity:
        return flat, payload_num_bytes(flat), None
    payload, decoded, residual = encode_with_feedback(
        codec, flat, client.codec_residual)
    if codec.error_feedback:
        client.codec_residual = residual
    return decoded, payload_num_bytes(payload), flat


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class RoundRunner:
    """Executes the selected clients of one round.

    Every task carries its client's session snapshot, and every result
    must return the trained one for the trainer to store back into the
    client's shard.  ``fallible`` marks backends whose whole-round
    failures should trigger the in-process fallback instead of
    propagating.
    """

    fallible = False

    def run_round(self, tasks: Sequence[RoundTask]) -> list[RoundResult]:
        """Strict execution: any failure fails the whole round."""
        raise NotImplementedError

    def run_round_tolerant(self, tasks: Sequence[RoundTask],
                           policy: RetryPolicy | None = None
                           ) -> RoundExecution:
        """Per-client execution: failures become :class:`ClientFailure`
        entries instead of aborting the round.  The base implementation
        wraps the strict path (all-or-nothing) for custom runners that
        only override :meth:`run_round`."""
        return RoundExecution(results=self.run_round(tasks))

    def close(self) -> None:
        """Release backend resources (idempotent)."""


# --- worker-process side of the pool backend ---------------------------
# One module-global per worker process, installed by the pool
# initializer: the world is rebuilt once and reused for every task.
_WORKER: "TaskExecutor | None" = None


def _bundled_openblas() -> "ctypes.CDLL | None":
    """NumPy's bundled scipy-openblas, or ``None`` under another BLAS."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        if not (hasattr(lib, "scipy_openblas_set_num_threads64_")
                and hasattr(lib, "scipy_openblas_get_num_threads64_")):
            continue
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        return lib
    return None


def _init_worker(setup: WorkerSetup) -> None:
    global _WORKER
    # A forked worker's OpenBLAS keeps one thread per core, so N workers
    # would run N x cores BLAS threads and oversubscribe the CPU.
    blas = _bundled_openblas()
    if blas is not None:
        blas.scipy_openblas_set_num_threads64_(1)
    _WORKER = TaskExecutor(setup)


def _execute_task(task: RoundTask, attempt: int = 0,
                  deadline: float | None = None) -> RoundResult:
    assert _WORKER is not None, "worker pool used before initialization"
    return _WORKER.execute(task, attempt, deadline)


class TaskExecutor:
    """Executes :class:`RoundTask`\\ s against a bounded model arena.

    This is the per-worker-process world of the pool backend *and* the
    in-process engine of :class:`ArenaRunner`: one
    :class:`~repro.federated.arena.ModelArena` slot (plus one teacher)
    serves every client the executor ever sees.  A checkout rebinds the
    slot to the task's client id/data; the session restore + broadcast
    then fully hydrate it, so the slot's previous occupant can never
    leak state into the next task.  Compared to the historical
    per-client client cache this caps worker memory at
    ``O(arena_size * P)`` instead of ``O(clients_seen * P)`` — the
    difference between tens and thousands of trainable clients.
    """

    def __init__(self, setup: WorkerSetup, arena: ModelArena | None = None):
        self.setup = setup
        self.mask_builder = setup.mask_builder
        self.arena = (arena if arena is not None
                      else ModelArena(setup.model_factory, setup.mask_builder,
                                      setup.training, size=1))
        # One distiller for the executor's lifetime: its teacher is
        # rebound to each task's snapshot, and its acc_teacher memo
        # survives across tasks (one teacher decode per client).
        self.distiller: MetaKnowledgeDistiller | None = None
        self.teacher_space: FlatParameterSpace | None = None

    def _resolve_teacher_flat(self, task: RoundTask) -> np.ndarray | None:
        if task.teacher_flat is not None:
            return task.teacher_flat
        if task.use_setup_teacher:
            if self.setup.teacher_flat is None:
                raise RuntimeError(
                    "task asks for the setup teacher but WorkerSetup "
                    "carries none (teacher_flat=None)")
            return self.setup.teacher_flat
        return None

    def _distiller(self, teacher_flat: np.ndarray | None
                   ) -> MetaKnowledgeDistiller | None:
        if teacher_flat is None:
            return None
        if self.distiller is None:
            teacher = self.setup.model_factory()
            self.teacher_space = FlatParameterSpace.from_module(teacher)
            self.distiller = MetaKnowledgeDistiller(
                teacher, self.mask_builder, lambda0=self.setup.lambda0,
                lt=self.setup.lt, dynamic=self.setup.dynamic_lambda,
            )
        self.teacher_space.set_flat(teacher_flat)
        return self.distiller

    def _ensure_model_dtype(self) -> None:
        """Align the executor's long-lived models with the active
        compute dtype.

        Arena slots (and the teacher) are built once and reused; if the
        parent flips the compute dtype between rounds, later tasks would
        run a stale-precision model (float32 inputs against float64
        weights silently upcast every kernel).  Casting parameters in
        place keeps every existing FlatParameterSpace view valid.
        """
        dtype = nn.get_compute_dtype()
        teacher = self.distiller.teacher if self.distiller is not None else None
        for model in (*self.arena.models(), teacher):
            if model is None:
                continue
            for p in model.parameters():
                if p.data.dtype != dtype:
                    p.data = p.data.astype(dtype)

    def execute(self, task: RoundTask, attempt: int = 0,
                deadline: float | None = None) -> RoundResult:
        # Mirror the parent's process-global compute dtype so both
        # backends run at identical kernel precision.  The previous value
        # is restored afterwards: every task re-asserts its own dtype, so
        # worker processes lose nothing, and in-process execution (tests,
        # debugging) cannot leak a task's dtype into the caller.
        with nn.use_compute_dtype(task.compute_dtype):
            plan = self.setup.fault_plan
            fault = _inject_pre_train(plan, task, attempt, deadline)
            self._ensure_model_dtype()
            client = self.arena.checkout(task.client_id,
                                         self.setup.client_data[task.client_id])
            try:
                # Hydrate fully: session (or the pristine template —
                # deterministic zero state, matching a freshly built
                # client) + broadcast.
                session = (task.session if task.session is not None
                           else self.arena.pristine_session)
                client.load_session_state(session)
                client.receive_global_flat(decode_payload(task.global_flat))
                distiller = self._distiller(self._resolve_teacher_flat(task))
                flat, metrics = client.local_train_flat(task.epochs, distiller)
                upload, nbytes, params_flat = _encode_upload(task, client, flat)
                upload, corrupted, delay = _apply_post_fault(
                    plan, task, attempt, fault, upload)
                if corrupted and params_flat is None:
                    # Only the wire payload is poisoned: ship the exact
                    # parameters so the shard stores what the client
                    # trained, not the corruption.
                    params_flat = client.flat_parameters()
                return RoundResult(task.client_id, upload, metrics,
                                   client.session_state(), params_flat,
                                   payload_bytes=nbytes, straggler_delay=delay)
            finally:
                self.arena.checkin(client)


class ArenaRunner(RoundRunner):
    """In-process round execution through a bounded model arena.

    Drives one :class:`TaskExecutor` (sharing the trainer's arena), so
    tasks are executed exactly like a pool worker would — session
    hydration, dtype re-assertion, fault injection — but in-process and
    with at most ``arena_size`` live models.
    """

    def __init__(self, setup: WorkerSetup, arena: ModelArena | None = None):
        self.executor = TaskExecutor(setup, arena)

    def run_round(self, tasks: Sequence[RoundTask]) -> list[RoundResult]:
        return [self.executor.execute(task) for task in tasks]

    def run_round_tolerant(self, tasks: Sequence[RoundTask],
                           policy: RetryPolicy | None = None
                           ) -> RoundExecution:
        policy = policy if policy is not None else RetryPolicy()
        execution = RoundExecution(results=[])
        for task in tasks:
            attempt = 0
            while True:
                try:
                    execution.results.append(
                        self.executor.execute(task, attempt, policy.deadline))
                    break
                except ClientFaultError as exc:
                    # Only injected/typed client faults are tolerated
                    # in-process — real exceptions propagate (an
                    # in-process bug is a bug, not a degraded client).
                    # Retries are exact: the task's session snapshot is
                    # reloaded on re-execution, and a finally-failed
                    # client needs no restore at all — its shard was
                    # never touched.
                    if attempt < policy.retries:
                        attempt += 1
                        if policy.backoff:
                            time.sleep(policy.backoff * attempt)
                        continue
                    execution.failures.append(ClientFailure(
                        task.client_id, exc.kind, attempt + 1, exc.message))
                    break
            if attempt:
                execution.retry_counts[task.client_id] = attempt
        return execution


class SerialRunner(ArenaRunner):
    """The in-process runner under its historical name.

    Kept only because the frozen trace boundaries in
    ``perfbench/spans.py`` still wrap ``SerialRunner.run_round_tolerant``.
    A subclass rather than an alias: an alias would have the tracer wrap
    :meth:`ArenaRunner.run_round_tolerant` twice and record every round
    span twice.
    """


class ProcessPoolRunner(RoundRunner):
    """Persistent process-pool execution of round tasks.

    Parameters
    ----------
    setup:
        The immutable per-worker world.  Under the ``fork`` start
        method it is inherited; under ``spawn``/``forkserver`` it must
        pickle (a module-level ``model_factory``, not a closure).
    workers:
        Number of worker processes (>= 1).
    start_method:
        Multiprocessing start method override; default
        :func:`preferred_start_method`.
    task_timeout:
        Optional per-task wall-clock limit in seconds for the strict
        :meth:`run_round` path; an overrun raises
        :class:`RoundExecutionError`.  The tolerant path takes its
        deadline from the :class:`RetryPolicy` instead.
    """

    fallible = True

    def __init__(self, setup: WorkerSetup, workers: int,
                 start_method: str | None = None,
                 task_timeout: float | None = None):
        if workers < 1:
            raise ValueError("ProcessPoolRunner needs at least one worker")
        self.setup = setup
        self.workers = workers
        self.start_method = (start_method if start_method is not None
                             else preferred_start_method())
        self.task_timeout = task_timeout
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = mp.get_context(self.start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context,
                initializer=_init_worker, initargs=(self.setup,),
            )
        return self._pool

    def run_round(self, tasks: Sequence[RoundTask]) -> list[RoundResult]:
        try:
            pool = self._ensure_pool()
            submitted = time.monotonic()
            futures = [pool.submit(_execute_task, task) for task in tasks]
            # Collect in submission (= client-id) order: aggregation
            # never depends on completion order.  Each future's budget
            # is measured from round start, not from the previous
            # future's completion — earlier waits must not silently
            # extend a later task's allowance.
            results = []
            for future in futures:
                remaining = None
                if self.task_timeout is not None:
                    remaining = max(
                        0.0, submitted + self.task_timeout - time.monotonic())
                results.append(future.result(timeout=remaining))
            return results
        except Exception as exc:
            self._abort()
            raise RoundExecutionError(
                f"process-pool round execution failed: {exc!r}") from exc

    # ------------------------------------------------------------------
    # tolerant execution: per-task outcomes, retries, pool rebuild
    # ------------------------------------------------------------------
    def run_round_tolerant(self, tasks: Sequence[RoundTask],
                           policy: RetryPolicy | None = None
                           ) -> RoundExecution:
        policy = policy if policy is not None else RetryPolicy()
        if policy.deadline is None and self.task_timeout is not None:
            # A runner-level task_timeout keeps bounding tasks on the
            # tolerant path too.
            policy = RetryPolicy(policy.retries, self.task_timeout,
                                 policy.backoff)
        execution = RoundExecution(results=[])
        task_by_client = {task.client_id: task for task in tasks}
        attempts = {task.client_id: 0 for task in tasks}
        results_by_client: dict[int, RoundResult] = {}
        pending: dict = {}  # future -> (client_id, deadline timestamp)
        abandoned: list = []  # timed-out futures that may still be running
        rebuilt = False

        def submit(client_id: int) -> None:
            pool = self._ensure_pool()
            future = pool.submit(_execute_task, task_by_client[client_id],
                                 attempts[client_id], policy.deadline)
            expiry = (time.monotonic() + policy.deadline
                      if policy.deadline is not None else None)
            pending[future] = (client_id, expiry)

        def fail_or_retry(client_id: int, kind: str, message: str) -> None:
            if attempts[client_id] < policy.retries:
                attempts[client_id] += 1
                execution.retry_counts[client_id] = attempts[client_id]
                if policy.backoff:
                    time.sleep(policy.backoff * attempts[client_id])
                submit(client_id)
            else:
                execution.failures.append(ClientFailure(
                    client_id, kind, attempts[client_id] + 1, message))

        def rebuild_pool(outstanding: list[int], cause: Exception) -> None:
            nonlocal rebuilt
            pending.clear()
            self._abort()
            execution.pool_rebuilds += 1
            if rebuilt:
                raise RoundExecutionError(
                    f"process pool died again after an in-round rebuild: "
                    f"{cause!r}") from cause
            rebuilt = True
            for client_id in outstanding:
                submit(client_id)

        try:
            for task in tasks:
                try:
                    submit(task.client_id)
                except BrokenExecutor as exc:
                    # Futures already pending on the broken pool will
                    # never complete: resubmit every unfinished task.
                    remaining = [t.client_id for t in tasks
                                 if t.client_id not in results_by_client]
                    rebuild_pool(remaining, exc)
                    break  # rebuild_pool resubmitted everything outstanding

            while pending:
                now = time.monotonic()
                expiries = [expiry for _, expiry in pending.values()
                            if expiry is not None]
                timeout = (max(0.0, min(expiries) - now) if expiries else None)
                done, _ = wait(set(pending), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    client_id, _ = pending.pop(future)
                    exc = future.exception()
                    if exc is None:
                        results_by_client[client_id] = future.result()
                    elif isinstance(exc, ClientFaultError):
                        fail_or_retry(client_id, exc.kind, exc.message)
                    elif isinstance(exc, BrokenExecutor):
                        # A dead worker kills every in-flight future:
                        # rebuild the pool once and re-ship everything
                        # outstanding (session snapshots make the
                        # re-execution exact).  Worker death is not the
                        # tasks' fault, so attempt counts are unchanged.
                        outstanding = [client_id]
                        outstanding += [cid for cid, _ in pending.values()]
                        rebuild_pool(sorted(set(outstanding)), exc)
                        break  # pending was rebuilt; restart the wait
                    else:
                        fail_or_retry(client_id, "error", repr(exc))
                else:
                    # No pool rebuild happened: expire overdue futures.
                    now = time.monotonic()
                    overdue = [future for future, (_, expiry) in pending.items()
                               if expiry is not None and expiry <= now]
                    for future in overdue:
                        client_id, _ = pending.pop(future)
                        if not future.cancel():
                            # Already running: the worker stays busy with
                            # it; remember to recycle the pool afterwards.
                            abandoned.append(future)
                        fail_or_retry(
                            client_id, "timeout",
                            f"task exceeded the {policy.deadline:g}s deadline")
        except BrokenExecutor as exc:
            self._abort()
            raise RoundExecutionError(
                f"process-pool round execution failed: {exc!r}") from exc

        if any(not future.done() for future in abandoned):
            # Hung tasks still occupy workers: recycle the pool so the
            # next round starts with a clean set of processes.
            self._abort()
            execution.pool_rebuilds += 1

        execution.results = [results_by_client[task.client_id]
                             for task in tasks
                             if task.client_id in results_by_client]
        execution.failures.sort(key=lambda failure: failure.client_id)
        return execution

    def _abort(self) -> None:
        """Tear the pool down without waiting (a worker is dead or hung)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if self._pool is not None:
            pool, self._pool = self._pool, None
            # Workers are idle between rounds: a waiting shutdown is
            # immediate and leaves no half-closed executor pipes behind
            # (which would print "Exception ignored" noise at exit).
            pool.shutdown(wait=True, cancel_futures=True)
