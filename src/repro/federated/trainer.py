"""Federated training orchestration (paper Algorithm 3 + Section IV-C).

:func:`build_federation` shards a synthetic world into per-client
train/valid/test datasets (Non-IID by driver home region by default),
and :class:`FederatedTrainer` runs the LightTR training loop:

1. (optional) pre-train the teacher meta-learner cyclically over the
   clients (Algorithm 1);
2. for each communication round: sample a client fraction, broadcast
   the global model, run meta-knowledge enhanced local training
   (Algorithm 2) on each selected client, and aggregate (Algorithm 3);
3. log per-round losses, accuracies, communication bytes, and failure
   telemetry.

The trainer is model-agnostic: pass a different ``model_factory`` to
train any of the ``+FL`` baselines with the identical protocol (the
paper's FC+FL / RNN+FL / MTrajRec+FL / RNTrajRec+FL setting).

Each client is a flat :class:`~repro.federated.arena.ClientShard`
(private data + session snapshot + exact parameters once it has
trained), and the models that train them live in a bounded
:class:`~repro.federated.arena.ModelArena`, so client count is a
data-size problem rather than ``N`` live models.

Round execution is pluggable (:mod:`repro.federated.runner`): with
``FederatedConfig(workers=N)`` the selected clients of each round train
in ``N`` persistent worker processes instead of sequentially.  With
fixed seeds the parallel run is bit-identical to the serial one — tasks
carry each client's RNG/optimiser session state and uploads are
aggregated in client-id order.

Fault tolerance (docs/ROBUSTNESS.md)
------------------------------------
The runtime degrades gracefully instead of failing closed:

* per-client failures — an injected fault from a
  :class:`~repro.federated.faults.FaultPlan`, a blown per-task
  deadline, or a task exception — are retried up to ``task_retries``
  times and then recorded in the round's telemetry, never raised;
* uploads are screened by
  :meth:`~repro.federated.server.FederatedServer.validate_upload`
  before aggregation, so a NaN/Inf/blown-norm/wrong-shape payload
  counts as a client failure instead of poisoning the global average;
* the round aggregates the survivors (FedAvg weights renormalise over
  them automatically) when at least ``min_clients_per_round`` uploads
  pass validation; below quorum the global vector is held and the
  round is recorded as skipped with NaN-free sentinel statistics;
* a whole-pool failure triggers an in-runner pool rebuild, then a
  one-round serial re-run; only *consecutive* whole-pool failures
  demote the run to serial permanently (with a warning);
* ``checkpoint_every``/``checkpoint_dir`` persist a
  :class:`~repro.federated.checkpoint.FederatedCheckpoint` every K
  rounds and ``resume_from`` continues a killed run bit-identically.

Under the same fault plan, serial and process-pool runs still produce
bit-identical round histories — the fault schedule is a pure function
of ``(round, client, attempt)``, not of scheduling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .. import nn
from ..core.base import RecoveryModel
from ..core.mask import ConstraintMaskBuilder
from ..core.teacher import TeacherConfig, TeacherTrainingResult, train_teacher
from ..core.training import TrainingConfig, model_segment_accuracy
from ..data.dataset import TrajectoryDataset
from ..data.partition import partition_dataset
from ..data.synthetic import SyntheticDataset
from ..nn.flatten import FlatParameterSpace
from .arena import ClientShard, LazyClientList, ModelArena
from .asynchrony import (
    AsyncAggregatorState,
    LatencyModel,
    LatencySpec,
    PendingUpload,
    resolve_latency_model,
    staleness_weights,
)
from .checkpoint import FederatedCheckpoint, checkpoint_path, latest_checkpoint
from .client import ClientData, FederatedClient
from .communication import (
    Codec,
    CommunicationLedger,
    encode_with_feedback,
    payload_num_bytes,
    resolve_exchange_codec,
)
from .faults import FaultPlan, FaultSpec, resolve_fault_plan
from .runner import (
    ArenaRunner,
    ClientFailure,
    ProcessPoolRunner,
    RetryPolicy,
    RoundExecution,
    RoundExecutionError,
    RoundRunner,
    RoundTask,
    WorkerSetup,
)
from .server import AggregationSlab, DEFAULT_MAX_UPLOAD_NORM, FederatedServer

__all__ = ["FederatedConfig", "RoundRecord", "FederatedResult",
           "build_federation", "FederatedTrainer", "train_isolated_then_average"]


@dataclass(frozen=True)
class FederatedConfig:
    """Knobs of the federated run (Algorithm 3 inputs + robustness)."""

    rounds: int = 10
    client_fraction: float = 1.0
    local_epochs: int = 2
    training: TrainingConfig = field(default_factory=TrainingConfig)
    use_meta: bool = True  # the meta-knowledge module (w/o Meta ablation: False)
    teacher: TeacherConfig = field(default_factory=TeacherConfig)
    lambda0: float = 5.0
    lt: float = 0.4
    dynamic_lambda: bool = True  # False = fixed lambda0 (design ablation)
    aggregation: str = "uniform"  # "uniform" (Alg. 3) or "fedavg" (weighted)
    workers: int = 0  # 0 = serial rounds; N > 0 = process-pool round runner
    # --- robustness knobs (docs/ROBUSTNESS.md) ---
    min_clients_per_round: int = 1  # quorum: aggregate when >= this many survive
    task_retries: int = 1  # re-attempts per failed client task
    task_deadline: float | None = None  # per-task wall-clock seconds
    task_backoff: float = 0.0  # sleep backoff * attempt before a retry
    max_upload_norm: float | None = DEFAULT_MAX_UPLOAD_NORM  # validation bound
    fault_plan: "FaultPlan | FaultSpec | str | None" = None  # injection schedule
    checkpoint_every: int = 0  # persist state every K rounds (0 = never)
    checkpoint_dir: str | None = None
    resume_from: str | None = None  # checkpoint file or directory
    # --- communication knobs (docs/PERFORMANCE.md "Communication") ---
    exchange_codec: "Codec | str | None" = None  # None -> REPRO_EXCHANGE_CODEC
    # --- async round mode (docs/ROBUSTNESS.md "Asynchronous rounds") ---
    async_buffer: int = 0  # 0 = synchronous barrier; K >= 1 = FedBuff buffer
    staleness_alpha: float = 0.5  # staleness discount exponent (0 = FedAvg)
    clients_per_round: float | None = None  # async sampling fraction
    # (defaults to client_fraction); sampled from *idle* clients only
    latency: "LatencyModel | LatencySpec | str | None" = None  # arrival model
    # --- client-scale knobs (docs/PERFORMANCE.md "Client scale") ---
    arena_size: int = 1  # live model/trainer slots
    collation_cache_entries: int = 0  # per-dataset batch-cache cap (0 = default)
    lazy_clients: bool | None = None  # inert: clients are always shards
    # (kept so existing callers passing True still run; False raises)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        if self.aggregation not in ("uniform", "fedavg"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = serial)")
        if self.min_clients_per_round < 1:
            raise ValueError("min_clients_per_round must be >= 1")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError("task_deadline must be positive (or None)")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 = never)")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        if self.async_buffer < 0:
            raise ValueError("async_buffer must be >= 0 (0 = synchronous)")
        if self.staleness_alpha < 0:
            raise ValueError("staleness_alpha must be >= 0")
        if (self.clients_per_round is not None
                and not 0.0 < self.clients_per_round <= 1.0):
            raise ValueError("clients_per_round must be in (0, 1]")
        if self.arena_size < 1:
            raise ValueError("arena_size must be >= 1")
        if self.lazy_clients is False:
            raise ValueError(
                "lazy_clients=False is no longer supported: eager clients "
                "were removed, every client is a shard trained through the "
                "model arena (leave lazy_clients unset)")
        if self.collation_cache_entries < 0:
            raise ValueError(
                "collation_cache_entries must be >= 0 (0 = dataset default)")


@dataclass(frozen=True)
class RoundRecord:
    """History entry for one communication round.

    The failure telemetry is part of the serial-vs-parallel determinism
    contract: under the same fault plan both backends record identical
    failures, retries, and survivor sets.  Only ``fallback_cause`` is
    excluded from equality — it describes *this execution's* pool
    health (e.g. a worker killed by the OS), not the training
    trajectory.
    """

    round_index: int
    selected_clients: tuple[int, ...]
    mean_loss: float
    mean_lambda: float
    global_accuracy: float
    completed_clients: tuple[int, ...] = ()  # uploads that passed validation
    # (async mode: uploads *applied* this wave, in virtual-arrival order)
    failures: tuple[ClientFailure, ...] = ()  # ascending client id
    retries: tuple[tuple[int, int], ...] = ()  # (client_id, extra attempts)
    aggregated: bool = True  # False = quorum failed, global vector held
    fallback_cause: str = field(default="", compare=False)
    # --- async-mode telemetry (defaults keep synchronous records as-is) ---
    flushes: int = 0  # buffer flushes applied to the global model this wave
    mean_staleness: float = 0.0  # mean staleness of the uploads flushed
    in_flight: tuple[int, ...] = ()  # clients still travelling/buffered after

    @property
    def failed_clients(self) -> tuple[int, ...]:
        return tuple(f.client_id for f in self.failures)

    @property
    def failure_kinds(self) -> tuple[str, ...]:
        return tuple(f.kind for f in self.failures)

    @property
    def retried_clients(self) -> tuple[int, ...]:
        return tuple(client_id for client_id, _ in self.retries)

    @property
    def total_retries(self) -> int:
        return sum(count for _, count in self.retries)


@dataclass
class FederatedResult:
    """Everything a run produced."""

    global_model: RecoveryModel
    history: list[RoundRecord]
    ledger: CommunicationLedger
    teacher_result: TeacherTrainingResult | None
    clients: LazyClientList  # materialises a client from its shard on indexing
    global_test: TrajectoryDataset


def _warn_if_teacher_untrained(result: TeacherTrainingResult,
                               lt: float) -> None:
    """Loud degradation: when Algorithm 1 rolls back every update, the
    "teacher" is the untrained initialisation, and distilling from it
    is not the paper's method."""
    if any(result.accepted):
        return
    warnings.warn(
        f"teacher pre-training accepted 0 of {len(result.accepted)} updates "
        f"(best validation accuracy {max(result.accuracies):.4f} < "
        f"lt={lt:g}); the clients distil from the untrained teacher",
        RuntimeWarning, stacklevel=3,
    )


def build_federation(dataset: SyntheticDataset, num_clients: int,
                     keep_ratio: float, scheme: str = "by_driver",
                     rng: np.random.Generator | None = None,
                     split: tuple[float, float, float] = (0.7, 0.2, 0.1),
                     ) -> tuple[list[ClientData], TrajectoryDataset]:
    """Shard a synthetic world into clients and a pooled test set.

    Each client's trajectories are split 7:2:1 (the paper's ratio); the
    pooled test set is the union of the clients' test splits, which is
    what the global model is evaluated on.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    shards = partition_dataset(dataset, num_clients, scheme=scheme, rng=rng)
    clients: list[ClientData] = []
    pooled_test = []
    for shard in shards:
        tds = TrajectoryDataset.from_matched(shard, dataset.grid, dataset.network,
                                             keep_ratio)
        train, valid, test = tds.split(split, rng=rng)
        if len(train) == 0:
            raise ValueError("a client received no training data; use more "
                             "trajectories or fewer clients")
        if len(valid) == 0:  # tiny shards: reuse train as valid
            valid = train
        clients.append(ClientData(train=train, valid=valid, test=test))
        pooled_test.extend(test.examples)
    if not pooled_test:
        # Fall back to validation examples so evaluation is never empty.
        for c in clients:
            pooled_test.extend(c.valid.examples)
    global_test = TrajectoryDataset(pooled_test, dataset.grid, dataset.network,
                                    keep_ratio)
    return clients, global_test


class FederatedTrainer:
    """Runs LightTR federated training end to end."""

    def __init__(self, model_factory: Callable[[], RecoveryModel],
                 client_data: list[ClientData],
                 mask_builder: ConstraintMaskBuilder,
                 config: FederatedConfig,
                 global_test: TrajectoryDataset,
                 seed: int = 0,
                 privatizer=None,
                 workers: int | None = None,
                 runner: RoundRunner | None = None):
        if not client_data:
            raise ValueError("need at least one client")
        self.model_factory = model_factory
        self.mask_builder = mask_builder
        self.config = config
        self.global_test = global_test
        self.privatizer = privatizer  # optional GaussianMechanism
        self._rng = np.random.default_rng(seed)
        # None lets the REPRO_FAULT_PLAN environment forcing apply.
        self.fault_plan = resolve_fault_plan(config.fault_plan)
        # None lets the REPRO_EXCHANGE_CODEC environment forcing apply.
        self.codec = resolve_exchange_codec(config.exchange_codec)
        self._downlink_residual: np.ndarray | None = None
        self.latency = resolve_latency_model(config.latency)
        # The async aggregator state (None = synchronous barrier rounds).
        self._async = (AsyncAggregatorState()
                       if config.async_buffer > 0 else None)

        self.server = FederatedServer(model_factory())
        self._client_data = list(client_data)
        if config.collation_cache_entries:
            # Bound every dataset's per-chunk collation cache: at
            # thousand-client scale the default LRU budget, multiplied
            # by N clients x 3 splits, is a hidden memory multiplier.
            for data in self._client_data:
                for split in (data.train, data.valid, data.test):
                    split.set_batch_cache_limit(config.collation_cache_entries)
            global_test.set_batch_cache_limit(config.collation_cache_entries)
        # Client count is a data-size problem: each client is a shard
        # (data + flat session vectors), models live in a bounded arena,
        # and ``clients`` is a materialise-on-read view.  The pristine
        # template is a freshly built client's state — deterministic
        # factory parameters, zeroed optimiser moments — and each shard
        # gets its own seeded batch-shuffle generator.
        self.arena = ModelArena(model_factory, mask_builder,
                                config.training, size=config.arena_size)
        _, pristine = self.arena.template(self._client_data[0])
        self.shards = [
            ClientShard(
                client_id=i, data=data,
                session=replace(pristine, rng_state=np.random.default_rng(
                    seed + 101 + i).bit_generator.state),
            )
            for i, data in enumerate(self._client_data)
        ]
        self.clients = LazyClientList(self)
        # One round's uploads stage into a preallocated float64 slab;
        # decode, validation, and the FedAvg reduction run over one
        # contiguous (C, P) matrix instead of C boxed vectors.
        self._slab = AggregationSlab(self.server.num_parameters)
        self.workers = config.workers if workers is None else workers
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = serial)")
        self._runner = runner  # explicit injection wins; else built lazily
        self._teacher_flat: np.ndarray | None = None
        self._setup_has_teacher = False  # the active runner's setup has it
        self._last_accuracy: float | None = None  # held when quorum fails
        self._pool_failures = 0  # consecutive whole-pool failures

    # ------------------------------------------------------------------
    # round runner plumbing
    # ------------------------------------------------------------------
    def _worker_setup(self) -> WorkerSetup:
        return WorkerSetup(
            model_factory=self.model_factory,
            client_data=tuple(self._client_data),
            mask_builder=self.mask_builder,
            training=self.config.training,
            lambda0=self.config.lambda0,
            lt=self.config.lt,
            dynamic_lambda=self.config.dynamic_lambda,
            fault_plan=self.fault_plan,
            teacher_flat=self._teacher_flat,
        )

    def _get_runner(self) -> RoundRunner:
        if self._runner is None:
            # The teacher rides the setup (shipped once per worker at
            # pool start-up), not each task: tasks built afterwards
            # carry the ``use_setup_teacher`` sentinel instead of a
            # per-task (P,) teacher copy.  Runners are built after
            # teacher pre-training, so the snapshot — when the run has
            # one — exists by now.
            self._setup_has_teacher = self._teacher_flat is not None
            if self.workers > 0:
                self._runner = ProcessPoolRunner(
                    self._worker_setup(),
                    workers=min(self.workers, len(self._client_data)),
                )
            else:
                self._runner = self._arena_runner()
        return self._runner

    def _retry_policy(self) -> RetryPolicy:
        return RetryPolicy(retries=self.config.task_retries,
                           deadline=self.config.task_deadline,
                           backoff=self.config.task_backoff)

    def _arena_runner(self) -> ArenaRunner:
        """In-process rounds through the trainer's own arena — pool-
        worker semantics (full hydration per task), at most
        ``arena_size`` live models.  Also what a broken pool degrades
        to."""
        return ArenaRunner(self._worker_setup(), self.arena)

    def _handle_pool_failure(self, reason: Exception) -> RoundRunner:
        """One whole-pool failure: re-run this round serially, keep the
        pool runner for the next round (its dead pool rebuilds lazily).
        Consecutive whole-pool failures demote the run permanently."""
        self._pool_failures += 1
        if self._pool_failures >= 2:
            return self._fall_back_to_serial(reason)
        warnings.warn(
            f"parallel round execution failed ({reason}); falling back to "
            f"serial execution for this round", RuntimeWarning,
            stacklevel=3,
        )
        return self._arena_runner()

    def _fall_back_to_serial(self, reason: Exception) -> RoundRunner:
        warnings.warn(
            f"parallel round execution failed ({reason}); falling back to "
            f"serial rounds for the rest of the run", RuntimeWarning,
            stacklevel=3,
        )
        if self._runner is not None:
            self._runner.close()
        self._runner = self._arena_runner()
        self._setup_has_teacher = self._teacher_flat is not None
        return self._runner

    # ------------------------------------------------------------------
    # checkpoint/resume plumbing
    # ------------------------------------------------------------------
    def _load_resume_checkpoint(self) -> FederatedCheckpoint | None:
        target = self.config.resume_from
        if not target:
            return None
        path = latest_checkpoint(target)
        if path is None:
            raise FileNotFoundError(f"no checkpoint found at {target!r}")
        return FederatedCheckpoint.load(path)

    def _restore(self, checkpoint: FederatedCheckpoint,
                 ledger: CommunicationLedger,
                 history: list[RoundRecord]) -> int:
        """Rewind every mutable input of the remaining rounds."""
        if len(checkpoint.client_sessions) != len(self._client_data):
            raise ValueError(
                f"checkpoint has {len(checkpoint.client_sessions)} clients, "
                f"trainer has {len(self._client_data)} — not the same "
                f"federation")
        expected = self.server.global_flat(dtype=np.float64).size
        if checkpoint.global_flat.size != expected:
            raise ValueError(
                f"checkpoint global vector has {checkpoint.global_flat.size} "
                f"parameters, this trainer's model has {expected} — not the "
                f"same federation")
        self.server.load_global_flat(checkpoint.global_flat)
        # Files written by live-client runs carry every parameter
        # vector; they load into the shards all the same.
        for shard, session, params in zip(self.shards,
                                          checkpoint.client_sessions,
                                          checkpoint.client_params):
            shard.session = session
            shard.params_flat = (None if params is None else
                                 np.asarray(params, dtype=np.float64))
        self._rng.bit_generator.state = checkpoint.trainer_rng_state
        ledger.rounds.extend(checkpoint.ledger_rounds)
        history.extend(checkpoint.history)
        self._last_accuracy = checkpoint.last_accuracy
        self._pool_failures = checkpoint.pool_failures
        self._downlink_residual = checkpoint.downlink_residual
        if (checkpoint.async_state is not None) != (self._async is not None):
            raise ValueError(
                "checkpoint round mode does not match the config: "
                f"checkpoint is {'async' if checkpoint.async_state else 'sync'}"
                f", config asks for {'async' if self._async else 'sync'} "
                f"(async_buffer={self.config.async_buffer})")
        if checkpoint.async_state is not None:
            self._async = checkpoint.async_state
        return checkpoint.next_round

    def _save_checkpoint(self, next_round: int, ledger: CommunicationLedger,
                         history: list[RoundRecord]) -> str:
        # Shards *are* the persistent client state, and a never-trained
        # shard stays None (the pristine template) instead of N
        # identical copies.
        checkpoint = FederatedCheckpoint(
            next_round=next_round,
            global_flat=self.server.global_flat(dtype=np.float64),
            client_sessions=tuple(shard.session for shard in self.shards),
            client_params=tuple(shard.params_flat for shard in self.shards),
            trainer_rng_state=self._rng.bit_generator.state,
            teacher_flat=self._teacher_flat,
            history=list(history),
            ledger_rounds=list(ledger.rounds),
            last_accuracy=self._last_accuracy,
            pool_failures=self._pool_failures,
            downlink_residual=(None if self._downlink_residual is None
                               else self._downlink_residual.copy()),
            async_state=self._async,
        )
        return checkpoint.save(
            checkpoint_path(self.config.checkpoint_dir, next_round))

    # ------------------------------------------------------------------
    # client substrate (shards + arena)
    # ------------------------------------------------------------------
    def _materialize_client(self, index: int) -> FederatedClient:
        """Build a fresh live client hydrated from shard ``index``.

        This is the :class:`~repro.federated.arena.LazyClientList` read
        path: inspection-style consumers get the client's current
        parameters (the factory's pristine ones while ``params_flat``
        is None) plus its latest session snapshot.  Writes to the
        returned object do not propagate back to the shard.
        """
        shard = self.shards[index]
        client = FederatedClient(
            client_id=shard.client_id, data=shard.data,
            model=self.model_factory(), mask_builder=self.mask_builder,
            training=self.config.training,
            rng=np.random.default_rng(0),  # replaced by the session restore
        )
        if shard.params_flat is not None:
            client.receive_global_flat(shard.params_flat)
        client.load_session_state(shard.session)
        return client

    def _adopt_result(self, result) -> None:
        """Store a round result's trained state back into its shard.
        Runs even when the upload is later rejected: the client trained
        fine, only its wire payload is bad."""
        if result.session is None:
            raise ValueError(
                "round results must carry the trained session, but the "
                "runner returned session=None (an injected runner must "
                "return client.session_state() with every result)")
        shard = self.shards[result.client_id]
        shard.session = result.session
        # The exact float64 snapshot when the exchange dtype is reduced
        # or the wire is lossy, else the upload itself (already exact
        # float64 in that case).
        exact = (result.upload_flat if result.params_flat is None
                 else result.params_flat)
        shard.params_flat = np.asarray(exact, dtype=np.float64)

    # ------------------------------------------------------------------
    # the full pipeline
    # ------------------------------------------------------------------
    def run(self) -> FederatedResult:
        """Teacher pre-training (optional) + Algorithm 3 rounds."""
        resume = self._load_resume_checkpoint()
        teacher_result = None
        if self.config.use_meta:
            if resume is not None:
                if resume.teacher_flat is None:
                    raise ValueError(
                        "use_meta=True but the checkpoint has no teacher "
                        "state (it was taken from a use_meta=False run)")
                self._teacher_flat = resume.teacher_flat
            else:
                teacher_result = self._train_teacher()
                _warn_if_teacher_untrained(teacher_result, self.config.lt)
                # The teacher is frozen after pre-training: snapshot it once
                # (always float64 — the teacher never crosses the wire as a
                # true upload); every runner distils from this snapshot.
                self._teacher_flat = FlatParameterSpace.from_module(
                    teacher_result.teacher).get_flat(dtype=np.float64)

        ledger = CommunicationLedger()
        history: list[RoundRecord] = []
        start_round = 0
        if resume is not None:
            start_round = self._restore(resume, ledger, history)
        run_one = (self._run_async_wave if self._async is not None
                   else self._run_round)
        try:
            for round_index in range(start_round, self.config.rounds):
                record = run_one(round_index, ledger)
                history.append(record)
                if (self.config.checkpoint_every
                        and (round_index + 1) % self.config.checkpoint_every == 0):
                    self._save_checkpoint(round_index + 1, ledger, history)
        finally:
            if self._runner is not None:
                self._runner.close()

        return FederatedResult(
            global_model=self.server.global_model,
            history=history,
            ledger=ledger,
            teacher_result=teacher_result,
            clients=self.clients,
            global_test=self.global_test,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _train_teacher(self) -> TeacherTrainingResult:
        splits = [(data.train, data.valid) for data in self._client_data]
        teacher_config = TeacherConfig(
            lt=self.config.lt,
            epochs_per_client=self.config.teacher.epochs_per_client,
            cycles=self.config.teacher.cycles,
            subset_fraction=self.config.teacher.subset_fraction,
            training=self.config.training,
        )
        return train_teacher(self.model_factory, splits, self.mask_builder,
                             teacher_config, self._rng)

    def _broadcast_payload(self):
        """One round's downlink: ``(wire, decoded reference, bytes/client)``.

        Identity codec: the wire *is* the exchange-dtype flat vector,
        bitwise the pre-codec behaviour.  Otherwise the exact float64
        global vector is encoded (carrying the server-side error-
        feedback residual) and every client decodes the same payload,
        so what clients load is exactly ``decoded``.
        """
        if self.codec.is_identity:
            flat = self.server.global_flat()
            return flat, flat, payload_num_bytes(flat)
        exact = self.server.global_flat(dtype=np.float64)
        payload, decoded, residual = encode_with_feedback(
            self.codec, exact, self._downlink_residual)
        if self.codec.error_feedback:
            self._downlink_residual = residual
        return payload, decoded, payload_num_bytes(payload)

    def _build_tasks(self, selected: list[int], wire, round_index: int,
                     defer_stragglers: bool = False) -> list[RoundTask]:
        # When the active runner's WorkerSetup already carries the
        # frozen teacher, tasks ship the use_setup_teacher sentinel
        # instead of a per-task (P,) teacher copy — one pickle per
        # worker, not one per task.
        use_setup = self._setup_has_teacher
        return [
            RoundTask(
                client_id=client_id,
                global_flat=wire,
                epochs=self.config.local_epochs,
                teacher_flat=None if use_setup else self._teacher_flat,
                use_setup_teacher=use_setup,
                session=self.shards[client_id].session,
                fused_kernels=nn.fused_kernels_enabled(),
                sparse_masks=nn.sparse_masks_enabled(),
                packed_decode=nn.packed_decode_enabled(),
                exchange_dtype=nn.get_default_dtype().name,
                compute_dtype=nn.get_compute_dtype().name,
                round_index=round_index,
                exchange_codec=self.codec.name,
                defer_stragglers=defer_stragglers,
            )
            for client_id in selected  # ascending: fixes aggregation order
        ]

    def _execute_tasks(self, runner: RoundRunner, tasks: list[RoundTask]):
        """Run one round's tasks with the pool-failure fallback."""
        policy = self._retry_policy()
        fallback_cause = ""
        try:
            execution = runner.run_round_tolerant(tasks, policy)
            if runner.fallible:
                self._pool_failures = 0
        except RoundExecutionError as exc:
            if not runner.fallible:
                raise
            # The tasks still hold the pre-round session snapshots, so
            # the serial re-run restores them and continues bit-exactly.
            fallback_cause = str(exc)
            serial = self._handle_pool_failure(exc)
            execution = serial.run_round_tolerant(tasks, policy)
        return execution, fallback_cause

    def _upload_bytes(self, result) -> int:
        """Measured wire size of one upload (hand-built results fall
        back to metering the decoded vector itself)."""
        if result.payload_bytes is not None:
            return result.payload_bytes
        return payload_num_bytes(result.upload_flat)

    def _held_accuracy(self) -> float:
        """The accuracy to report when the global vector did not move."""
        if self._last_accuracy is None:
            self._last_accuracy = model_segment_accuracy(
                self.server.global_model, self.mask_builder, self.global_test)
        return self._last_accuracy

    def _run_round(self, round_index: int,
                   ledger: CommunicationLedger) -> RoundRecord:
        selected = self.server.select_clients(
            len(self.clients), self.config.client_fraction, self._rng
        )
        # The whole exchange moves flat (P,) vectors: broadcast, upload,
        # privatisation, and the stacked (C, P) average.
        wire, reference, bytes_down = self._broadcast_payload()
        runner = self._get_runner()
        tasks = self._build_tasks(selected, wire, round_index)
        execution, fallback_cause = self._execute_tasks(runner, tasks)

        failures = list(execution.failures)
        results = execution.results  # task (= ascending client-id) order
        upload_bytes: list[int] = []
        weights: list[float] = []
        losses: list[float] = []
        lambdas: list[float] = []
        completed: list[int] = []
        exchange_dtype = nn.get_default_dtype()
        # Stage uploads into the preallocated slab: each screened
        # payload is cast into one float64 row, so finiteness/norm
        # validation and the FedAvg reduction run over a single
        # contiguous (C, P) matrix — bitwise the stack-of-vectors path,
        # without C boxed float64 copies.  Trained state is adopted
        # even when the upload is rejected below — the client trained
        # fine, only its wire payload is bad.
        rows = self._slab.rows(len(results))
        staged = []  # results whose uploads occupy rows[:len(staged)]
        for result in results:
            self._adopt_result(result)
            rejection = self.server.screen_upload(result.upload_flat)
            if rejection is not None:
                failures.append(ClientFailure(result.client_id, "rejected", 1,
                                              rejection))
                continue
            rows[len(staged)] = result.upload_flat  # exact float64 cast
            staged.append(result)
        reasons = self.server.validate_rows(rows[:len(staged)],
                                            self.config.max_upload_norm)
        kept = 0
        for row, (result, reason) in enumerate(zip(staged, reasons)):
            if reason is not None:
                failures.append(ClientFailure(result.client_id, "rejected", 1,
                                              reason))
                continue
            if self.privatizer is not None:
                # Privatise from the original upload object — identical
                # RNG stream and dtype path to the per-vector era —
                # then overwrite the (compacted) slab row.
                flat = self.privatizer.privatize_update_flat(
                    result.upload_flat, reference)
                if self.codec.is_identity:
                    flat = np.asarray(flat, dtype=exchange_dtype)
                rows[kept] = flat
            elif kept != row:
                rows[kept] = rows[row]  # compact over rejected rows
            upload_bytes.append(self._upload_bytes(result))
            completed.append(result.client_id)
            weights.append(result.metrics["num_examples"])
            losses.append(result.metrics["loss"])
            lambdas.append(result.metrics["lambda"])
            kept += 1
        failures.sort(key=lambda failure: failure.client_id)

        aggregated = kept >= self.config.min_clients_per_round
        if aggregated:
            agg_weights = weights if self.config.aggregation == "fedavg" else None
            # FedAvg weights renormalise over the survivors automatically
            # (np.average divides by the surviving weight mass).
            self.server.aggregate_rows(rows[:kept], agg_weights)
            accuracy = model_segment_accuracy(
                self.server.global_model, self.mask_builder, self.global_test
            )
            self._last_accuracy = accuracy
            mean_loss = float(np.mean(losses))
            mean_lambda = float(np.mean(lambdas))
        else:
            # Quorum failed: hold the global vector, skip aggregation,
            # and record NaN-free sentinel statistics (np.mean over an
            # empty survivor list would be NaN).
            accuracy = self._held_accuracy()
            mean_loss = 0.0
            mean_lambda = 0.0
        # Every selected client received the broadcast, even the ones
        # that failed to upload.  (upload_bytes already carries the
        # measured wire sizes; the staged vectors need not be passed.)
        ledger.record_round(round_index, wire, [],
                            num_broadcast=len(selected),
                            broadcast_bytes=bytes_down,
                            upload_bytes=upload_bytes)

        return RoundRecord(
            round_index=round_index,
            selected_clients=tuple(selected),
            mean_loss=mean_loss,
            mean_lambda=mean_lambda,
            global_accuracy=accuracy,
            completed_clients=tuple(completed),
            failures=tuple(failures),
            retries=tuple(sorted(execution.retry_counts.items())),
            aggregated=aggregated,
            fallback_cause=fallback_cause,
        )

    # ------------------------------------------------------------------
    # asynchronous waves (FedBuff-style buffered aggregation)
    # ------------------------------------------------------------------
    def _flush_buffer(self) -> list[int]:
        """Apply the buffered uploads to the global model; returns the
        flushed uploads' staleness values."""
        state = self._async
        entries = state.take_buffer()
        staleness = [state.version - upload.version for upload in entries]
        weights = staleness_weights([u.base_weight for u in entries],
                                    staleness, self.config.staleness_alpha)
        if (self.config.staleness_alpha == 0.0
                and self.config.aggregation != "fedavg"):
            # alpha=0 + uniform: every weight is exactly 1.0 — take the
            # unweighted np.average path so an async flush over the same
            # uploads is bitwise the synchronous aggregation.
            agg_weights = None
        else:
            agg_weights = [float(w) for w in weights]
        # The buffered float64 vectors were validated at dispatch; the
        # flush stages them into the slab so the reduction runs over
        # one contiguous matrix (bitwise the stacked-list path).
        rows = self._slab.rows(len(entries))
        for i, upload in enumerate(entries):
            rows[i] = upload.vector
        self.server.aggregate_rows(rows[:len(entries)], agg_weights)
        state.version += 1
        return staleness

    def _run_async_wave(self, wave: int,
                        ledger: CommunicationLedger) -> RoundRecord:
        """One async wave: dispatch idle clients, then advance virtual
        time until the next buffer flush (or the wire runs dry).

        Wall-clock never gates progress: stragglers' delays are virtual
        (``RoundTask.defer_stragglers``), arrivals are ordered by the
        seeded latency model, and the global model advances every
        ``async_buffer`` arrivals — so a slow client delays only its own
        contribution, never the round.
        """
        state = self._async
        config = self.config
        runner = self._get_runner()
        busy = state.busy_clients()
        idle = [i for i in range(len(self.clients)) if i not in busy]
        fraction = (config.clients_per_round
                    if config.clients_per_round is not None
                    else config.client_fraction)
        selected = self.server.select_clients(len(self.clients), fraction,
                                              self._rng, candidates=idle)

        execution = RoundExecution(results=[])
        fallback_cause = ""
        bytes_down = 0
        if selected:
            wire, reference, bytes_down = self._broadcast_payload()
            tasks = self._build_tasks(selected, wire, wave,
                                      defer_stragglers=True)
            execution, fallback_cause = self._execute_tasks(runner, tasks)

        # Stage the survivors' uploads on the virtual wire.  Validation
        # and privatisation happen at dispatch — the payload does not
        # change in flight — so buffered vectors are aggregation-ready.
        failures = list(execution.failures)
        for result in execution.results:
            self._adopt_result(result)
            upload = np.asarray(result.upload_flat, dtype=np.float64)
            rejection = self.server.validate_upload(
                upload, config.max_upload_norm)
            if rejection is not None:
                failures.append(ClientFailure(result.client_id, "rejected", 1,
                                              rejection))
                continue
            if self.privatizer is not None:
                upload = np.asarray(
                    self.privatizer.privatize_update_flat(upload, reference),
                    dtype=np.float64)
            arrival = (state.virtual_now
                       + self.latency.draw(wave, result.client_id)
                       + result.straggler_delay)
            state.in_flight.append(PendingUpload(
                client_id=result.client_id,
                arrival_time=arrival,
                vector=upload,
                base_weight=(result.metrics["num_examples"]
                             if config.aggregation == "fedavg" else 1.0),
                version=state.version,
                loss=result.metrics["loss"],
                lam=result.metrics["lambda"],
                payload_bytes=self._upload_bytes(result),
                dispatch_wave=wave,
            ))
        failures.sort(key=lambda failure: failure.client_id)
        # Deterministic arrival order: virtual time, client id tie-break.
        state.in_flight.sort(key=lambda u: (u.arrival_time, u.client_id))

        # Advance the virtual clock until one flush lands (the cadence
        # that triggers the next dispatch wave); the final wave drains
        # everything still travelling.
        buffer_size = config.async_buffer
        drain = wave == config.rounds - 1
        flushes = 0
        staleness_applied: list[int] = []
        completed: list[int] = []
        upload_bytes: list[int] = []
        losses: list[float] = []
        lambdas: list[float] = []
        while state.in_flight and (drain or flushes == 0):
            upload = state.in_flight.pop(0)
            state.virtual_now = max(state.virtual_now, upload.arrival_time)
            state.buffer.append(upload)
            completed.append(upload.client_id)
            upload_bytes.append(upload.payload_bytes)
            losses.append(upload.loss)
            lambdas.append(upload.lam)
            if (len(state.buffer) >= buffer_size
                    and len(state.buffer) >= config.min_clients_per_round):
                staleness_applied.extend(self._flush_buffer())
                flushes += 1
        if (drain and state.buffer
                and len(state.buffer) >= config.min_clients_per_round):
            # Final partial flush: the run ends with no quorum-sized
            # upload stranded in the buffer.
            staleness_applied.extend(self._flush_buffer())
            flushes += 1

        if flushes:
            accuracy = model_segment_accuracy(
                self.server.global_model, self.mask_builder, self.global_test)
            self._last_accuracy = accuracy
        else:
            accuracy = self._held_accuracy()
        ledger.record_round(wave, None, [], num_broadcast=len(selected),
                            broadcast_bytes=bytes_down,
                            upload_bytes=upload_bytes)

        return RoundRecord(
            round_index=wave,
            selected_clients=tuple(selected),
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            mean_lambda=float(np.mean(lambdas)) if lambdas else 0.0,
            global_accuracy=accuracy,
            completed_clients=tuple(completed),
            failures=tuple(failures),
            retries=tuple(sorted(execution.retry_counts.items())),
            aggregated=flushes > 0,
            fallback_cause=fallback_cause,
            flushes=flushes,
            mean_staleness=(float(np.mean(staleness_applied))
                            if staleness_applied else 0.0),
            in_flight=tuple(sorted(state.busy_clients())),
        )


def train_isolated_then_average(model_factory: Callable[[], RecoveryModel],
                                client_data: list[ClientData],
                                mask_builder: ConstraintMaskBuilder,
                                config: FederatedConfig,
                                global_test: TrajectoryDataset,
                                seed: int = 0) -> FederatedResult:
    """The "w/o FL" ablation: no server, clients train in isolation and
    exchange final models pairwise (implemented as one final average).

    Matches the paper's Figure 7 variant where the central server is
    removed and clients swap their local models with each other.  The
    exchange — averaging and ledger accounting alike — moves the same
    flat ``(P,)`` vectors as the main federated path, so byte counts
    are directly comparable between the two (and both honour the
    exchange dtype of :func:`repro.nn.set_default_dtype`).
    """
    trainer = FederatedTrainer(model_factory, client_data, mask_builder,
                               config, global_test, seed=seed)
    codec = trainer.codec
    total_epochs = config.rounds * config.local_epochs
    flats, losses = [], []
    upload_bytes: list[int] = []
    for i, shard in enumerate(trainer.shards):
        # Indexing materialises one live client at a time from its
        # shard; the trained state is written back below so
        # result.clients reflects the training.
        client = trainer.clients[i]
        epoch_losses = client.trainer.train_epochs(client.data.train,
                                                   epochs=total_epochs)
        if codec.is_identity:
            flats.append(client.flat_parameters())
        else:
            # A single exchange: encode without a carried residual (there
            # is no next round for error feedback to land in).
            payload, decoded, _ = encode_with_feedback(
                codec, client.flat_parameters(dtype=np.float64), None)
            flats.append(decoded)
            upload_bytes.append(payload_num_bytes(payload))
        losses.append(float(np.mean(epoch_losses)))
        shard.session = client.session_state()
        shard.params_flat = client.flat_parameters(dtype=np.float64)
    trainer.server.aggregate_flat(flats)
    ledger = CommunicationLedger()
    # One exchange at the end: every client ships its model to the others.
    if codec.is_identity:
        ledger.record_round(0, trainer.server.global_flat(), flats)
    else:
        averaged = codec.encode(trainer.server.global_flat(dtype=np.float64))
        ledger.record_round(0, None, flats, num_broadcast=len(flats),
                            broadcast_bytes=payload_num_bytes(averaged),
                            upload_bytes=upload_bytes)
    accuracy = model_segment_accuracy(trainer.server.global_model, mask_builder,
                                      global_test)
    everyone = tuple(range(len(trainer.clients)))
    history = [RoundRecord(0, everyone, float(np.mean(losses)), 0.0, accuracy,
                           completed_clients=everyone)]
    return FederatedResult(
        global_model=trainer.server.global_model,
        history=history,
        ledger=ledger,
        teacher_result=None,
        clients=trainer.clients,
        global_test=global_test,
    )
