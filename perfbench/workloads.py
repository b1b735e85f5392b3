"""The four frozen workloads, driven through the program's public API.

Each workload builds its inputs from the seed alone (sizes are frozen
here, not taken from the experiment scales), runs whole repetitions of
*set-up then work* until the run's time is spent, and checks every
repetition's outputs.  :class:`Run` owns the host clock, the
calibration calls between timed units, the optional tracer, and the
metrics.

Why these four (see README.md for the layer map):

* ``fed_lighttr`` - the paper's method; training kernels dominate.
* ``fed_1k_async`` - 1000 lazy clients, int8 codec, buffered async
  waves; orchestration and sharding dominate.
* ``serve_open`` - a frozen model behind the continuous batcher; the
  scheduler and decode engine with small live working sets.
* ``recover_bulk`` - bulk recovery; cold mask builds, the spatial index
  and the decode engine with large working sets.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.core import (
    ConstraintMaskBuilder,
    RecoveryModelConfig,
    TeacherConfig,
    TrainingConfig,
    TrajectoryRecovery,
)
from repro.core.lte import LTEModel
from repro.data import SyntheticConfig, TrajectoryDataset, generate_dataset
from repro.data.trajectory import MatchedTrajectory
from repro.federated import FederatedConfig, FederatedTrainer, build_federation
from repro.metrics import evaluate_model, recall_precision
from repro.nn.flatten import FlatParameterSpace
from repro.spatial import grid_city
from repro.serving import (
    ContinuousBatcher,
    DecodeService,
    ServedResult,
    decode_model,
)

from hostcal import HostClock
from spans import Patches, Tracer

KEEP_RATIO = 0.25
MASK_RADIUS = 500.0
# The road network and the model's initial weights are frozen; the run
# seed drives the drivers, their trips and the traffic.  A network drawn
# per seed changes the segment vocabulary, hence the model size, the
# bytes on the wire, the work and recall, and made runs on different
# seeds disagree by more than host noise.
NETWORK_SEED = 11
MODEL_SEED = 5
POOL_SEED = 17  # the serving workload's request pool
#: The ``geolife_like`` preset (data-rich, mild GPS noise), sized per
#: workload.
GEOLIFE = SyntheticConfig(name="geolife_like", gps_noise_std=8.0,
                          speed_range=(4.0, 12.0))


def _world(run: "Run", seed: int | None = None, **size):
    config = replace(GEOLIFE, **size)
    network = grid_city(nx=config.network_nx, ny=config.network_ny,
                        spacing=config.network_spacing,
                        rng=np.random.default_rng(NETWORK_SEED))
    return run.call("data.synthetic.generate_dataset", generate_dataset,
                    config, seed=run.seed if seed is None else seed,
                    network=network)


def _model(dataset: TrajectoryDataset, world) -> LTEModel:
    config = RecoveryModelConfig(
        num_cells=dataset.num_cells, num_segments=dataset.num_segments,
        cell_emb_dim=16, seg_emb_dim=16, hidden_size=32, num_st_blocks=2,
        dropout=0.0, bbox=world.network.bounding_box(),
    )
    return LTEModel(config, np.random.default_rng(MODEL_SEED))


def _param_count(model) -> int:
    return FlatParameterSpace.from_module(model).total_size


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class CheckFailed(Exception):
    """An output check failed: the run's timings must not be reported."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Run:
    """One run of one workload in this process."""

    def __init__(self, workload: "Workload", seed: int, seconds: float,
                 traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.clock = HostClock()
        self.tracer = Tracer(self.clock.now)
        self.tracing = False  # True inside a traced repetition
        self.setup_s: list[float] = []
        self.work_s: list[float] = []
        self.traced_work_s: list[float] = []
        self.latencies_s: list[float] = []
        self.lateness_s: list[float] = []  # open-loop generator, raw
        self.windows: list[tuple[float, float]] = []  # traced work phases
        self.digests: set[str] = set()
        self.ops = 0
        self.failed = 0
        self.layer: dict[str, list[float]] = {}  # per-rep derived figures
        self.quality: dict[str, float] = {}

    # -- helpers the workloads call ---------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Call the program, inside a span when this rep is traced."""
        if self.tracing:
            return self.tracer.call(name, fn, *args, **kwargs)
        return fn(*args, **kwargs)

    def note(self, name: str, value: float) -> None:
        """Record a derived per-layer figure of a traced repetition."""
        if self.tracing:
            self.layer.setdefault(name, []).append(float(value))

    def calibrate(self) -> None:
        self.clock.calibrate()

    def start(self) -> tuple[float, int]:
        """Open a timed unit: ``(program time, calibration mark)``."""
        return self.clock.now(), self.clock.mark()

    def stop(self, started: tuple[float, int]) -> "Unit":
        """Close a unit opened by :meth:`start`."""
        return Unit(self.clock.now() - started[0], started[1],
                    self.clock.mark())

    def reference_s(self, unit: "Unit") -> float:
        """A unit in reference-host seconds, scaled by the calibration
        samples that bracket it and those taken inside it."""
        return unit.seconds * self.clock.factor(max(0, unit.first - 1),
                                                unit.last + 1)

    def hooks(self) -> Patches:
        """Patches for one repetition: the workload's timing hooks, then
        (traced reps) the tracer's spans."""
        patches = Patches()
        self.workload.install_hooks(self, patches)
        if self.tracing:
            self.tracer.install(patches)
        return patches

    # -- the repetition loop ----------------------------------------------
    def execute(self) -> None:
        workload = self.workload
        wall0 = time.perf_counter()
        rep = 0
        while True:
            # Traced runs alternate untraced and traced repetitions so
            # the tracing overhead is measured on the same host minute.
            self.tracing = self.traced and rep % 2 == 1
            with self.hooks():
                setups = []
                # Traced repetitions set up once: spans are per set-up.
                for _ in range(1 if self.tracing
                               else workload.setups_per_rep):
                    self.calibrate()
                    started = self.start()
                    state = workload.setup(self)
                    setups.append(self.stop(started))
                self.calibrate()
                result = workload.work(self, state)
                self.calibrate()  # the sample after the last unit
            self.setup_s.extend(self.reference_s(u) for u in setups)
            (self.traced_work_s if self.tracing else self.work_s).append(
                sum(self.reference_s(u) for u in result.work))
            if self.tracing:
                self.windows.extend(result.windows)
            else:
                self.latencies_s.extend(
                    self.reference_s(u) for u in result.latencies)
            self.ops += result.ops
            self.failed += result.failed
            self.tracing = False
            self.digests.add(workload.check(self, state, result))
            del state, result
            rep += 1
            self.wall_s = time.perf_counter() - wall0
            per_rep = self.wall_s / rep
            need = 3 if self.traced else workload.min_reps
            if rep >= need and self.wall_s + per_rep > self.seconds:
                break
        _check(len(self.digests) == 1,
               f"repetitions of one seed disagree: {sorted(self.digests)}")

    # -- results -------------------------------------------------------------
    def end_to_end(self) -> tuple[dict, list[str]]:
        """Reference-host end-to-end metrics and a few notes to print."""
        work_s = statistics.median(self.work_s)
        lat_ms = [s * 1e3 for s in self.latencies_s]
        _check(len(lat_ms) >= 200,
               f"only {len(lat_ms)} latency samples; p95 needs >= 200")
        metrics = {
            "setup_s": statistics.median(self.setup_s),
            "work_s": work_s,
            "ops_per_s": self.workload.ops_per_rep / work_s,
            "lat_p50_ms": _percentile(lat_ms, 50),
            "lat_p95_ms": _percentile(lat_ms, 95),
            "recall": self.quality["recall"],
            "comm_mb": self.quality["comm_bytes"] / 1e6,
        }
        notes = [
            f"lat_p50_ms and lat_p95_ms over {len(lat_ms)} op latencies; "
            f"{self.workload.latency_note}",
            *([f"open-loop generator lateness p95 "
               f"{_percentile(self.lateness_s, 95) * 1e3:.3f} ms (raw) over "
               f"{len(self.lateness_s)} requests"] if self.lateness_s else []),
            f"{len(self.work_s)} repetitions, {len(self.setup_s)} set-ups; "
            f"setup_s and work_s are "
            f"medians in reference-host seconds; host.cal_ms "
            f"{self.clock.cal_ms():.4f} over {len(self.clock.samples_ms)} "
            f"samples, host.wall_s {self.wall_s:.2f}",
        ]
        return metrics, notes

    def per_layer(self, names: list[str]) -> dict:
        """Per-layer metrics ``names``, per traced repetition; a boundary
        this workload never crosses reads 0."""
        factor = self.clock.factor()
        reps = len(self.traced_work_s)
        table = self.tracer.table()
        for boundary in self.workload.assigned:
            _check(table.get(boundary, (0, 0.0))[0] > 0,
                   f"boundary {boundary} recorded no calls on "
                   f"{self.workload.name}")
        metrics: dict[str, float] = {}
        for name in names:
            boundary, _, kind = name.rpartition(".")
            if kind == "calls":
                metrics[name] = table.get(boundary, (0, 0.0))[0] / reps
            elif kind == "self_s":
                metrics[name] = (table.get(boundary, (0, 0.0))[1] * factor
                                 / reps)
            else:
                metrics[name] = float(np.mean(self.layer.get(name, [0.0])))
        metrics["host.cal_ms"] = self.clock.cal_ms()
        metrics["host.wall_s"] = self.wall_s
        metrics["trace.coverage"] = self.tracer.coverage(self.windows)
        # The first repetition warms the process; compare with the
        # untraced repetitions after it.
        metrics["trace.overhead_ratio"] = (statistics.median(self.traced_work_s)
                                           / statistics.median(self.work_s[1:]))
        return metrics


class Unit(NamedTuple):
    """A timed stretch of program time and the calibration samples it
    spans: ``samples[first:last]`` were taken inside it."""

    seconds: float
    first: int
    last: int


class RepResult(NamedTuple):
    """What one repetition's work phase produced."""

    work: list[Unit]  # the timed phase, in pieces; work_s is their sum
    ops: int  # ops that completed
    latencies: list[Unit]  # one per op
    windows: list[tuple[float, float]]  # the timed phase on the clock
    failed: int = 0


class Workload:
    """A frozen workload: set-up, timed work, and output checks."""

    name = ""
    min_reps = 3
    #: Short set-ups repeat within a repetition (the last one is used),
    #: so the median set-up time rests on more samples of the host.
    setups_per_rep = 1
    ops_per_rep = 1
    latency_note = ""
    #: Boundaries that must record calls on this workload.
    assigned: tuple[str, ...] = ()

    def install_hooks(self, run: Run, patches: Patches) -> None:
        """Timing hooks every repetition needs (traced or not)."""

    def setup(self, run: Run):
        raise NotImplementedError

    def work(self, run: Run, state) -> RepResult:
        raise NotImplementedError

    def check(self, run: Run, state, result: RepResult) -> str:
        """Check the outputs; return a digest that must repeat."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# federated workloads
# ----------------------------------------------------------------------
class _Federated(Workload):
    """Shared set-up and checks of the two federated workloads."""

    latency_note = ("an op is one aggregated client update; its latency "
                    "is its round's")
    clients = 0
    rounds = 0
    world_size: dict = {}
    scheme = ""
    codec = ""
    gate_must_open = False
    #: Recall is measured on fresh trips in the same city (seeded from
    #: the run seed), large enough that the seed barely moves it: the
    #: pooled test split of a 20-client federation has ~20 trajectories.
    eval_size = {"num_drivers": 20, "trajectories_per_driver": 20,
                 "points_per_trajectory": 33}

    def config(self, seed: int) -> FederatedConfig:
        raise NotImplementedError

    def install_hooks(self, run: Run, patches: Patches) -> None:
        opened = []
        rounds = run.rounds = []
        run.lambdas = []

        def epoch(fn):  # one calibration per client epoch
            def hooked(*args, **kwargs):
                run.calibrate()
                return fn(*args, **kwargs)
            return hooked

        # A round runs from its client selection to its ledger entry.
        def round_start(fn):
            def hooked(*args, **kwargs):
                opened.append(run.start())
                return fn(*args, **kwargs)
            return hooked

        def round_end(fn):
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                rounds.append(run.stop(opened.pop()))
                return out
            return hooked

        def gate(fn):
            def hooked(*args, **kwargs):
                lam = fn(*args, **kwargs)
                run.lambdas.append(lam)
                return lam
            return hooked

        patches.wrap("repro.core.training", "LocalTrainer.train_epoch", epoch)
        patches.wrap("repro.federated.server",
                     "FederatedServer.select_clients", round_start)
        patches.wrap("repro.federated.communication",
                     "CommunicationLedger.record_round", round_end)
        patches.wrap("repro.core.distill",
                     "MetaKnowledgeDistiller.lambda_for_client", gate)

    def setup(self, run: Run):
        world = _world(run, **self.world_size)
        clients, test = run.call(
            "federated.trainer.build_federation", build_federation, world,
            num_clients=self.clients, keep_ratio=KEEP_RATIO,
            scheme=self.scheme, rng=np.random.default_rng(run.seed))
        mask = ConstraintMaskBuilder(world.network, radius=MASK_RADIUS)
        trainer = FederatedTrainer(lambda: _model(test, world), clients, mask,
                                   self.config(run.seed), test, seed=run.seed)
        return {"trainer": trainer, "mask": mask, "test": test}

    def work(self, run: Run, state) -> RepResult:
        trainer = state["trainer"]
        started = run.start()
        result = trainer.run()
        whole = run.stop(started)
        state["result"] = result
        _check(len(run.rounds) == self.rounds,
               f"expected {self.rounds} rounds, timed {len(run.rounds)}")
        history = result.history
        ops = sum(len(record.completed_clients) for record in history)
        failed = sum(len(record.failures) for record in history)
        run.note("federated.runner.failed", failed)
        run.note("federated.runner.retried",
                 sum(record.total_retries for record in history))
        run.note("federated.arena.live_slots_max", trainer.arena.live_slots)
        uploads = sum(cost.num_clients for cost in result.ledger.rounds)
        run.note("federated.communication.bytes_per_update",
                 sum(cost.bytes_up for cost in result.ledger.rounds)
                 / max(1, uploads))
        run.note("federated.asynchrony.flushes",
                 sum(record.flushes for record in history))
        staleness = [record.mean_staleness for record in history
                     if record.flushes]
        run.note("federated.asynchrony.mean_staleness",
                 float(np.mean(staleness)) if staleness else 0.0)
        run.note("core.distill.gate_open_ratio", self._gate_ratio(run))
        run.note("fail_ratio", failed / max(1, ops + failed))
        # Every update aggregated in a round has that round's latency.
        latencies = []
        for record, round_unit in zip(history, run.rounds):
            latencies.extend([round_unit] * len(record.completed_clients))
        return RepResult([whole], ops, latencies,
                         [(started[0], started[0] + whole.seconds)],
                         failed=failed)

    @staticmethod
    def _gate_ratio(run: Run) -> float:
        if not run.lambdas:
            return 0.0
        return sum(1 for lam in run.lambdas if lam > 0.0) / len(run.lambdas)

    def wire_bytes(self, params: int) -> int:
        """Closed-form payload size of one model transfer."""
        if self.codec == "identity":
            return 8 * params
        if self.codec == "int8":
            return 16 + params + 4 * math.ceil(params / 64)
        raise ValueError(self.codec)

    def check(self, run: Run, state, result: RepResult) -> str:
        trainer = state["trainer"]
        fed = state["result"]
        _check(result.failed == 0, f"{result.failed} client updates failed")
        _check(result.ops == self.ops_per_rep,
               f"{result.ops} updates aggregated, expected {self.ops_per_rep}")
        transfers = sum(len(record.selected_clients)
                        + len(record.completed_clients)
                        for record in fed.history)
        per_transfer = self.wire_bytes(trainer.server.num_parameters)
        _check(fed.ledger.total_bytes == transfers * per_transfer,
               f"ledger has {fed.ledger.total_bytes} bytes; the {self.codec} "
               f"closed form gives {transfers} x {per_transfer}")
        if self.gate_must_open:
            _check(self._gate_ratio(run) > 0.0,
                   "the distillation gate never opened")
        digest = hashlib.sha256(repr(fed.history).encode())
        digest.update(np.ascontiguousarray(
            trainer.server.global_flat(dtype=np.float64)).tobytes())
        if not run.quality:  # equal digests imply equal recall
            world = _world(run, seed=run.seed + 7919, **self.eval_size)
            held_out = TrajectoryDataset.from_matched(
                world.matched, world.grid, world.network, KEEP_RATIO)
            run.quality = {
                "recall": evaluate_model(fed.global_model, state["mask"],
                                         held_out).recall,
                "comm_bytes": fed.ledger.total_bytes,
            }
        return digest.hexdigest()


class FedLightTR(_Federated):
    """The paper's method: teacher pre-training, adaptive distillation,
    20 non-IID (by-driver) clients, synchronous rounds, identity codec."""

    name = "fed_lighttr"
    clients = 20
    rounds = 6
    setups_per_rep = 3
    ops_per_rep = clients * rounds
    world_size = {"num_drivers": 20, "trajectories_per_driver": 10,
                  "points_per_trajectory": 33}
    scheme = "by_driver"
    codec = "identity"
    gate_must_open = True
    assigned = (
        "data.synthetic.generate_dataset", "data.dataset.from_matched",
        "federated.trainer.build_federation", "core.lte.forward",
        "core.training.train_epoch", "core.teacher.train_teacher",
        "core.distill.lambda_for_client", "core.distill.term",
        "core.training.model_segment_accuracy", "nn.tensor.backward",
        "nn.optim.step", "federated.server.validate_rows",
        "federated.runner.run_round", "federated.runner.execute",
        "federated.client.local_train_flat",
    )

    def config(self, seed: int) -> FederatedConfig:
        training = TrainingConfig(batch_size=16, lr=3e-3)
        return FederatedConfig(
            rounds=self.rounds, client_fraction=1.0, local_epochs=1,
            training=training, use_meta=True,
            teacher=TeacherConfig(epochs_per_client=1, cycles=1,
                                  training=training),
            exchange_codec=self.codec, lazy_clients=True, workers=0,
        )


class Fed1kAsync(_Federated):
    """1000 lazy clients, 2% per wave, int8 codec with error feedback,
    FedBuff-style buffered async waves under a seeded latency model."""

    name = "fed_1k_async"
    clients = 1000
    rounds = 8
    ops_per_rep = 20 * rounds
    world_size = {"num_drivers": 40, "trajectories_per_driver": 50,
                  "points_per_trajectory": 17}
    scheme = "iid"
    codec = "int8"
    assigned = (
        "data.synthetic.generate_dataset", "data.dataset.from_matched",
        "federated.trainer.build_federation",
        "core.training.model_segment_accuracy",
        "nn.flatten.get_flat", "nn.flatten.set_flat",
        "federated.server.select_clients", "federated.server.validate_upload",
        "federated.server.aggregate_rows", "federated.arena.checkout",
        "federated.arena.checkin", "federated.communication.encode",
        "federated.communication.decode", "federated.runner.run_round",
        "federated.runner.execute", "federated.client.local_train_flat",
    )

    def config(self, seed: int) -> FederatedConfig:
        return FederatedConfig(
            rounds=self.rounds, client_fraction=0.02, local_epochs=1,
            training=TrainingConfig(batch_size=16, lr=3e-3), use_meta=False,
            exchange_codec=self.codec, async_buffer=10, staleness_alpha=0.5,
            latency=f"seed={seed},base=1,jitter=2,heavy=0.1",
            lazy_clients=True, arena_size=1, collation_cache_entries=2,
            workers=0,
        )


# ----------------------------------------------------------------------
# serving and bulk recovery
# ----------------------------------------------------------------------
class ServeOpen(Workload):
    """A frozen LTE model behind the continuous batcher.

    Phase one is a seeded Poisson open loop driven from one thread over
    :class:`ContinuousBatcher` well below capacity; each latency runs
    from the request's due time on the program clock.  Phase two pushes
    the same requests through :class:`DecodeService` as closed bursts
    and gives ``work_s``.
    """

    name = "serve_open"
    setups_per_rep = 3
    unique_requests = 128
    rate_hz = 50.0
    bursts = 6
    ops_per_rep = bursts * unique_requests
    latency_note = "a request's latency runs from its due time"
    max_batch = 8
    assigned = (
        "data.synthetic.generate_dataset", "data.dataset.from_matched",
        "data.dataset.full_batch", "core.mask.build_for",
        "nn.kernel.st_decode_step",
        "serving.scheduler.submit", "serving.scheduler.step",
    )

    def install_hooks(self, run: Run, patches: Patches) -> None:
        if not run.tracing:
            return
        depth = run.step_samples = []

        def sample(fn):
            def hooked(batcher, *args, **kwargs):
                depth.append((batcher.live_rows, batcher.queue_depth))
                return fn(batcher, *args, **kwargs)
            return hooked

        patches.wrap("repro.serving.scheduler", "ContinuousBatcher.step",
                     sample)

    def setup(self, run: Run):
        # The request pool is frozen and the run seed drives the traffic
        # (arrival times and orders), so every seed asks for the same
        # decoding: with a seeded pool, mask density alone moved burst
        # time by more than the host noise.
        world = _world(run, seed=POOL_SEED, num_drivers=16,
                       trajectories_per_driver=8, points_per_trajectory=33)
        # Ragged lengths make rows retire at different steps, which is
        # what continuous batching exists for.
        lengths = np.random.default_rng(POOL_SEED).permutation(
            np.resize(np.arange(9, 34), len(world.matched)))
        trimmed = [MatchedTrajectory(t.traj_id, t.driver_id, t.epsilon,
                                     t.points[:int(n)])
                   for t, n in zip(world.matched, lengths)]
        dataset = TrajectoryDataset.from_matched(trimmed, world.grid,
                                                 world.network, KEEP_RATIO)
        model = _model(dataset, world)
        model.eval()
        mask = ConstraintMaskBuilder(world.network, radius=MASK_RADIUS)
        requests = []
        for index in range(self.unique_requests):
            single = TrajectoryDataset([dataset.examples[index]], world.grid,
                                       world.network, KEEP_RATIO)
            batch = single.full_batch()
            requests.append((batch, mask.build_for(batch, model)))
        # Each request is sent once per phase, in seeded orders.
        rng = np.random.default_rng(run.seed)
        order = rng.permutation(len(requests))
        gaps = rng.exponential(1.0 / self.rate_hz, size=len(requests))
        burst = [requests[i] for i in rng.permutation(len(requests))]
        return {"model": model, "requests": requests, "order": order,
                "due": np.cumsum(gaps), "burst_requests": burst, "rng": rng}

    def _open_loop(self, run: Run, state) -> tuple[list, list, dict]:
        """Phase one; returns (latency units, lateness, outcomes), the
        latter keyed by arrival position."""
        clock = run.clock
        requests, order, due = state["requests"], state["order"], state["due"]
        batcher = ContinuousBatcher(state["model"], max_batch=self.max_batch)
        latencies = []
        lateness = []
        served = {}
        handles = {}
        next_up = 0
        start = clock.now()
        while next_up < len(order) or not batcher.idle:
            now = clock.now() - start
            if next_up < len(order) and due[next_up] <= now:
                run.calibrate()  # one per request, on paused time
                lateness.append(clock.now() - start - due[next_up])
                batch, log_mask = requests[order[next_up]]
                handle = batcher.submit(batch, log_mask)
                handles[handle] = (next_up, clock.mark())
                next_up += 1
                continue
            if batcher.idle:
                _sleep_until(clock, start + due[next_up])
                continue
            for handle, outcome in batcher.step():
                index, first = handles.pop(handle)
                latencies.append(Unit(clock.now() - start - due[index],
                                      first, clock.mark()))
                served[index] = outcome
        return latencies, lateness, served

    def work(self, run: Run, state) -> RepResult:
        latencies, lateness, served = self._open_loop(run, state)
        if not run.tracing:
            run.lateness_s.extend(lateness)
        bursts = []
        windows = []
        outcomes = []
        for _ in range(self.bursts):
            run.calibrate()  # the service thread is not running yet
            with DecodeService(state["model"], max_batch=self.max_batch,
                               max_queue=self.unique_requests) as service:
                started = run.start()
                handles = [service.submit(batch, log_mask)
                           for batch, log_mask in state["burst_requests"]]
                outcomes = [service.result(h, timeout=120) for h in handles]
                bursts.append(run.stop(started))
            windows.append((started[0], started[0] + bursts[-1].seconds))
        burst_s = sum(unit.seconds for unit in bursts)
        state["served"] = served
        state["burst"] = outcomes
        failed = sum(1 for o in [*served.values(), *outcomes]
                     if not isinstance(o, ServedResult))
        if run.tracing:
            # What the service adds around the batcher: thread handoff,
            # futures and locking, per request.
            stepping = run.tracer.inclusive("serving.scheduler.step", windows)
            run.note("serving.service.handoff_ms",
                     (burst_s - stepping) * run.clock.factor() * 1e3
                     / self.ops_per_rep)
            run.note("loadgen.late_p95_ms",
                     _percentile(lateness, 95) * run.clock.factor() * 1e3)
            rows, queue = zip(*run.step_samples)
            run.note("serving.scheduler.batch_rows_mean", float(np.mean(rows)))
            run.note("serving.scheduler.queue_depth_mean",
                     float(np.mean(queue)))
        attempted = len(served) + len(outcomes)
        run.note("fail_ratio", failed / attempted)
        return RepResult(bursts, attempted - failed, latencies, windows,
                         failed=failed)

    def check(self, run: Run, state, result: RepResult) -> str:
        requests, order = state["requests"], state["order"]
        served = state["served"]
        _check(len(served) == len(order), "open-loop requests went missing")
        _check(len(state["burst"]) == len(requests),
               "burst requests went missing")
        sample = state["rng"].choice(len(order), size=8, replace=False)
        for index in sample:
            batch, log_mask = requests[order[index]]
            solo = decode_model(state["model"], batch, log_mask)
            got = served[int(index)]
            valid = batch.tgt_mask
            _check(np.array_equal(got.segments[valid], solo.segments[valid])
                   and np.array_equal(got.ratios[valid],
                                      solo.ratios.data[valid]),
                   f"served request {index} differs from a solo decode")
        preds = []
        truth = []
        masks = []
        for (batch, _), outcome in zip(state["burst_requests"],
                                       state["burst"]):
            preds.append(outcome.segments[0])
            truth.append(batch.tgt_segments[0])
            masks.append((batch.tgt_mask & ~batch.observed_flags)[0])
        width = max(len(p) for p in preds)

        def pad(rows):
            return np.stack([np.pad(r, (0, width - len(r))) for r in rows])

        recall, _ = recall_precision(pad(preds), pad(truth), pad(masks))
        run.quality = {"recall": recall,
                       "comm_bytes": 8 * _param_count(state["model"])}
        digest = hashlib.sha256(repr(recall).encode())
        for outcome in state["burst"]:
            digest.update(outcome.segments.tobytes())
        return digest.hexdigest()


def _sleep_until(clock: HostClock, target: float) -> None:
    remaining = target - clock.now()
    if remaining > 0.002:
        time.sleep(remaining - 0.001)
    while clock.now() < target:
        pass


class RecoverBulk(Workload):
    """``TrajectoryRecovery.recover_dataset`` over 2400 trajectories in
    chunks: one cold pass (empty mask-row pool), then warm passes on the
    same builder.  An op is one recovered trajectory."""

    name = "recover_bulk"
    chunk = 30
    warm_passes = 1
    world_size = {"num_drivers": 40, "trajectories_per_driver": 60,
                  "points_per_trajectory": 33}
    ops_per_rep = 2400 * (1 + warm_passes)
    latency_note = "a trajectory's latency is its chunk's time / chunk size"
    assigned = (
        "data.synthetic.generate_dataset", "data.dataset.from_matched",
        "data.dataset.full_batch", "spatial.index.query", "core.mask.build_for",
        "serving.api.decode_model", "core.recovery.recover_dataset",
        "nn.kernel.st_decode_step",
    )

    def install_hooks(self, run: Run, patches: Patches) -> None:
        if not run.tracing:
            return
        rows = run.mask_rows = []

        def count(fn):
            def hooked(*args, **kwargs):
                mask = fn(*args, **kwargs)
                rows.append(int(np.prod(mask.shape[:-1])))
                return mask
            return hooked

        patches.wrap("repro.core.mask", "ConstraintMaskBuilder.build_for",
                     count)

    def setup(self, run: Run):
        world = _world(run, **self.world_size)
        dataset = TrajectoryDataset.from_matched(world.matched, world.grid,
                                                 world.network, KEEP_RATIO)
        _check(len(dataset) == 2400, f"world has {len(dataset)} trajectories")
        # Strided chunks mix every driver's home region, so the cold
        # pass's cost decays smoothly from chunk to chunk instead of
        # jumping wherever a new region starts.
        count = len(dataset) // self.chunk
        chunks = [TrajectoryDataset(dataset.examples[i::count], world.grid,
                                    world.network, KEEP_RATIO)
                  for i in range(count)]
        model = _model(dataset, world)
        mask = ConstraintMaskBuilder(world.network, radius=MASK_RADIUS)
        return {"chunks": chunks, "model": model, "mask": mask,
                "recovery": TrajectoryRecovery(model, mask)}

    def work(self, run: Run, state) -> RepResult:
        recovery = state["recovery"]
        units = []
        passes = []
        outputs = []
        for number in range(1 + self.warm_passes):
            p0 = run.clock.now()
            for chunk in state["chunks"]:
                run.calibrate()
                started = run.start()
                out = recovery.recover_dataset(chunk)
                units.append(run.stop(started))
                if number == 0:
                    outputs.append(out)
            passes.append((p0, run.clock.now()))
        state["outputs"] = outputs
        if run.tracing:
            cold = run.tracer.table([passes[0]])
            warm = run.tracer.table(passes[1:])
            cold_s = cold.get("core.mask.build_for", (0, 0.0))[1]
            warm_s = warm.get("core.mask.build_for", (0, 0.0))[1]
            run.note("core.mask.rows", sum(run.mask_rows))
            run.note("core.mask.cold_warm_ratio",
                     cold_s / (warm_s / self.warm_passes))
        run.note("fail_ratio", 0.0)
        latencies = [unit._replace(seconds=unit.seconds / self.chunk)
                     for unit in units]
        return RepResult(units, self.ops_per_rep, latencies, passes)

    def check(self, run: Run, state, result: RepResult) -> str:
        mask = state["mask"]
        digest = hashlib.sha256()
        recalls = []
        for chunk, recovered in zip(state["chunks"], state["outputs"]):
            batch = chunk.full_batch()
            log_mask = mask.build_for(batch, state["model"])
            _check(hasattr(log_mask, "indptr"),
                   "expected the default sparse constraint mask")
            steps = batch.tgt_segments.shape[1]
            pred = np.zeros_like(batch.tgt_segments)
            for i, item in enumerate(recovered):
                segments = [p.segment_id for p in item.trajectory.points]
                ratios = [p.ratio for p in item.trajectory.points]
                pred[i, :len(segments)] = segments
                for j in np.flatnonzero(batch.observed_flags[i]):
                    _check(segments[j] == batch.tgt_segments[i, j]
                           and ratios[j] == batch.tgt_ratios[i, j],
                           f"observed point {j} of trajectory "
                           f"{item.traj_id} changed")
                for j in item.recovered_indices:
                    row = i * steps + j
                    lo, hi = log_mask.indptr[row], log_mask.indptr[row + 1]
                    support = log_mask.indices[lo:hi]
                    _check(hi == lo or segments[j] in support,
                           f"recovered segment {segments[j]} of trajectory "
                           f"{item.traj_id} step {j} is outside its mask")
            evaluated = batch.tgt_mask & ~batch.observed_flags
            recalls.append(recall_precision(pred, batch.tgt_segments,
                                            evaluated)[0])
            digest.update(pred.tobytes())
        recall = float(np.mean(recalls))
        run.quality = {"recall": recall,
                       "comm_bytes": 8 * _param_count(state["model"])}
        digest.update(repr(recall).encode())
        return digest.hexdigest()


WORKLOADS = {w.name: w for w in (FedLightTR(), Fed1kAsync(), ServeOpen(),
                                 RecoverBulk())}
