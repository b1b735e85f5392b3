"""Experiment harness: one entry point per paper table / figure.

:class:`ExperimentContext` owns the synthetic worlds, federations, and
mask builders (cached so sweeps share them), and ``run_*`` functions
regenerate each experiment's rows at a configurable scale.  The
``small`` scale keeps every benchmark in CPU-minutes; shapes (who wins,
by roughly what factor) are the reproduction target, not absolute
numbers - see EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..baselines import make_model_factory
from ..baselines.centralized import train_centralized
from ..core import (
    ConstraintMaskBuilder,
    RecoveryModelConfig,
    TrainingConfig,
)
from ..data.synthetic import SyntheticDataset, geolife_like, tdrive_like
from ..federated import (
    FederatedConfig,
    FederatedResult,
    FederatedTrainer,
    build_federation,
    train_isolated_then_average,
)
from ..metrics import MetricRow, evaluate_model

__all__ = [
    "ExperimentScale", "SCALES", "MethodRun", "ExperimentContext",
    "run_overall_comparison", "run_client_count_sweep", "run_fraction_sweep",
    "run_centralized_comparison", "run_ablation", "run_sensitivity",
    "run_design_ablations", "run_case_study", "run_convergence",
    "run_fault_tolerance_sweep",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs for a whole experiment campaign."""

    name: str
    num_drivers: int
    trajectories_per_driver: int
    points_per_trajectory: int
    num_clients: int
    rounds: int
    local_epochs: int
    hidden_size: int
    cell_emb_dim: int
    seg_emb_dim: int
    batch_size: int = 16
    lr: float = 3e-3
    mask_radius: float = 500.0
    seed: int = 7
    workers: int = 0  # > 0: process-pool round runner (identical results)
    decode_batch: int = 0  # > 0: bound the packed-decode working set
    compute_dtype: str = "float64"  # "float32": mixed-precision substrate
    # --- robustness knobs (docs/ROBUSTNESS.md) ---
    min_clients_per_round: int = 1  # aggregation quorum
    task_retries: int = 1  # re-attempts per failed client task
    task_deadline: float = 0.0  # per-task wall-clock seconds (0 = none)
    fault_plan: str = ""  # e.g. "dropout=0.3,crash=0.1,seed=42" ("" = none)
    checkpoint_every: int = 0  # persist run state every K rounds (0 = never)
    checkpoint_dir: str = ""
    resume_from: str = ""  # checkpoint file or directory ("" = fresh run)
    # --- communication / async knobs (docs/PERFORMANCE.md, ROBUSTNESS.md) ---
    exchange_codec: str = ""  # "identity"/"float32"/"int8"/"int8-nofb" ("" = default)
    async_buffer: int = 0  # FedBuff buffer size K (0 = synchronous rounds)
    staleness_alpha: float = 0.5  # async staleness discount exponent
    clients_per_round: float = 0.0  # async sampling fraction (0 = client_fraction)
    latency: str = ""  # e.g. "base=1,jitter=2,heavy=0.1,seed=7" ("" = default)
    # --- client-scale knobs (docs/PERFORMANCE.md "Client scale") ---
    arena_size: int = 1  # live model slots
    collation_cache_entries: int = 0  # per-dataset batch-cache cap (0 = default)


SCALES: dict[str, ExperimentScale] = {
    # Unit-test scale: seconds.
    "tiny": ExperimentScale(
        name="tiny", num_drivers=6, trajectories_per_driver=4,
        points_per_trajectory=17, num_clients=3, rounds=2, local_epochs=1,
        hidden_size=24, cell_emb_dim=8, seg_emb_dim=8,
    ),
    # Benchmark scale: a couple of minutes per table.
    "small": ExperimentScale(
        name="small", num_drivers=12, trajectories_per_driver=8,
        points_per_trajectory=33, num_clients=4, rounds=6, local_epochs=2,
        hidden_size=48, cell_emb_dim=16, seg_emb_dim=16,
    ),
    # Close to the paper's protocol (20 clients); CPU-hours.
    "paper": ExperimentScale(
        name="paper", num_drivers=40, trajectories_per_driver=12,
        points_per_trajectory=33, num_clients=20, rounds=20, local_epochs=3,
        hidden_size=64, cell_emb_dim=24, seg_emb_dim=24,
    ),
}


@dataclass
class MethodRun:
    """Result of training + evaluating one method in one setting."""

    method: str
    dataset: str
    keep_ratio: float
    metrics: MetricRow
    elapsed_seconds: float
    comm_bytes: int
    history: list = field(default_factory=list)

    def as_row(self) -> dict:
        row = {"method": self.method, "dataset": self.dataset,
               "keep_ratio": self.keep_ratio, **self.metrics.as_dict()}
        row["seconds"] = self.elapsed_seconds
        row["comm_mb"] = self.comm_bytes / 1e6
        return row


class ExperimentContext:
    """Caches worlds / federations / masks across an experiment sweep."""

    DATASET_BUILDERS = {"geolife": geolife_like, "tdrive": tdrive_like}

    def __init__(self, scale: ExperimentScale):
        self.scale = scale
        self._datasets: dict[str, SyntheticDataset] = {}
        self._federations: dict[tuple, tuple] = {}
        self._masks: dict[str, ConstraintMaskBuilder] = {}

    # ------------------------------------------------------------------
    # cached building blocks
    # ------------------------------------------------------------------
    def dataset(self, name: str) -> SyntheticDataset:
        """The synthetic stand-in world for ``geolife`` or ``tdrive``."""
        if name not in self._datasets:
            builder = self.DATASET_BUILDERS.get(name)
            if builder is None:
                raise ValueError(f"unknown dataset {name!r}")
            self._datasets[name] = builder(
                num_drivers=self.scale.num_drivers,
                trajectories_per_driver=self.scale.trajectories_per_driver,
                points_per_trajectory=self.scale.points_per_trajectory,
                seed=self.scale.seed,
            )
        return self._datasets[name]

    def mask_builder(self, name: str, identity: bool = False) -> ConstraintMaskBuilder:
        key = f"{name}:identity" if identity else name
        if key not in self._masks:
            self._masks[key] = ConstraintMaskBuilder(
                self.dataset(name).network, radius=self.scale.mask_radius,
                identity=identity,
            )
        return self._masks[key]

    def federation(self, name: str, keep_ratio: float,
                   num_clients: int | None = None):
        """Cached ``(clients, global_test)`` shards."""
        clients = num_clients if num_clients is not None else self.scale.num_clients
        key = (name, keep_ratio, clients)
        if key not in self._federations:
            self._federations[key] = build_federation(
                self.dataset(name), clients, keep_ratio,
                rng=np.random.default_rng(self.scale.seed + 13),
            )
        return self._federations[key]

    def model_config(self, name: str) -> RecoveryModelConfig:
        ds = self.dataset(name)
        return RecoveryModelConfig(
            num_cells=ds.grid.num_cells,
            num_segments=ds.network.num_segments,
            cell_emb_dim=self.scale.cell_emb_dim,
            seg_emb_dim=self.scale.seg_emb_dim,
            hidden_size=self.scale.hidden_size,
            dropout=0.0,
            bbox=ds.network.bounding_box(),
        )

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(epochs=self.scale.local_epochs,
                              batch_size=self.scale.batch_size, lr=self.scale.lr)

    def federated_config(self, use_meta: bool, client_fraction: float = 1.0,
                         lambda0: float = 5.0, lt: float = 0.4,
                         rounds: int | None = None,
                         dynamic_lambda: bool = True,
                         workers: int | None = None,
                         run_tag: str | None = None) -> FederatedConfig:
        scale = self.scale
        return FederatedConfig(
            rounds=rounds if rounds is not None else scale.rounds,
            client_fraction=client_fraction,
            local_epochs=scale.local_epochs,
            training=self.training_config(),
            use_meta=use_meta,
            lambda0=lambda0,
            lt=lt,
            dynamic_lambda=dynamic_lambda,
            workers=scale.workers if workers is None else workers,
            min_clients_per_round=scale.min_clients_per_round,
            task_retries=scale.task_retries,
            task_deadline=scale.task_deadline or None,
            fault_plan=scale.fault_plan or None,
            checkpoint_every=scale.checkpoint_every,
            checkpoint_dir=self._scoped_checkpoint_dir(
                scale.checkpoint_dir, run_tag),
            resume_from=self._scoped_resume_from(scale.resume_from, run_tag),
            exchange_codec=scale.exchange_codec or None,
            async_buffer=scale.async_buffer,
            staleness_alpha=scale.staleness_alpha,
            clients_per_round=scale.clients_per_round or None,
            latency=scale.latency or None,
            arena_size=scale.arena_size,
            collation_cache_entries=scale.collation_cache_entries,
        )

    @staticmethod
    def _scoped_checkpoint_dir(base: str, run_tag: str | None) -> str | None:
        """Per-run checkpoint subdirectory.

        One experiment invocation trains many federations (method x
        dataset x sweep point), and their models disagree on parameter
        count — unscoped, every run would overwrite the same
        ``round_*.ckpt`` files and a resume would hand one method
        another method's weights.
        """
        if not base:
            return None
        return os.path.join(base, run_tag) if run_tag else base

    @staticmethod
    def _scoped_resume_from(base: str, run_tag: str | None) -> str | None:
        if not base:
            return None
        # A run resumes from its own tagged subdirectory when the resume
        # target is a directory laid out by _scoped_checkpoint_dir; a
        # direct checkpoint file (or an untagged flat directory) is used
        # as given.
        if run_tag and os.path.isdir(os.path.join(base, run_tag)):
            return os.path.join(base, run_tag)
        return base

    # ------------------------------------------------------------------
    # the core run
    # ------------------------------------------------------------------
    def run_method(self, method: str, dataset_name: str, keep_ratio: float,
                   num_clients: int | None = None, client_fraction: float = 1.0,
                   use_meta: bool | None = None, lambda0: float = 5.0,
                   lt: float = 0.4, rounds: int | None = None,
                   isolated: bool = False, mask_identity: bool = False,
                   dynamic_lambda: bool = True,
                   workers: int | None = None,
                   decode_batch: int | None = None) -> MethodRun:
        """Train ``method`` federated and evaluate on the pooled test set.

        ``workers`` (default: the scale's setting) runs each round's
        selected clients in that many worker processes; results are
        bit-identical to the serial run, only wall-clock changes.
        ``decode_batch`` (default: the scale's setting; 0 = unbounded)
        caps how many trajectories the evaluation's packed decode steps
        together — a memory knob, not an accuracy knob.  The scale's
        ``compute_dtype`` scopes the whole run (model construction,
        training, and evaluation) to that kernel precision; ``float64``
        (the default) is the bitwise reference substrate.
        """
        clients, global_test = self.federation(dataset_name, keep_ratio, num_clients)
        config = self.model_config(dataset_name)
        mask = self.mask_builder(dataset_name, identity=mask_identity)
        with nn.use_compute_dtype(self.scale.compute_dtype):
            factory = make_model_factory(method, config,
                                         self.dataset(dataset_name).network,
                                         seed=self.scale.seed + 29)
            meta = use_meta if use_meta is not None else (method == "LightTR")
            # Unique per training run within one experiment invocation,
            # so checkpoint subdirectories never collide across the
            # method/dataset/hyper-parameter grid.
            run_tag = re.sub(r"[^\w.-]+", "-", (
                f"{method}_{dataset_name}_k{keep_ratio:g}_c{len(clients)}"
                f"_f{client_fraction:g}_l{lambda0:g}_t{lt:g}"
                f"_r{rounds if rounds is not None else self.scale.rounds}"
                f"_u{int(meta)}_d{int(dynamic_lambda)}"
                f"_m{int(mask_identity)}_i{int(isolated)}"))
            fed_config = self.federated_config(use_meta=meta,
                                               client_fraction=client_fraction,
                                               lambda0=lambda0, lt=lt,
                                               rounds=rounds,
                                               dynamic_lambda=dynamic_lambda,
                                               workers=workers,
                                               run_tag=run_tag)
            start = time.perf_counter()
            if isolated:
                result: FederatedResult = train_isolated_then_average(
                    factory, clients, mask, fed_config, global_test,
                    seed=self.scale.seed,
                )
            else:
                result = FederatedTrainer(factory, clients, mask, fed_config,
                                          global_test,
                                          seed=self.scale.seed).run()
            elapsed = time.perf_counter() - start
            if decode_batch is None:
                decode_batch = self.scale.decode_batch
            row = evaluate_model(result.global_model, mask, global_test,
                                 decode_batch=decode_batch or None)
        return MethodRun(
            method=method, dataset=dataset_name, keep_ratio=keep_ratio,
            metrics=row, elapsed_seconds=elapsed,
            comm_bytes=result.ledger.total_bytes,
            history=[r.global_accuracy for r in result.history],
        )


# ----------------------------------------------------------------------
# experiment entry points (one per table / figure)
# ----------------------------------------------------------------------

def run_overall_comparison(context: ExperimentContext,
                           datasets: tuple[str, ...] = ("geolife", "tdrive"),
                           keep_ratios: tuple[float, ...] = (0.0625, 0.125, 0.25),
                           methods: tuple[str, ...] = (
                               "FC+FL", "RNN+FL", "MTrajRec+FL",
                               "RNTrajRec+FL", "LightTR"),
                           ) -> list[MethodRun]:
    """Table IV: every method x dataset x keep ratio."""
    runs = []
    for dataset in datasets:
        for keep in keep_ratios:
            for method in methods:
                runs.append(context.run_method(method, dataset, keep))
    return runs


def run_client_count_sweep(context: ExperimentContext,
                           datasets: tuple[str, ...] = ("geolife", "tdrive"),
                           client_counts: tuple[int, ...] = (5, 10, 15, 20),
                           keep_ratio: float = 0.125) -> list[MethodRun]:
    """Table V: LightTR accuracy vs number of clients."""
    runs = []
    for dataset in datasets:
        for count in client_counts:
            run = context.run_method("LightTR", dataset, keep_ratio,
                                     num_clients=count)
            run.method = f"LightTR@{count}clients"
            runs.append(run)
    return runs


def run_fraction_sweep(context: ExperimentContext,
                       datasets: tuple[str, ...] = ("geolife", "tdrive"),
                       fractions: tuple[float, ...] = (0.2, 0.5, 0.8, 1.0),
                       keep_ratio: float = 0.125) -> list[MethodRun]:
    """Figure 6: LightTR accuracy vs sampled client fraction."""
    runs = []
    for dataset in datasets:
        for fraction in fractions:
            run = context.run_method("LightTR", dataset, keep_ratio,
                                     client_fraction=fraction)
            run.method = f"LightTR@{int(fraction * 100)}%"
            runs.append(run)
    return runs


def run_centralized_comparison(context: ExperimentContext,
                               datasets: tuple[str, ...] = ("geolife", "tdrive"),
                               keep_ratios: tuple[float, ...] = (0.0625, 0.125, 0.25),
                               ) -> list[MethodRun]:
    """Table VI: centralized MTrajRec vs federated LightTR."""
    runs = []
    for dataset in datasets:
        for keep in keep_ratios:
            clients, global_test = context.federation(dataset, keep)
            config = context.model_config(dataset)
            mask = context.mask_builder(dataset)
            # The centralized leg bypasses run_method, so scope the
            # compute dtype here too — Table VI must compare both
            # methods on the same substrate.
            with nn.use_compute_dtype(context.scale.compute_dtype):
                factory = make_model_factory("MTrajRec", config,
                                             context.dataset(dataset).network,
                                             seed=context.scale.seed + 29)
                total_epochs = context.scale.rounds * context.scale.local_epochs
                start = time.perf_counter()
                model = train_centralized(factory, clients, mask,
                                          context.training_config(), total_epochs,
                                          seed=context.scale.seed)
                elapsed = time.perf_counter() - start
                row = evaluate_model(model, mask, global_test)
            runs.append(MethodRun(
                method="MTrajRec(centralized)", dataset=dataset, keep_ratio=keep,
                metrics=row, elapsed_seconds=elapsed, comm_bytes=0,
            ))
            runs.append(context.run_method("LightTR", dataset, keep))
    return runs


def run_ablation(context: ExperimentContext,
                 datasets: tuple[str, ...] = ("geolife", "tdrive"),
                 keep_ratio: float = 0.125) -> list[MethodRun]:
    """Figure 7: w/o FL, w/o LS (lightweight ST-operator), w/o Meta."""
    runs = []
    for dataset in datasets:
        wofl = context.run_method("LightTR", dataset, keep_ratio,
                                  use_meta=False, isolated=True)
        wofl.method = "w/o FL"
        runs.append(wofl)

        wols = context.run_method("MTrajRec", dataset, keep_ratio, use_meta=True)
        wols.method = "w/o LS"
        runs.append(wols)

        wometa = context.run_method("LightTR", dataset, keep_ratio, use_meta=False)
        wometa.method = "w/o Meta"
        runs.append(wometa)

        runs.append(context.run_method("LightTR", dataset, keep_ratio))
    return runs


def run_design_ablations(context: ExperimentContext,
                         datasets: tuple[str, ...] = ("geolife",),
                         keep_ratio: float = 0.125) -> list[MethodRun]:
    """Design-choice ablations beyond the paper's Figure 7:

    * fixed lambda0 instead of the Eq. 18 adaptive schedule;
    * constraint mask disabled (identity mask).

    These probe the two mechanisms DESIGN.md flags as load-bearing.
    """
    runs = []
    for dataset in datasets:
        full = context.run_method("LightTR", dataset, keep_ratio)
        full.method = "LightTR (full)"
        runs.append(full)

        fixed = context.run_method("LightTR", dataset, keep_ratio,
                                   dynamic_lambda=False)
        fixed.method = "fixed lambda"
        runs.append(fixed)

        nomask = context.run_method("LightTR", dataset, keep_ratio,
                                    mask_identity=True)
        nomask.method = "no constraint mask"
        runs.append(nomask)
    return runs


def run_sensitivity(context: ExperimentContext,
                    datasets: tuple[str, ...] = ("geolife", "tdrive"),
                    lambdas: tuple[float, ...] = (0.1, 1.0, 5.0, 10.0),
                    thresholds: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6),
                    keep_ratio: float = 0.125) -> list[MethodRun]:
    """Figure 8: sensitivity to lambda0 and the threshold lt."""
    runs = []
    for dataset in datasets:
        for lam in lambdas:
            run = context.run_method("LightTR", dataset, keep_ratio, lambda0=lam)
            run.method = f"lambda={lam}"
            runs.append(run)
        for lt in thresholds:
            run = context.run_method("LightTR", dataset, keep_ratio, lt=lt)
            run.method = f"lt={lt}"
            runs.append(run)
    return runs


def run_case_study(context: ExperimentContext, dataset_name: str = "tdrive",
                   keep_ratio: float = 0.125,
                   methods: tuple[str, ...] = ("LightTR", "RNN+FL", "RNTrajRec+FL"),
                   ) -> dict:
    """Figure 9: recovered points vs ground truth for one trajectory.

    Returns observed / ground-truth / per-method predicted coordinate
    arrays for the first pooled-test trajectory.
    """
    from ..core.recovery import TrajectoryRecovery

    clients, global_test = context.federation(dataset_name, keep_ratio)
    network = context.dataset(dataset_name).network
    mask = context.mask_builder(dataset_name)
    example = global_test.examples[0]
    single = type(global_test)([example], global_test.grid, network, keep_ratio)

    truth_xy = np.array([
        [p.x, p.y] for p in (
            network.position_at(int(s), float(r))
            for s, r in zip(example.tgt_segments, example.tgt_ratios)
        )
    ])
    observed_xy = example.obs_xy.copy()

    predictions: dict[str, np.ndarray] = {}
    # Trains its own models rather than going through run_method, so
    # scope the compute dtype here too.
    with nn.use_compute_dtype(context.scale.compute_dtype):
        for method in methods:
            run_cfg = context.federated_config(use_meta=(method == "LightTR"))
            factory = make_model_factory(method,
                                         context.model_config(dataset_name),
                                         network, seed=context.scale.seed + 29)
            result = FederatedTrainer(factory, clients, mask, run_cfg,
                                      global_test,
                                      seed=context.scale.seed).run()
            recovery = TrajectoryRecovery(result.global_model, mask)
            recovered = recovery.recover_dataset(single)[0].trajectory
            predictions[method] = np.array([
                [p.x, p.y] for p in recovered.positions(network)
            ])
    return {
        "ground_truth": truth_xy,
        "observed": observed_xy,
        "predictions": predictions,
        "observed_flags": example.observed_flags.copy(),
    }


def run_fault_tolerance_sweep(context: ExperimentContext,
                              dataset_name: str = "geolife",
                              keep_ratio: float = 0.125,
                              dropout_rates: tuple[float, ...] = (
                                  0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                              fault_seed: int = 1013,
                              task_retries: int = 0,
                              workers: int | None = None) -> list[dict]:
    """Failure-scenario sweep: global accuracy vs injected dropout rate.

    Each run trains LightTR (without the meta module, to keep the sweep
    in CPU-seconds) under a seeded dropout-only
    :class:`~repro.federated.faults.FaultPlan` and reports the final
    global accuracy alongside the failure telemetry.  ``task_retries``
    defaults to 0 so the dropout rate is felt undamped — retried
    attempts redraw their fault and would mask it.
    """
    import dataclasses

    clients, global_test = context.federation(dataset_name, keep_ratio)
    mask = context.mask_builder(dataset_name)
    rows = []
    with nn.use_compute_dtype(context.scale.compute_dtype):
        factory = make_model_factory("LightTR",
                                     context.model_config(dataset_name),
                                     context.dataset(dataset_name).network,
                                     seed=context.scale.seed + 29)
        for rate in dropout_rates:
            plan = f"dropout={rate:g},seed={fault_seed}" if rate else None
            config = dataclasses.replace(
                context.federated_config(
                    use_meta=False, workers=workers,
                    run_tag=f"faults_{dataset_name}_d{rate:g}"),
                fault_plan=plan, task_retries=task_retries,
            )
            result = FederatedTrainer(factory, clients, mask, config,
                                      global_test,
                                      seed=context.scale.seed).run()
            history = result.history
            rows.append({
                "dropout": rate,
                "accuracy": history[-1].global_accuracy,
                "rounds": len(history),
                "rounds_skipped": sum(1 for r in history if not r.aggregated),
                "failed_client_rounds": sum(len(r.failures) for r in history),
                "completed_client_rounds": sum(len(r.completed_clients)
                                               for r in history),
            })
    return rows


def run_convergence(context: ExperimentContext, dataset_name: str = "geolife",
                    keep_ratio: float = 0.125,
                    methods: tuple[str, ...] = ("RNN+FL", "MTrajRec+FL", "LightTR"),
                    rounds: int | None = None) -> dict[str, list[float]]:
    """Companion convergence curves: per-round global test accuracy."""
    curves = {}
    for method in methods:
        run = context.run_method(method, dataset_name, keep_ratio, rounds=rounds)
        curves[method] = run.history
    return curves
