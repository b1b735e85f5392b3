"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro.experiments table4 --scale tiny
    python -m repro.experiments fig7 --scale small --datasets geolife
    python -m repro.experiments all --scale tiny

Each experiment prints the same rows/series its benchmark publishes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    SCALES,
    ExperimentContext,
    run_ablation,
    run_case_study,
    run_centralized_comparison,
    run_client_count_sweep,
    run_convergence,
    run_fault_tolerance_sweep,
    run_fraction_sweep,
    run_overall_comparison,
    run_sensitivity,
)
from .reporting import (
    ascii_scatter,
    format_comparison_table,
    format_curves,
    format_fault_rows,
    format_table,
)

EXPERIMENTS = ("table4", "table5", "table6", "fig5", "fig6", "fig7", "fig8",
               "fig9", "fig10", "faults")


def _dispatch(name: str, context: ExperimentContext, datasets: tuple[str, ...]) -> str:
    if name == "table4":
        return format_comparison_table(
            run_overall_comparison(context, datasets=datasets),
            title="Table IV: overall comparison")
    if name == "table5":
        return format_table(
            run_client_count_sweep(context, datasets=datasets,
                                   client_counts=(2, context.scale.num_clients)),
            title="Table V: effect of the number of clients")
    if name == "table6":
        return format_comparison_table(
            run_centralized_comparison(context, datasets=datasets),
            title="Table VI: centralized vs LightTR")
    if name == "fig5":
        from ..baselines import make_model_factory
        from ..core.training import LocalTrainer
        from ..metrics import profile_model
        import numpy as np

        clients, _ = context.federation(datasets[0], 0.125)
        config = context.model_config(datasets[0])
        network = context.dataset(datasets[0]).network
        lines = ["Figure 5: running efficiency"]
        for method in ("RNN+FL", "MTrajRec+FL", "RNTrajRec+FL", "LightTR"):
            model = make_model_factory(method, config, network)()
            trainer = LocalTrainer(model, context.mask_builder(datasets[0]),
                                   context.training_config(),
                                   np.random.default_rng(0))
            trainer.train_epoch(clients[0].train)
            lines.append(str(profile_model(
                method, model, trainer, clients[0].train,
                context.scale.points_per_trajectory)))
        return "\n".join(lines)
    if name == "fig6":
        return format_table(run_fraction_sweep(context, datasets=datasets),
                            title="Figure 6: effect of client fractions")
    if name == "fig7":
        return format_table(run_ablation(context, datasets=datasets),
                            title="Figure 7: ablation study")
    if name == "fig8":
        return format_table(run_sensitivity(context, datasets=datasets),
                            title="Figure 8: parameter sensitivity")
    if name == "fig9":
        result = run_case_study(context, dataset_name=datasets[0],
                                methods=("LightTR",))
        return ascii_scatter(
            {"truth": result["ground_truth"], "observed": result["observed"],
             "xpred": result["predictions"]["LightTR"]},
            title="Figure 9: case study")
    if name == "fig10":
        return format_curves(run_convergence(context, dataset_name=datasets[0]),
                             title="Convergence (per-round global accuracy)")
    if name == "faults":
        return format_fault_rows(
            run_fault_tolerance_sweep(context, dataset_name=datasets[0]),
            title="Fault tolerance: accuracy vs injected dropout rate")
    raise ValueError(f"unknown experiment {name!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate LightTR paper experiments.")
    parser.add_argument("experiment", choices=(*EXPERIMENTS, "all"))
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument("--datasets", nargs="+", default=["geolife", "tdrive"],
                        choices=["geolife", "tdrive"])
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run each federated round's clients in N worker "
                             "processes (results are identical; default: the "
                             "scale's setting, 0 = serial)")
    parser.add_argument("--decode-batch", type=int, default=None, metavar="N",
                        help="cap the packed-decode working set at N "
                             "trajectories during evaluation (results are "
                             "identical; default: the scale's setting, "
                             "0 = unbounded)")
    parser.add_argument("--compute-dtype", choices=["float32", "float64"],
                        default=None,
                        help="kernel/tensor precision for training and "
                             "inference (float32: mixed-precision substrate "
                             "with float64 accumulations and optimizer "
                             "master state; default: the scale's setting, "
                             "float64 = bitwise reference)")
    parser.add_argument("--exchange-codec", default=None, metavar="NAME",
                        help="wire codec for parameter exchange (identity: "
                             "raw float64, the default; float32: half-width "
                             "casts; int8: per-chunk absmax quantization "
                             "with error feedback; int8-nofb: int8 without "
                             "error feedback; see REPRO_EXCHANGE_CODEC)")
    parser.add_argument("--async-buffer", type=int, default=None, metavar="K",
                        help="enable asynchronous FedBuff-style aggregation: "
                             "flush the global model every K buffered "
                             "uploads instead of waiting for the whole "
                             "cohort (default: 0 = synchronous rounds)")
    parser.add_argument("--staleness-alpha", type=float, default=None,
                        metavar="ALPHA",
                        help="staleness discount exponent for async "
                             "aggregation: an upload trained s versions ago "
                             "is down-weighted by 1/(1+s)^ALPHA (0 disables "
                             "the discount; default: 0.5)")
    parser.add_argument("--clients-per-round", type=float, default=None,
                        metavar="FRACTION",
                        help="adaptive sampling fraction of idle clients "
                             "dispatched per async wave, in (0, 1]; needs "
                             "--async-buffer (default: client fraction)")
    parser.add_argument("--latency", default=None, metavar="SPEC",
                        help="deterministic simulated client latency for "
                             "async waves (needs --async-buffer), e.g. "
                             "'base=1,jitter=2,heavy=0.1,seed=7' (see "
                             "docs/ROBUSTNESS.md)")
    parser.add_argument("--arena-size", type=int, default=None, metavar="N",
                        help="live model/trainer slots in the model arena "
                             "that trains the clients' flat shards "
                             "(default: 1; results do not depend on it)")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="inject deterministic client faults, e.g. "
                             "'dropout=0.3,crash=0.1,seed=42' (see "
                             "docs/ROBUSTNESS.md and REPRO_FAULT_PLAN)")
    parser.add_argument("--task-retries", type=int, default=None, metavar="N",
                        help="re-attempts per failed client task before the "
                             "client is dropped for the round (default: the "
                             "scale's setting)")
    parser.add_argument("--task-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task wall-clock deadline; an overrun counts "
                             "as a client failure (default: none)")
    parser.add_argument("--min-clients", type=int, default=None, metavar="N",
                        help="aggregation quorum: hold the global model and "
                             "skip the round when fewer than N uploads "
                             "survive (default: 1)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="K",
                        help="persist a resumable checkpoint every K rounds "
                             "(requires --checkpoint-dir; default: never)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="directory for round checkpoints")
    parser.add_argument("--resume-from", default=None, metavar="PATH",
                        help="resume federated runs from a checkpoint file "
                             "or the latest checkpoint in a directory; the "
                             "resumed run is bit-identical to an "
                             "uninterrupted one")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    if args.workers is not None:
        scale = dataclasses.replace(scale, workers=args.workers)
    if args.decode_batch is not None:
        scale = dataclasses.replace(scale, decode_batch=args.decode_batch)
    if args.compute_dtype is not None:
        scale = dataclasses.replace(scale, compute_dtype=args.compute_dtype)
    if args.exchange_codec is not None:
        scale = dataclasses.replace(scale, exchange_codec=args.exchange_codec)
    if args.async_buffer is not None:
        scale = dataclasses.replace(scale, async_buffer=args.async_buffer)
    if args.staleness_alpha is not None:
        scale = dataclasses.replace(scale, staleness_alpha=args.staleness_alpha)
    if args.clients_per_round is not None:
        scale = dataclasses.replace(scale,
                                    clients_per_round=args.clients_per_round)
    if args.latency is not None:
        scale = dataclasses.replace(scale, latency=args.latency)
    if args.arena_size is not None:
        scale = dataclasses.replace(scale, arena_size=args.arena_size)
    if args.fault_plan is not None:
        scale = dataclasses.replace(scale, fault_plan=args.fault_plan)
    if args.task_retries is not None:
        scale = dataclasses.replace(scale, task_retries=args.task_retries)
    if args.task_deadline is not None:
        scale = dataclasses.replace(scale, task_deadline=args.task_deadline)
    if args.min_clients is not None:
        scale = dataclasses.replace(scale, min_clients_per_round=args.min_clients)
    if args.checkpoint_every is not None:
        scale = dataclasses.replace(scale, checkpoint_every=args.checkpoint_every)
    if args.checkpoint_dir is not None:
        scale = dataclasses.replace(scale, checkpoint_dir=args.checkpoint_dir)
    if args.resume_from is not None:
        scale = dataclasses.replace(scale, resume_from=args.resume_from)
    context = ExperimentContext(scale)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        print(_dispatch(name, context, tuple(args.datasets)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
