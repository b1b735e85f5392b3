"""Fault-tolerance benchmark: accuracy vs injected failure rate, plus
the degraded-pool acceptance scenario.

Two measurements, both written to ``results/fault_tolerance.*.txt``
and merged into ``BENCH_hotpath.json`` under ``fault_tolerance``:

* **accuracy-vs-dropout sweep** — LightTR trained under seeded
  dropout-only fault plans from 0% to 50% client loss per round
  (:func:`repro.experiments.run_fault_tolerance_sweep`).  Quorum
  aggregation over the survivors keeps every run finishing; the sweep
  records how much accuracy the lost client-rounds cost.
* **30% injected-failure pool run** — a mixed crash/dropout/straggler/
  corrupt plan totalling a 30% per-client-round failure rate, run
  serially and on the process pool.  The acceptance gates: every round
  completes, the pool never permanently demotes to serial, and the
  pool history is bit-identical to the serial history under the same
  plan (the determinism-under-faults contract, see
  docs/ROBUSTNESS.md).

Marked ``slow``: tier-1 (`pytest -x -q`) skips it; run with

    pytest -m slow benchmarks/test_fault_tolerance.py -s
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder, RecoveryModelConfig
from repro.core.lte import LTEModel
from repro.core.training import TrainingConfig
from repro.data import TrajectoryDataset, geolife_like
from repro.experiments import format_fault_rows, run_fault_tolerance_sweep
from repro.federated import FederatedConfig, FederatedTrainer, build_federation

from conftest import publish, update_bench

pytestmark = pytest.mark.slow

#: Mixed plan totalling a 30% per-client-round failure rate (the
#: acceptance scenario from the robustness PR).
MIXED_PLAN = "crash=0.1,dropout=0.1,straggler=0.05,corrupt=0.05,seed=1013,delay=0.005"
MIXED_RATE = 0.30
ACCEPT_CLIENTS = 8
ACCEPT_ROUNDS = 4
ACCEPT_WORKERS = 4

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _acceptance_world():
    world = geolife_like(num_drivers=12, trajectories_per_driver=8,
                         points_per_trajectory=33, seed=7)
    dataset = TrajectoryDataset.from_matched(world.matched, world.grid,
                                             world.network, keep_ratio=0.25)
    config = RecoveryModelConfig(
        num_cells=dataset.num_cells, num_segments=dataset.num_segments,
        cell_emb_dim=16, seg_emb_dim=16, hidden_size=48,
        num_st_blocks=2, dropout=0.0, bbox=world.network.bounding_box(),
    )
    return world, config


def _run_acceptance() -> dict:
    """The 30% injected-failure run, serial vs pool, with the gates."""
    world, config = _acceptance_world()
    clients, global_test = build_federation(world, num_clients=ACCEPT_CLIENTS,
                                            keep_ratio=0.25)
    mask_builder = ConstraintMaskBuilder(world.network, radius=500.0)
    fed_config = FederatedConfig(
        rounds=ACCEPT_ROUNDS, local_epochs=1, use_meta=False,
        fault_plan=MIXED_PLAN, task_retries=1,
        training=TrainingConfig(batch_size=16),
    )

    def run(workers: int):
        trainer = FederatedTrainer(
            lambda: LTEModel(config, np.random.default_rng(5)),
            clients, mask_builder, replace(fed_config, workers=workers),
            global_test, seed=0,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            result = trainer.run()
            seconds = (time.perf_counter() - start) / ACCEPT_ROUNDS
        return result, seconds, [str(w.message) for w in caught]

    serial_result, serial_seconds, _ = run(0)
    history = serial_result.history
    failed = sum(len(r.failures) for r in history)
    retries = sum(r.total_retries for r in history)
    payload = {
        "plan": MIXED_PLAN,
        "injected_rate": MIXED_RATE,
        "clients": ACCEPT_CLIENTS,
        "rounds": len(history),
        "failed_client_rounds": failed,
        "retried_attempts": retries,
        "rounds_skipped": sum(1 for r in history if not r.aggregated),
        "serial_round_seconds": serial_seconds,
        "fork": HAVE_FORK,
        "cpus": _usable_cpus(),
    }

    # Every round must complete even at a 30% injected failure rate, and
    # the plan must actually bite (otherwise the gate is vacuous).
    assert len(history) == ACCEPT_ROUNDS, history
    assert failed > 0, "30% fault plan injected no failures"

    if HAVE_FORK:
        pool_result, pool_seconds, pool_warnings = run(ACCEPT_WORKERS)
        demoted = any("for the rest of the run" in w for w in pool_warnings)
        payload.update({
            "pool_round_seconds": pool_seconds,
            "pool_workers": ACCEPT_WORKERS,
            "pool_matches_serial": pool_result.history == history,
            "permanent_serial_demotion": demoted,
        })
        # The acceptance gates: no permanent demotion, no mid-run pool
        # fallback, and bit-identical degraded histories.
        assert not demoted, pool_warnings
        assert all(r.fallback_cause == "" for r in pool_result.history), \
            [r.fallback_cause for r in pool_result.history]
        assert pool_result.history == history, \
            "pool history diverged from serial under the same fault plan"
    return payload


def test_fault_tolerance(context):
    rows = run_fault_tolerance_sweep(context)
    acceptance = _run_acceptance()

    lines = [format_fault_rows(
        rows, title="Fault tolerance: accuracy vs injected dropout rate")]
    lines.append("")
    lines.append(f"acceptance (mixed {MIXED_RATE:.0%} plan, "
                 f"{ACCEPT_CLIENTS} clients x {ACCEPT_ROUNDS} rounds): "
                 f"{acceptance['failed_client_rounds']} failed client-rounds, "
                 f"{acceptance['retried_attempts']} retried attempts, "
                 f"{acceptance['rounds_skipped']} rounds skipped")
    if "pool_matches_serial" in acceptance:
        lines.append(f"pool == serial: {acceptance['pool_matches_serial']}, "
                     f"permanent demotion: "
                     f"{acceptance['permanent_serial_demotion']}")
    publish("fault_tolerance", "\n".join(lines))
    update_bench({"fault_tolerance": {
        "accuracy_vs_dropout": rows,
        "acceptance": acceptance,
    }})

    # The sweep itself: the fault-free leg must lose no client-rounds,
    # every leg must finish its full round budget (quorum keeps rounds
    # alive), and accuracy must stay finite even at 50% dropout.
    assert rows[0]["failed_client_rounds"] == 0, rows[0]
    assert all(row["rounds"] == rows[0]["rounds"] for row in rows), rows
    assert all(np.isfinite(row["accuracy"]) for row in rows), rows
