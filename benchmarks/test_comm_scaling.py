"""Communication-scaling benchmark: quantised exchange + async rounds.

Three measurements, all written to ``results/comm_scaling.*.txt`` and
merged into ``BENCH_hotpath.json`` under ``comm_scaling``:

* **bytes-per-round ladder** — the measured wire cost of one federated
  round at 10 / 100 / 1000 simulated clients for each exchange codec
  (real encodes of the model's flat parameter vector; broadcast +
  upload, full payload accounting including scale metadata and framing).
* **accuracy-vs-rounds codec ladder** — the same synchronous federation
  trained under ``identity`` (float64 reference), ``float32``, ``int8``
  (error feedback) and ``int8-nofb``.  The acceptance gates: int8+EF
  shrinks bytes by >= 3.5x vs float32 while drifting final accuracy
  <= 0.005 from the float64 reference.
* **sync-vs-async under stragglers** — the same budget run with the
  synchronous barrier vs FedBuff-style buffered aggregation beneath a
  straggler-heavy latency model.  The gates: every wave completes with
  no wall-clock stall (the virtual delays are never slept), and the
  serial and process-pool async histories are bit-identical.

Marked ``slow``: tier-1 (`pytest -x -q`) skips it; run with

    pytest -m slow benchmarks/test_comm_scaling.py -s
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder, RecoveryModelConfig
from repro.core.lte import LTEModel
from repro.core.training import TrainingConfig
from repro.data import TrajectoryDataset, geolife_like
from repro.federated import (
    FederatedConfig,
    FederatedTrainer,
    build_federation,
    codec_by_name,
    payload_num_bytes,
)
from repro.nn.flatten import FlatParameterSpace

from conftest import publish, update_bench

pytestmark = pytest.mark.slow

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

CODECS = ("identity", "float32", "int8", "int8-nofb")
CLIENT_COUNTS = (10, 100, 1000)
LADDER_CLIENTS = 8
LADDER_ROUNDS = 4
SHRINK_GATE = 3.5  # int8 vs float32 bytes, at least
DRIFT_GATE = 0.005  # int8+EF final accuracy vs float64 sync, at most
STRAGGLER_LATENCY = "base=1,jitter=2,heavy=0.3,heavy_factor=50,seed=17"


def _ladder_world():
    # 12 x 16 trajectories: the pooled test split carries ~576 evaluation
    # points, so one flipped prediction moves accuracy by ~0.002 — well
    # below the 0.005 drift gate this benchmark asserts.
    world = geolife_like(num_drivers=12, trajectories_per_driver=16,
                         points_per_trajectory=33, seed=7)
    dataset = TrajectoryDataset.from_matched(world.matched, world.grid,
                                             world.network, keep_ratio=0.25)
    config = RecoveryModelConfig(
        num_cells=dataset.num_cells, num_segments=dataset.num_segments,
        cell_emb_dim=16, seg_emb_dim=16, hidden_size=48,
        num_st_blocks=2, dropout=0.0, bbox=world.network.bounding_box(),
    )
    return world, config


def _payload_bytes_per_codec(flat: np.ndarray) -> dict[str, int]:
    """Measured single-payload wire size per codec (real encodes)."""
    sizes = {}
    for name in CODECS:
        payload = codec_by_name(name).encode(flat)
        sizes[name] = payload_num_bytes(payload)
    return sizes


def _bytes_per_round_table(flat: np.ndarray) -> list[dict]:
    """One round = broadcast to every client + one upload from each."""
    per_payload = _payload_bytes_per_codec(flat)
    rows = []
    for num_clients in CLIENT_COUNTS:
        row = {"clients": num_clients}
        for name, size in per_payload.items():
            row[name] = 2 * size * num_clients
        rows.append(row)
    return rows


def _run_codec_ladder():
    """Train the same federation once per codec; collect accuracy curves
    and measured ledger traffic."""
    world, config = _ladder_world()
    clients, global_test = build_federation(world, num_clients=LADDER_CLIENTS,
                                            keep_ratio=0.25)
    mask_builder = ConstraintMaskBuilder(world.network, radius=500.0)

    ladder = {}
    for name in CODECS:
        fed_config = FederatedConfig(
            rounds=LADDER_ROUNDS, local_epochs=1, use_meta=False,
            exchange_codec=name, training=TrainingConfig(batch_size=16),
        )
        trainer = FederatedTrainer(
            lambda: LTEModel(config, np.random.default_rng(5)),
            clients, mask_builder, fed_config, global_test, seed=0,
        )
        result = trainer.run()
        ladder[name] = {
            "accuracy_per_round": [r.global_accuracy for r in result.history],
            "final_accuracy": result.history[-1].global_accuracy,
            "bytes_per_round": result.ledger.bytes_per_round(),
            "total_bytes": result.ledger.total_bytes,
        }
    return ladder


def _run_sync_vs_async():
    """The same budget with and without the barrier, under a
    straggler-heavy latency model + deferred-straggler fault plan."""
    world, config = _ladder_world()
    clients, global_test = build_federation(world, num_clients=LADDER_CLIENTS,
                                            keep_ratio=0.25)
    mask_builder = ConstraintMaskBuilder(world.network, radius=500.0)

    def run(workers: int = 0, **knobs):
        fed_config = FederatedConfig(
            rounds=LADDER_ROUNDS, local_epochs=1, use_meta=False,
            training=TrainingConfig(batch_size=16), workers=workers, **knobs,
        )
        trainer = FederatedTrainer(
            lambda: LTEModel(config, np.random.default_rng(5)),
            clients, mask_builder, fed_config, global_test, seed=0,
        )
        start = time.perf_counter()
        result = trainer.run()
        elapsed = time.perf_counter() - start
        return trainer, result, elapsed

    async_knobs = dict(
        async_buffer=4, staleness_alpha=0.5, clients_per_round=0.75,
        latency=STRAGGLER_LATENCY, exchange_codec="int8",
        fault_plan="straggler=0.5,delay=30,seed=3",
    )
    _, sync_result, sync_seconds = run(exchange_codec="int8")
    async_trainer, async_result, async_seconds = run(**async_knobs)

    payload = {
        "rounds": LADDER_ROUNDS,
        "clients": LADDER_CLIENTS,
        "latency": STRAGGLER_LATENCY,
        "sync_final_accuracy": sync_result.history[-1].global_accuracy,
        "async_final_accuracy": async_result.history[-1].global_accuracy,
        "async_flushes": sum(r.flushes for r in async_result.history),
        "async_mean_staleness": float(np.mean(
            [r.mean_staleness for r in async_result.history])),
        "async_virtual_seconds": async_trainer._async.virtual_now,
        "sync_wall_seconds": sync_seconds,
        "async_wall_seconds": async_seconds,
        "fork": HAVE_FORK,
    }

    # No barrier stall: every wave completed, at least one flush landed,
    # and the ~30-virtual-second straggler delays were never slept.
    assert len(async_result.history) == LADDER_ROUNDS
    assert payload["async_flushes"] >= 1
    assert async_trainer._async.virtual_now > 10.0
    assert async_seconds < 25.0, \
        f"async run stalled {async_seconds:.1f}s on virtual delays"

    if HAVE_FORK:
        _, pooled_result, _ = run(workers=4, **async_knobs)
        payload["pool_matches_serial"] = (
            pooled_result.history == async_result.history)
        assert payload["pool_matches_serial"], \
            "pool async history diverged from serial under the same schedule"
    return payload


def test_comm_scaling(context):
    world, config = _ladder_world()
    flat = FlatParameterSpace.from_module(
        LTEModel(config, np.random.default_rng(5))).get_flat(dtype=np.float64)
    per_payload = _payload_bytes_per_codec(flat)
    byte_rows = _bytes_per_round_table(flat)
    ladder = _run_codec_ladder()
    sync_vs_async = _run_sync_vs_async()

    shrink = per_payload["float32"] / per_payload["int8"]
    drift = abs(ladder["int8"]["final_accuracy"]
                - ladder["identity"]["final_accuracy"])

    lines = [f"Communication scaling ({flat.size} parameters per payload)",
             "",
             "bytes per round (broadcast + uploads, full payload accounting):",
             "clients  " + "  ".join(f"{name:>10}" for name in CODECS)]
    for row in byte_rows:
        lines.append(f"{row['clients']:>7}  "
                     + "  ".join(f"{row[name]:>10,}" for name in CODECS))
    lines.append("")
    lines.append("accuracy vs rounds (sync, 8 clients x 4 rounds):")
    for name in CODECS:
        curve = "  ".join(f"{a:.4f}"
                          for a in ladder[name]["accuracy_per_round"])
        lines.append(f"{name:>10}: {curve}  "
                     f"({ladder[name]['bytes_per_round']:,.0f} B/round)")
    lines.append("")
    lines.append(f"int8 vs float32 shrink: {shrink:.2f}x (gate >= {SHRINK_GATE}x)")
    lines.append(f"int8+EF accuracy drift vs float64: {drift:.4f} "
                 f"(gate <= {DRIFT_GATE})")
    lines.append(f"async vs sync final accuracy: "
                 f"{sync_vs_async['async_final_accuracy']:.4f} vs "
                 f"{sync_vs_async['sync_final_accuracy']:.4f}; "
                 f"{sync_vs_async['async_flushes']} flushes, "
                 f"mean staleness {sync_vs_async['async_mean_staleness']:.2f}")
    if "pool_matches_serial" in sync_vs_async:
        lines.append(f"pool async == serial async: "
                     f"{sync_vs_async['pool_matches_serial']}")
    publish("comm_scaling", "\n".join(lines))
    update_bench({"comm_scaling": {
        "num_parameters": int(flat.size),
        "payload_bytes": per_payload,
        "bytes_per_round": byte_rows,
        "codec_ladder": ladder,
        "int8_vs_float32_shrink": shrink,
        "int8_accuracy_drift": drift,
        "sync_vs_async": sync_vs_async,
    }})

    # The acceptance gates.
    assert shrink >= SHRINK_GATE, \
        f"int8 shrinks only {shrink:.2f}x vs float32"
    assert drift <= DRIFT_GATE, \
        f"int8+EF drifted {drift:.4f} from the float64 reference"
    # Quantisation must actually reduce recorded traffic end to end.
    assert (ladder["int8"]["total_bytes"]
            < ladder["float32"]["total_bytes"] / SHRINK_GATE)
    assert (ladder["float32"]["total_bytes"]
            < ladder["identity"]["total_bytes"])
