"""Client-scale benchmark: thousand-client trained rounds.

Runs one trained federated round at 100 / 500 / 1000 clients (flat
client shards trained through a one-slot model arena) and records, per
rung, the wall-clock round seconds and the process peak RSS.  Written
to ``results/client_scale.*.txt`` and merged into ``BENCH_hotpath.json``
under ``client_scale``.

Every configuration runs in its **own subprocess**: ``ru_maxrss`` is a
process-lifetime high-water mark, so measuring several rungs in one
process would report the largest rung's peak for all of them.

The acceptance gates:

* the 1000-client trained round completes;
* peak RSS grows by at most ``RSS_PER_CLIENT_GATE_MB`` per client
  between the 100- and 1000-client rungs — a quarter of the 1.01 MB
  per client that live-client federations (one model and optimiser
  per client) last measured on this ladder;
* at 1000 clients, a two-slot arena produces **bit-identical** round
  histories and final global parameters to the one-slot arena
  (compared via sha256 digests across the subprocess boundary).

Marked ``slow``: tier-1 (`pytest -x -q`) skips it; run with

    pytest -m slow benchmarks/test_client_scale.py -s
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

CLIENT_COUNTS = (100, 500, 1000)
RSS_PER_CLIENT_GATE_MB = 0.25  # peak-RSS growth per client, 100 -> 1000
CLIENT_FRACTION = 0.02  # a thousand-client round trains 20 clients
ROUNDS = 1
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _run_child(num_clients: int, arena_size: int = 1) -> dict:
    """One (count, arena size) measurement in an isolated interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         str(num_clients), str(arena_size)],
        capture_output=True, text=True, env=env, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(
            f"child (clients={num_clients}, arena_size={arena_size}) "
            f"failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_main(num_clients: int, arena_size: int) -> None:
    """Build the federation, run ROUNDS trained rounds, report JSON."""
    import numpy as np

    from repro.core import ConstraintMaskBuilder, RecoveryModelConfig
    from repro.core.lte import LTEModel
    from repro.core.training import TrainingConfig
    from repro.data import TrajectoryDataset, geolife_like
    from repro.federated import (
        FederatedConfig,
        FederatedTrainer,
        build_federation,
    )

    # 40 x 50 trajectories: enough to give 1000 iid clients a non-empty
    # train split each, cheap enough that the dataset itself is noise
    # next to the per-client model/optimizer state being measured.
    world = geolife_like(num_drivers=40, trajectories_per_driver=50,
                         points_per_trajectory=17, seed=7)
    dataset = TrajectoryDataset.from_matched(world.matched, world.grid,
                                             world.network, keep_ratio=0.25)
    config = RecoveryModelConfig(
        num_cells=dataset.num_cells, num_segments=dataset.num_segments,
        cell_emb_dim=16, seg_emb_dim=16, hidden_size=48,
        num_st_blocks=2, dropout=0.0, bbox=world.network.bounding_box(),
    )
    clients, global_test = build_federation(world, num_clients=num_clients,
                                            keep_ratio=0.25, scheme="iid")
    mask_builder = ConstraintMaskBuilder(world.network, radius=500.0)
    fed_config = FederatedConfig(
        rounds=ROUNDS, client_fraction=CLIENT_FRACTION, local_epochs=1,
        use_meta=False, arena_size=arena_size,
        training=TrainingConfig(batch_size=16),
    )

    build_start = time.perf_counter()
    trainer = FederatedTrainer(
        lambda: LTEModel(config, np.random.default_rng(5)),
        clients, mask_builder, fed_config, global_test, seed=0,
    )
    build_seconds = time.perf_counter() - build_start
    round_start = time.perf_counter()
    result = trainer.run()
    round_seconds = (time.perf_counter() - round_start) / ROUNDS

    # The bitwise contract crosses the process boundary as digests:
    # repr() round-trips floats exactly, and the final global vector is
    # hashed from its raw float64 bytes.
    digest = hashlib.sha256()
    digest.update(repr(result.history).encode())
    digest.update(np.ascontiguousarray(
        trainer.server.global_flat(dtype=np.float64)).tobytes())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps({
        "clients": num_clients,
        "arena_size": arena_size,
        "trained_clients": len(result.history[0].completed_clients),
        "build_seconds": build_seconds,
        "round_seconds": round_seconds,
        "peak_rss_mb": peak_rss_mb,
        "final_accuracy": result.history[-1].global_accuracy,
        "digest": digest.hexdigest(),
    }))


if __name__ == "__main__" and "--child" in sys.argv:
    _child_main(int(sys.argv[2]), int(sys.argv[3]))
    sys.exit(0)


import pytest  # noqa: E402  (child mode must not import pytest)

from conftest import publish, update_bench  # noqa: E402

pytestmark = pytest.mark.slow


def test_client_scale():
    rows = []
    for num_clients in CLIENT_COUNTS:
        child = _run_child(num_clients)
        rows.append({
            "clients": num_clients,
            "trained_clients": child["trained_clients"],
            "rss_mb": child["peak_rss_mb"],
            "build_seconds": child["build_seconds"],
            "round_seconds": child["round_seconds"],
            "final_accuracy": child["final_accuracy"],
            "digest": child["digest"],
        })
    top = rows[-1]
    two_slots = _run_child(top["clients"], arena_size=2)
    assert two_slots["digest"] == top["digest"], (
        f"arena_size 2 diverged from arena_size 1 at {top['clients']} "
        f"clients")
    rss_per_client = ((top["rss_mb"] - rows[0]["rss_mb"])
                      / (top["clients"] - rows[0]["clients"]))

    lines = [
        f"Client scale: one trained round, client_fraction={CLIENT_FRACTION}"
        f" (arena_size 1 == 2 bitwise at {top['clients']} clients)",
        "",
        "clients  trained  peak RSS  build    round  accuracy",
    ]
    for row in rows:
        lines.append(
            f"{row['clients']:>7}  {row['trained_clients']:>7}  "
            f"{row['rss_mb']:>7.1f}M  {row['build_seconds']:>5.2f}s  "
            f"{row['round_seconds']:>5.2f}s  {row['final_accuracy']:.4f}")
    lines.append("")
    lines.append(
        f"peak RSS per client ({rows[0]['clients']} -> {top['clients']}): "
        f"{rss_per_client:.3f} MB (gate <= {RSS_PER_CLIENT_GATE_MB} MB)")
    publish("client_scale", "\n".join(lines))
    update_bench({"client_scale": {
        "client_fraction": CLIENT_FRACTION,
        "rounds": ROUNDS,
        "rss_per_client_mb": rss_per_client,
        "rss_per_client_gate_mb": RSS_PER_CLIENT_GATE_MB,
        "ladder": rows,
    }})

    # The acceptance gates: the thousand-client trained round completed
    # (the rows exist and trained clients uploaded), and memory grows
    # with client count by shard size, not by model + optimiser size.
    assert top["clients"] == 1000 and top["trained_clients"] >= 1
    assert rss_per_client <= RSS_PER_CLIENT_GATE_MB, (
        f"peak RSS grows {rss_per_client:.3f} MB per client "
        f"(gate {RSS_PER_CLIENT_GATE_MB} MB)")
