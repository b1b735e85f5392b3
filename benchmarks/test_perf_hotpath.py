"""Hot-path timing benchmark: fused kernels vs the per-step tape path.

Times the four layers the fused/vectorized refactors target —

* encoder forward + backward (one fused GRU scan vs T per-step cells),
* one local training epoch (fused teacher-forced decode, batched
  constraint-mask build, flat-buffer Adam),
* one full federated round (flat-vector broadcast/upload/aggregate),
  serial vs the process-pool round runner (``workers=4``) on a
  multi-client world,
* constraint-mask build + masked log-softmax, dense vs CSR-sparse,
  across growing segment vocabularies (the sparse win scales with
  vocabulary size as density falls),
* autoregressive recovery decode over a ragged-length workload, the
  padded full-length loop vs the packed ``DecodeSession`` engine
  (active-row compaction: decode cost tracks the live rows per step,
  so the win is the padding fraction of the workload),
* the compute-dtype substrate: the identical epoch / decode /
  federated-round workloads at float32 vs float64 kernels
  (``nn.use_compute_dtype``), with the measured segment-accuracy and
  log-probability drift recorded next to the speedups,
* the ``call_kernel`` dispatch overhead (gated < 2%),

and writes the measurements (plus a ``meta`` provenance block: numpy/
BLAS, cpu count, compute dtype) to ``BENCH_hotpath.json`` at the
repo root
so future PRs can track the speed trajectory.  The parallel speedup
assertion only fires on machines with >= 4 usable cores (the pool
cannot beat serial on a single-core container); ``cpus`` is recorded
alongside the numbers so the JSON is interpretable either way.

The baseline epoch leg reconstructs the *pre-PR* hot path faithfully:
per-step tape kernels (``reference_kernels()`` from
``tests/reference_paths.py``), the per-point
``ConstraintMaskBuilder.build_reference`` double loop, and a
per-parameter-tensor Adam/clip loop.  Marked ``slow``: tier-1
(`pytest -x -q`) skips it; run with

    pytest -m slow benchmarks/test_perf_hotpath.py -s
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.core import ConstraintMaskBuilder, RecoveryModelConfig
from repro.core.lte import LTEModel
from repro.core.training import TrainingConfig
from repro.data import TrajectoryDataset, geolife_like
from repro.data.trajectory import MatchedTrajectory
from repro.federated import FederatedConfig, FederatedTrainer, build_federation
from repro.nn.tensor import Tensor
from repro.serving import decode_model
from repro.spatial import grid_city

from conftest import update_bench

# The per-step reference kernels are test oracles (tests/reference_paths.py);
# appended, not prepended, so ``conftest`` above stays this directory's.
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "tests"))
from reference_paths import reference_kernels  # noqa: E402

pytestmark = pytest.mark.slow

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")

HIDDEN = 48
EMB = 16
BATCH = 16
REPEATS = 9


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _world():
    world = geolife_like(num_drivers=12, trajectories_per_driver=8,
                         points_per_trajectory=33, seed=7)
    dataset = TrajectoryDataset.from_matched(world.matched, world.grid,
                                             world.network, keep_ratio=0.25)
    return world, dataset


def _model_config(world, dataset) -> RecoveryModelConfig:
    return RecoveryModelConfig(
        num_cells=dataset.num_cells, num_segments=dataset.num_segments,
        cell_emb_dim=EMB, seg_emb_dim=EMB, hidden_size=HIDDEN,
        num_st_blocks=2, dropout=0.0, bbox=world.network.bounding_box(),
    )


# ----------------------------------------------------------------------
# pre-PR reference pieces (what the seed tree did before this refactor)
# ----------------------------------------------------------------------
class _ReferenceMaskBuilder(ConstraintMaskBuilder):
    """Builds batch masks with the original per-point double loop."""

    def build(self, batch):
        return self.build_reference(batch)


def _reference_clip_grad_norm(parameters, max_norm: float) -> float:
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in parameters:
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


class _ReferenceAdam:
    """The seed tree's per-parameter-tensor Adam loop."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self):
        for p in self.parameters:
            p.zero_grad()

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            p.data = p.data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def _run_epoch(model, dataset, mask_builder, optimizer, clip, rng):
    """One training epoch with pluggable mask/optimizer (both legs)."""
    config = TrainingConfig(batch_size=BATCH)
    model.train()
    for batch in dataset.batches(config.batch_size, rng=rng):
        log_mask = mask_builder.build(batch)
        optimizer.zero_grad()
        output = model(batch, log_mask, teacher_forcing=True)
        loss, _ = model.loss(output, batch, mu=config.mu)
        loss.backward()
        clip(model.parameters(), config.grad_clip)
        optimizer.step()


def _time_encoder() -> dict:
    rng = np.random.default_rng(0)
    gru = nn.GRU(EMB + 2, HIDDEN, np.random.default_rng(1))
    x_data = rng.standard_normal((64, 33, EMB + 2))

    def run():
        x = Tensor(x_data, requires_grad=True)
        gru.zero_grad()
        _, last = gru(x)
        last.sum().backward()

    timings = {}
    for label, fused in (("fused", True), ("stepwise", False)):
        with reference_kernels(not fused):
            run()  # warm up
            timings[label] = _best_of(run)
    timings["speedup"] = timings["stepwise"] / timings["fused"]
    return timings


def _time_epoch() -> dict:
    world, dataset = _world()
    config = _model_config(world, dataset)
    timings = {}

    # Fused leg: current defaults (fused kernels, vectorized mask build,
    # flat-buffer Adam + clip).
    model = LTEModel(config, np.random.default_rng(3))
    mask_builder = ConstraintMaskBuilder(world.network, radius=500.0)
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(4)
    run = lambda: _run_epoch(model, dataset, mask_builder, optimizer,
                             nn.clip_grad_norm, rng)
    run()  # warm caches
    timings["fused"] = _best_of(run)

    # Baseline leg: the pre-PR hot path (per-step tape kernels,
    # per-point mask build, per-tensor Adam/clip loops, uncached
    # per-example collation).
    model = LTEModel(config, np.random.default_rng(3))
    mask_builder = _ReferenceMaskBuilder(world.network, radius=500.0)
    optimizer = _ReferenceAdam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(4)

    def run_baseline():
        # Pre-PR behaviour recollated + re-featurised every epoch.
        dataset._obs_feat_cache.clear()
        dataset.clear_batch_cache()
        _run_epoch(model, dataset, mask_builder, optimizer,
                   _reference_clip_grad_norm, rng)

    with reference_kernels():
        run_baseline()
        timings["stepwise_pre_pr"] = _best_of(run_baseline)

    timings["speedup"] = timings["stepwise_pre_pr"] / timings["fused"]
    return timings


SPARSE_GRID_SIZES = (16, 28, 40)  # grid_city sizes: S ~ 1k / 3k / 6.4k
SPARSE_BATCH = 16
SPARSE_STEPS = 24


def _time_sparse_mask() -> dict:
    """Dense vs CSR-sparse constraint masks: build + masked log-softmax.

    For each segment-vocabulary size, times one batch's mask build plus
    the masked log-softmax over random logits (the Eq. 11 hot path) on
    a warmed builder, dense vs sparse, and separately a full training
    step of that layer (forward + the NLL loss backward).  Density and
    vocabulary size are recorded so the scaling story is legible: the
    sparse win grows as the vocabulary grows and density falls.
    """
    from types import SimpleNamespace

    rng = np.random.default_rng(0)
    sizes = []
    for grid_n in SPARSE_GRID_SIZES:
        network = grid_city(nx=grid_n, ny=grid_n, spacing=200.0,
                            drop_prob=0.0, rng=np.random.default_rng(3))
        num_segments = network.num_segments
        x0, y0, x1, y1 = network.bounding_box()
        guide = np.stack(
            [rng.uniform(x0, x1, (SPARSE_BATCH, SPARSE_STEPS)),
             rng.uniform(y0, y1, (SPARSE_BATCH, SPARSE_STEPS))], axis=-1)
        # `build` only reads guide positions: a stub batch keeps the
        # setup cost of huge vocabularies out of the timed region.
        batch = SimpleNamespace(guide_xy=guide)
        builder = ConstraintMaskBuilder(network, radius=500.0)
        logits = rng.standard_normal((SPARSE_BATCH, SPARSE_STEPS, num_segments))
        flat_rows = SPARSE_BATCH * SPARSE_STEPS
        targets = rng.integers(0, num_segments, flat_rows)
        weights = np.ones(flat_rows)
        builder.build(batch)  # warm both cache layers
        density = builder.build_sparse(batch).density

        def leg(build_fn, backward):
            def run():
                log_mask = build_fn(batch)
                x = Tensor(logits, requires_grad=True)
                out = nn.masked_log_softmax(x, log_mask)
                if backward:
                    nn.nll_from_log_probs(
                        out.reshape(flat_rows, num_segments), targets, weights
                    ).backward()
            run()  # warm up
            return _best_of(run, repeats=7)

        dense = leg(builder.build, backward=False)
        sparse = leg(builder.build_sparse, backward=False)
        dense_step = leg(builder.build, backward=True)
        sparse_step = leg(builder.build_sparse, backward=True)
        sizes.append({
            "num_segments": num_segments,
            "density": density,
            "dense": dense,
            "sparse": sparse,
            "speedup": dense / sparse,
            "train_step_dense": dense_step,
            "train_step_sparse": sparse_step,
            "train_step_speedup": dense_step / sparse_step,
        })
    return {"sizes": sizes, "largest_vocab_speedup": sizes[-1]["speedup"]}


#: Ragged trajectory lengths for the decode benchmark (cycled over the
#: world's 33-point trajectories): mean ~20, so a padded decode wastes
#: ~40% of its row-steps on finished rows.
DECODE_LENGTHS = (9, 33, 17, 25, 13, 29, 11, 21)


def _time_decode() -> dict:
    """Packed ``DecodeSession`` vs padded full-length decode.

    A ragged-length recovery workload (the serving shape: requests of
    uneven lengths batched together), decoded through the serving entry
    point and through the model's own padded full-length inference
    forward.  Outputs are bit-identical on valid steps (asserted); only
    wall-clock changes.
    """
    world, _ = _world()
    trimmed = [
        MatchedTrajectory(t.traj_id, t.driver_id, t.epsilon,
                          t.points[:DECODE_LENGTHS[i % len(DECODE_LENGTHS)]])
        for i, t in enumerate(world.matched)
    ]
    dataset = TrajectoryDataset.from_matched(trimmed, world.grid,
                                             world.network, keep_ratio=0.25)
    config = _model_config(world, dataset)
    model = LTEModel(config, np.random.default_rng(11))
    model.eval()
    builder = ConstraintMaskBuilder(world.network, radius=500.0)
    batch = dataset.full_batch()
    log_mask = builder.build_for(batch, model)

    def run_packed():
        with nn.no_grad():
            return decode_model(model, batch, log_mask)

    def run_padded():
        with nn.no_grad():
            return model(batch, log_mask, teacher_forcing=False)

    packed_out = run_packed()  # warm caches both ways
    padded_out = run_padded()
    valid = batch.tgt_mask
    assert (packed_out.segments[valid] == padded_out.segments[valid]).all(), \
        "packed decode must emit the padded decode's segments"
    timings = {
        "padded": _best_of(run_padded),
        "packed": _best_of(run_packed),
    }
    lengths = valid.sum(axis=1)
    timings["speedup"] = timings["padded"] / timings["packed"]
    timings["rows"] = int(batch.size)
    timings["max_steps"] = int(batch.steps)
    timings["mean_length"] = float(lengths.mean())
    timings["packing_ratio"] = float(lengths.sum() / (batch.size * batch.steps))
    return timings


#: The mixed-precision leg runs a wider model than the fused-kernel leg:
#: the float32 win is memory traffic, which the benchmark should measure
#: in the memory-bound regime the optimisation targets.
DTYPE_HIDDEN = 96
DTYPE_EPOCHS = 2
DTYPE_FED_CLIENTS = 4
DTYPE_FED_ROUNDS = 2


def _time_compute_dtype() -> dict:
    """float32 vs float64 compute substrate: epoch, decode, fed round.

    Each leg builds its world under :func:`nn.use_compute_dtype` and
    times the identical workload at both precisions; alongside the
    timings it records the measured accuracy/loss drift (the audited
    cost of the speedup).  float64 is the reference; the epoch gate
    asserts the headline >= 1.3x local-epoch win.
    """
    world, dataset = _world()
    config = RecoveryModelConfig(
        num_cells=dataset.num_cells, num_segments=dataset.num_segments,
        cell_emb_dim=EMB, seg_emb_dim=EMB, hidden_size=DTYPE_HIDDEN,
        num_st_blocks=2, dropout=0.0, bbox=world.network.bounding_box(),
    )

    # Ragged decode workload (the serving shape), shared lengths with
    # the packed-decode benchmark.
    trimmed = [
        MatchedTrajectory(t.traj_id, t.driver_id, t.epsilon,
                          t.points[:DECODE_LENGTHS[i % len(DECODE_LENGTHS)]])
        for i, t in enumerate(world.matched)
    ]
    ragged = TrajectoryDataset.from_matched(trimmed, world.grid,
                                            world.network, keep_ratio=0.25)

    legs: dict[str, dict] = {}
    outputs: dict[str, dict] = {}
    for dtype in ("float64", "float32"):
        with nn.use_compute_dtype(dtype):
            model = LTEModel(config, np.random.default_rng(3))
            mask_builder = ConstraintMaskBuilder(world.network, radius=500.0)
            optimizer = nn.Adam(model.parameters(), lr=1e-3)
            rng = np.random.default_rng(4)
            epoch = lambda: _run_epoch(model, dataset, mask_builder,
                                       optimizer, nn.clip_grad_norm, rng)
            epoch()  # warm caches (collation, mask pools)
            epoch_seconds = _best_of(epoch, repeats=5)

            # Converged-enough model for the drift measurement.
            from repro.core.training import model_segment_accuracy
            accuracy = model_segment_accuracy(model, mask_builder, dataset)

            model.eval()
            batch = ragged.full_batch()
            log_mask = mask_builder.build_for(batch, model)

            def run_decode():
                with nn.no_grad():
                    return decode_model(model, batch, log_mask)

            decode_out = run_decode()
            decode_seconds = _best_of(run_decode, repeats=5)
            model.train()

            # One small serial federated run (broadcast/train/aggregate
            # at the compute dtype end to end).
            clients, global_test = build_federation(
                world, num_clients=DTYPE_FED_CLIENTS, keep_ratio=0.25)
            trainer = FederatedTrainer(
                lambda: LTEModel(config, np.random.default_rng(5)),
                clients, mask_builder,
                FederatedConfig(rounds=DTYPE_FED_ROUNDS, local_epochs=1,
                                use_meta=False,
                                training=TrainingConfig(batch_size=BATCH)),
                global_test, seed=0,
            )
            start = time.perf_counter()
            fed_result = trainer.run()
            fed_round_seconds = (time.perf_counter() - start) / DTYPE_FED_ROUNDS

            legs[dtype] = {
                "epoch": epoch_seconds,
                "decode": decode_seconds,
                "federated_round": fed_round_seconds,
            }
            outputs[dtype] = {
                "accuracy": accuracy,
                "decode_log_probs": decode_out.log_probs.data.astype(
                    np.float64),
                "fed_accuracy": fed_result.history[-1].global_accuracy,
            }

    valid_scale = np.abs(outputs["float64"]["decode_log_probs"]).max() + 1e-12
    drift = {
        "segment_accuracy_float64": outputs["float64"]["accuracy"],
        "segment_accuracy_float32": outputs["float32"]["accuracy"],
        "segment_accuracy_drift": abs(outputs["float32"]["accuracy"]
                                      - outputs["float64"]["accuracy"]),
        "fed_accuracy_drift": abs(outputs["float32"]["fed_accuracy"]
                                  - outputs["float64"]["fed_accuracy"]),
        "decode_log_prob_max_rel_drift": float(
            np.abs(outputs["float32"]["decode_log_probs"]
                   - outputs["float64"]["decode_log_probs"]).max()
            / valid_scale),
    }
    return {
        "hidden_size": DTYPE_HIDDEN,
        "float64": legs["float64"],
        "float32": legs["float32"],
        "epoch_speedup": legs["float64"]["epoch"] / legs["float32"]["epoch"],
        "decode_speedup": (legs["float64"]["decode"]
                           / legs["float32"]["decode"]),
        "federated_round_speedup": (legs["float64"]["federated_round"]
                                    / legs["float32"]["federated_round"]),
        "drift": drift,
    }


def _time_backend() -> dict:
    """The ``call_kernel`` dispatch overhead.

    One fused GRU scan forward called directly vs through
    :func:`repro.nn.call_kernel`.  Gated < 2%: the named call point
    tracers wrap must be free.
    """
    from repro.nn.kernels import call_kernel
    from repro.nn.recurrent import _gru_forward_ref

    rng = np.random.default_rng(0)
    b, steps, hidden = 64, 33, HIDDEN
    scan_args = (rng.standard_normal((b, steps, 2 * hidden)),
                 rng.standard_normal((b, steps, hidden)),
                 np.zeros((b, hidden)),
                 rng.standard_normal((hidden, 2 * hidden)) * 0.1,
                 rng.standard_normal((hidden, hidden)) * 0.1, None)
    _gru_forward_ref(*scan_args)  # warm
    direct = _best_of(lambda: _gru_forward_ref(*scan_args))
    dispatched = _best_of(lambda: call_kernel(
        "gru_scan_forward", _gru_forward_ref, *scan_args))
    return {
        "dispatch_direct": direct,
        "dispatch_via_seam": dispatched,
        "dispatch_overhead": dispatched / direct - 1.0,
    }


def _meta() -> dict:
    """Provenance block: what machine/configuration produced the JSON."""
    blas = None
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = build.get("blas", {}).get("name")
    except Exception:
        pass  # older numpy without dict mode: leave null
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpus": _usable_cpus(),
        "compute_dtype": nn.get_compute_dtype().name,
    }


PARALLEL_WORKERS = 4
PARALLEL_CLIENTS = 8
PARALLEL_ROUNDS = 3

# Without fork, the pool must pickle the benchmark's model-factory
# closure, fails, and the trainer falls back to serial — so the
# "parallel" leg only measures real parallelism on fork platforms.
HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _time_federated_round() -> dict:
    """Per-round seconds for the serial vs process-pool round runner.

    A multi-client world (8 clients, 2 local epochs) over several
    rounds, so pool start-up amortises the way it does in a real run;
    per-round time is the total divided by the round count.  Both legs
    produce bit-identical histories (asserted — the speedup claim is
    only meaningful if the parallel run does the same work).
    """
    world, dataset = _world()
    clients, global_test = build_federation(world, num_clients=PARALLEL_CLIENTS,
                                            keep_ratio=0.25)
    config = _model_config(world, dataset)
    mask_builder = ConstraintMaskBuilder(world.network, radius=500.0)
    fed_config = FederatedConfig(rounds=PARALLEL_ROUNDS, local_epochs=2,
                                 use_meta=False,
                                 training=TrainingConfig(batch_size=BATCH))

    def run(workers: int):
        trainer = FederatedTrainer(
            lambda: LTEModel(config, np.random.default_rng(5)),
            clients, mask_builder, replace(fed_config, workers=workers),
            global_test, seed=0,
        )
        start = time.perf_counter()
        result = trainer.run()
        return (time.perf_counter() - start) / PARALLEL_ROUNDS, result

    serial_seconds, serial_result = run(0)
    parallel_seconds, parallel_result = run(PARALLEL_WORKERS)
    assert serial_result.history == parallel_result.history, \
        "parallel rounds must be bit-identical to serial rounds"
    return {
        "serial": serial_seconds,
        "parallel": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "workers": PARALLEL_WORKERS,
        "clients": PARALLEL_CLIENTS,
        "cpus": _usable_cpus(),
        "fork": HAVE_FORK,
    }


def test_perf_hotpath():
    encoder = _time_encoder()
    epoch = _time_epoch()
    sparse_mask = _time_sparse_mask()
    decode = _time_decode()
    fed_round = _time_federated_round()
    compute_dtype = _time_compute_dtype()
    backend = _time_backend()

    report = {
        "meta": _meta(),
        "encoder_forward_backward_seconds": encoder,
        "local_epoch_seconds": epoch,
        "sparse_mask_seconds": sparse_mask,
        "decode_seconds": decode,
        "federated_round_seconds": fed_round,
        "compute_dtype_seconds": compute_dtype,
        "backend_seconds": backend,
    }
    # Merge instead of overwriting: sections owned by other benchmarks
    # (e.g. fault_tolerance) must survive a hot-path rerun.
    update_bench(report)
    print()
    print(json.dumps(report, indent=2))

    # The fused hot path must beat the pre-PR per-step tape path clearly.
    # Regression tripwires, not measurements: typical values are ~1.3x
    # (encoder) and ~3x (epoch); the slack absorbs run-to-run jitter on
    # loaded single-core containers.
    assert encoder["speedup"] > 1.15, encoder
    assert epoch["speedup"] >= 2.5, epoch
    # Sparse masks must win clearly where it matters — the largest
    # vocabulary (density falls as the network grows, so the dense
    # build + softmax pays for ever more inactive segments).
    assert sparse_mask["largest_vocab_speedup"] >= 2.0, sparse_mask
    # Packed decode must beat the padded loop on a ragged workload —
    # the work ratio is 1/packing_ratio (~1.7 here); the tripwire
    # leaves slack for per-step engine overhead and timer jitter.
    assert decode["speedup"] > 1.15, decode
    # Process-pool rounds must scale once there are cores to scale onto
    # (and a start method that can actually run the pool).
    if fed_round["cpus"] >= PARALLEL_WORKERS and fed_round["fork"]:
        assert fed_round["speedup"] > 1.5, fed_round
    # The float32 substrate halves hot-loop memory traffic: the local
    # epoch must win >= 1.3x end to end, and the accuracy cost must stay
    # inside the audited drift budget (see docs/PERFORMANCE.md).
    assert compute_dtype["epoch_speedup"] >= 1.3, compute_dtype
    assert compute_dtype["drift"]["segment_accuracy_drift"] <= 0.02, \
        compute_dtype
    # The hot-kernel call point must be free (< 2% on a single
    # hot-kernel call).
    assert backend["dispatch_overhead"] < 0.02, backend
