"""The synchronous barrier is a setting of the trainer's one wave loop.

With ``async_buffer == 0`` the wave loop must reproduce the original
barrier round (:mod:`barrier_oracle`) bit for bit: round histories,
ledger rounds, the global vector and every shard's parameters, across
aggregation rules, partial cohorts, distillation, lossy exchange and
seeded faults that break quorum.  No case is marked ``fault_free`` or
``identity_exchange``: under a forced fault plan or a forced int8 wire
both sides see the same forcing, so the comparison still holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from barrier_oracle import BarrierOracleTrainer

from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.federated import (
    FederatedConfig,
    FederatedTrainer,
    GaussianMechanism,
    build_federation,
)

# With task_retries=0, round 1 loses two of the three clients (a crash
# and a corrupt upload) and round 2 loses one, so a quorum of 3 fails
# with 1 and 2 survivors, while rounds 0 and 3 aggregate all three.
QUORUM_PLAN = "crash=0.2,corrupt=0.15,seed=8"


@pytest.fixture(scope="module")
def federation(tiny_world):
    return build_federation(tiny_world, num_clients=3, keep_ratio=0.25)


@pytest.fixture(scope="module")
def mask(tiny_world):
    return ConstraintMaskBuilder(tiny_world.network, radius=400.0)


def run(trainer_cls, federation, mask, tiny_config, privatizer=None,
        **kwargs):
    clients, global_test = federation
    kwargs.setdefault("rounds", 3)
    kwargs.setdefault("client_fraction", 1.0)
    kwargs.setdefault("use_meta", False)
    config = FederatedConfig(
        local_epochs=1,
        training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3), **kwargs)
    trainer = trainer_cls(
        lambda: LTEModel(tiny_config, np.random.default_rng(33)), clients,
        mask, config, global_test, seed=0,
        privatizer=privatizer() if privatizer else None)
    return trainer, trainer.run()


def assert_matches_barrier_oracle(federation, mask, tiny_config, **kwargs):
    wave_tr, wave = run(FederatedTrainer, federation, mask, tiny_config,
                        **kwargs)
    oracle_tr, oracle = run(BarrierOracleTrainer, federation, mask,
                            tiny_config, **kwargs)
    assert wave.history == oracle.history
    assert wave.ledger.rounds == oracle.ledger.rounds
    assert np.array_equal(wave_tr.server.global_flat(dtype=np.float64),
                          oracle_tr.server.global_flat(dtype=np.float64))
    for wave_shard, oracle_shard in zip(wave_tr.shards, oracle_tr.shards):
        assert (wave_shard.params_flat is None) == \
            (oracle_shard.params_flat is None)
        if wave_shard.params_flat is not None:
            assert np.array_equal(wave_shard.params_flat,
                                  oracle_shard.params_flat)
    # Barrier rounds carry no async state or telemetry.
    assert wave_tr._async is None
    for record in wave.history:
        assert record.flushes == 0
        assert record.mean_staleness == 0.0
        assert record.in_flight == ()
    return wave


def noisy_mechanism():
    return GaussianMechanism(clip_norm=5.0, noise_multiplier=0.01,
                             rng=np.random.default_rng(4))


@pytest.mark.parametrize("kwargs", [
    {},
    {"aggregation": "fedavg"},
    {"client_fraction": 0.67},
    {"use_meta": True, "rounds": 2},
    {"exchange_codec": "int8"},
    {"privatizer": noisy_mechanism},
    {"privatizer": noisy_mechanism, "exchange_codec": "float32"},
], ids=["plain", "fedavg", "fraction", "meta", "int8", "privatizer",
        "float32-privatised"])
def test_barrier_matches_oracle(federation, mask, tiny_config, kwargs):
    assert_matches_barrier_oracle(federation, mask, tiny_config, **kwargs)


def test_quorum_failures_match_oracle(federation, mask, tiny_config):
    history = assert_matches_barrier_oracle(
        federation, mask, tiny_config, rounds=4, min_clients_per_round=3,
        task_retries=0, fault_plan=QUORUM_PLAN).history
    held = [record for record in history if not record.aggregated]
    # The plan really breaks quorum with one and with two survivors,
    # and a held round reports the sentinel statistics.
    assert {len(record.completed_clients) for record in held} == {1, 2}
    assert any(record.aggregated for record in history)
    for record in held:
        assert record.mean_loss == 0.0 and record.mean_lambda == 0.0


@pytest.mark.parametrize("knob", [
    {"latency": "base=1,jitter=2"},
    {"clients_per_round": 0.5},
], ids=["latency", "clients_per_round"])
def test_async_only_knobs_rejected_at_the_barrier(knob):
    """The barrier draws no latency and samples client_fraction, so a
    sync config that sets either async knob would silently ignore it."""
    name = next(iter(knob))
    with pytest.raises(ValueError, match=f"{name} only applies to async"):
        FederatedConfig(**knob)
    assert getattr(FederatedConfig(async_buffer=2, **knob), name) == knob[name]
