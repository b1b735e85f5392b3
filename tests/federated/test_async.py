"""Asynchronous staleness-weighted aggregation (FedBuff-style waves).

The determinism contract under test: virtual time, not wall-clock,
orders arrivals — so async histories are reproducible run-to-run,
bit-identical between serial and process-pool execution, and degenerate
to the synchronous FedAvg trajectory when the buffer spans the cohort,
``staleness_alpha == 0`` and the latency draws carry no jitter.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.federated import (
    FederatedConfig,
    FederatedTrainer,
    GaussianMechanism,
    LatencyModel,
    LatencySpec,
    build_federation,
    resolve_latency_model,
    staleness_weights,
)

HAVE_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="no fork start method on this platform"
)


@pytest.fixture(scope="module")
def federation(tiny_world):
    return build_federation(tiny_world, num_clients=3, keep_ratio=0.25)


@pytest.fixture(scope="module")
def mask(tiny_world):
    return ConstraintMaskBuilder(tiny_world.network, radius=400.0)


def lte_factory(config):
    def factory():
        return LTEModel(config, np.random.default_rng(33))
    return factory


def fed_config(rounds=3, **kwargs):
    return FederatedConfig(
        rounds=rounds, client_fraction=1.0, local_epochs=1,
        training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
        use_meta=False, **kwargs,
    )


def make_trainer(federation, mask, tiny_config, config, **kwargs):
    clients, global_test = federation
    return FederatedTrainer(lte_factory(tiny_config), clients, mask, config,
                            global_test, seed=0, **kwargs)


class TestStalenessWeights:
    def test_alpha_zero_is_exactly_fedavg(self):
        base = np.array([3.0, 5.0, 2.0])
        weights = staleness_weights(base, [0, 4, 17], alpha=0.0)
        assert np.array_equal(weights, base)
        assert weights is not base  # a copy, not an alias

    def test_discount_formula(self):
        weights = staleness_weights([1.0, 1.0, 1.0], [0, 1, 3], alpha=0.5)
        assert np.allclose(weights, [1.0, 1.0 / np.sqrt(2.0), 0.5])

    def test_fresh_uploads_keep_full_weight(self):
        weights = staleness_weights([2.0, 7.0], [0, 0], alpha=1.5)
        assert np.array_equal(weights, [2.0, 7.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            staleness_weights([1.0, 1.0], [0], alpha=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            staleness_weights([1.0], [-1], alpha=0.5)
        with pytest.raises(ValueError, match="alpha"):
            staleness_weights([1.0], [0], alpha=-0.1)


class TestLatencyModel:
    def test_draws_are_pure_functions_of_keys(self):
        model = LatencyModel(LatencySpec(seed=7, base=1.0, jitter=2.0))
        assert model.draw(0, 5) == model.draw(0, 5)
        assert model.draw(0, 5) != model.draw(1, 5)
        assert model.draw(0, 5) != model.draw(0, 6)

    def test_zero_jitter_is_constant(self):
        model = LatencyModel(LatencySpec(base=1.5, jitter=0.0))
        assert model.draw(0, 0) == 1.5
        assert model.draw(9, 3) == 1.5

    def test_heavy_tail_multiplies(self):
        always = LatencyModel(LatencySpec(seed=1, base=1.0, jitter=0.0,
                                          heavy=1.0, heavy_factor=10.0))
        never = LatencyModel(LatencySpec(seed=1, base=1.0, jitter=0.0))
        assert always.draw(0, 0) == 10.0 * never.draw(0, 0)

    def test_spec_string_round_trips(self):
        model = LatencyModel.from_spec("base=2,jitter=0.5,heavy=0.1,seed=7")
        clone = LatencyModel.from_spec(model.spec_string())
        assert clone == model
        assert resolve_latency_model("") == LatencyModel(LatencySpec())
        assert resolve_latency_model(None) == LatencyModel(LatencySpec())
        assert resolve_latency_model(model) is model

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="key=value"):
            LatencyModel.from_spec("base")
        with pytest.raises(ValueError, match="unknown latency key"):
            LatencyModel.from_spec("speed=3")
        with pytest.raises(ValueError, match="probability"):
            LatencySpec(heavy=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            LatencySpec(base=-1.0)


def noisy_mechanism():
    return GaussianMechanism(clip_norm=5.0, noise_multiplier=0.01,
                             rng=np.random.default_rng(4))


class TestSyncEquivalence:
    @pytest.mark.fault_free  # a dropped client breaks the K = cohort premise
    @pytest.mark.parametrize("case", [
        {},
        {"aggregation": "fedavg"},
        {"exchange_codec": "int8"},
        {"exchange_codec": "float32", "privatizer": noisy_mechanism},
    ], ids=["uniform", "fedavg", "int8", "float32-privatised"])
    def test_full_buffer_alpha_zero_matches_sync_bitwise(self, federation,
                                                         mask, tiny_config,
                                                         case):
        """K = cohort size, alpha = 0, no jitter: every wave dispatches
        everyone, everyone arrives, and one flush aggregates the same
        uploads the synchronous barrier would — bit for bit, also for a
        privatised upload on a float32 wire."""
        clients, _ = federation
        case = dict(case)
        privatizer = case.pop("privatizer", None)

        def run(**kwargs):
            trainer = make_trainer(
                federation, mask, tiny_config, fed_config(**case, **kwargs),
                privatizer=privatizer() if privatizer else None)
            return trainer, trainer.run()

        sync, sync_result = run()
        async_trainer, async_result = run(
            async_buffer=len(clients), staleness_alpha=0.0,
            latency="base=1,jitter=0")

        assert np.array_equal(sync.server.global_flat(dtype=np.float64),
                              async_trainer.server.global_flat(dtype=np.float64))
        for async_rec in async_result.history:
            assert async_rec.flushes == 1
            assert async_rec.mean_staleness == 0.0
        assert [dataclasses.replace(rec, flushes=0)
                for rec in async_result.history] == sync_result.history
        assert async_result.ledger.rounds == sync_result.ledger.rounds
        for sync_client, async_client in zip(sync.clients,
                                             async_trainer.clients):
            assert np.array_equal(
                sync_client.flat_parameters(dtype=np.float64),
                async_client.flat_parameters(dtype=np.float64))

    def test_async_history_is_reproducible(self, federation, mask,
                                           tiny_config):
        def run():
            trainer = make_trainer(
                federation, mask, tiny_config,
                fed_config(rounds=4, async_buffer=2, staleness_alpha=0.5,
                           latency="base=1,jitter=3,seed=11",
                           clients_per_round=0.67))
            result = trainer.run()
            return result, trainer.server.global_flat(dtype=np.float64)

        first, first_flat = run()
        second, second_flat = run()
        assert first.history == second.history
        assert first.ledger.rounds == second.ledger.rounds
        assert np.array_equal(first_flat, second_flat)


class TestAsyncSemantics:
    def test_buffer_k_flushes_and_leaves_stragglers_in_flight(
            self, federation, mask, tiny_config):
        """K=2 over 3 clients: the wave flushes at the second arrival
        and the third upload keeps travelling into the next wave."""
        trainer = make_trainer(
            federation, mask, tiny_config,
            fed_config(rounds=3, async_buffer=2, staleness_alpha=0.5,
                       latency="base=1,jitter=2,seed=5"))
        result = trainer.run()
        first = result.history[0]
        assert first.flushes == 1
        assert len(first.completed_clients) == 2
        assert len(first.in_flight) == 1
        # Arrival order is virtual: completed clients are listed in
        # (arrival time, client id) order, and a busy client is never
        # re-dispatched while its upload travels.
        for prev, nxt in zip(result.history, result.history[1:]):
            assert not set(prev.in_flight) & set(nxt.selected_clients)
        # The final wave drains the wire: nothing stays in flight.
        assert result.history[-1].in_flight == ()

    def test_staleness_telemetry_appears_under_lag(self, federation, mask,
                                                   tiny_config):
        trainer = make_trainer(
            federation, mask, tiny_config,
            fed_config(rounds=5, async_buffer=2, staleness_alpha=0.5,
                       latency="base=1,jitter=4,heavy=0.4,seed=3"))
        result = trainer.run()
        assert any(record.mean_staleness > 0 for record in result.history)
        assert all(record.mean_staleness >= 0 for record in result.history)

    def test_adaptive_sampling_respects_idle_pool(self, federation, mask,
                                                  tiny_config):
        trainer = make_trainer(
            federation, mask, tiny_config,
            fed_config(rounds=4, async_buffer=1, clients_per_round=0.3,
                       latency="base=1,jitter=5,seed=2"))
        result = trainer.run()
        busy: set[int] = set()
        for record in result.history:
            # ceil(0.3 * 3 clients) = 1 dispatch per wave, at most.
            assert len(record.selected_clients) <= 1
            busy = set(record.in_flight)
        assert busy == set()

    @pytest.mark.fault_free  # quorum of 3 needs all 3 clients to upload
    def test_quorum_gates_the_flush(self, federation, mask, tiny_config):
        """min_clients_per_round above the buffer size K: the flush
        waits for quorum, not just for K arrivals."""
        trainer = make_trainer(
            federation, mask, tiny_config,
            fed_config(rounds=2, async_buffer=1, min_clients_per_round=3,
                       staleness_alpha=0.0, latency="base=1,jitter=0"))
        result = trainer.run()
        for record in result.history:
            assert record.aggregated
            assert len(record.completed_clients) >= 3

    def test_straggler_heavy_run_never_stalls(self, federation, mask,
                                              tiny_config):
        """A 30-virtual-second straggler plan: wall-clock must not pay
        the virtual delays (the synchronous runner would sleep them)."""
        trainer = make_trainer(
            federation, mask, tiny_config,
            fed_config(rounds=3, async_buffer=2,
                       fault_plan="straggler=0.9,delay=30,seed=3",
                       latency="base=1,jitter=1"))
        start = time.monotonic()
        result = trainer.run()
        elapsed = time.monotonic() - start
        assert elapsed < 25.0  # ~80 virtual straggler-seconds never slept
        assert trainer._async.virtual_now > 10.0  # the delays went virtual
        assert sum(record.flushes for record in result.history) >= 1

    def test_fault_plan_restores_failed_clients(self, federation, mask,
                                                tiny_config):
        """A crashed client is never stranded busy: it re-enters the
        idle pool and is re-dispatched in a later wave."""
        trainer = make_trainer(
            federation, mask, tiny_config,
            fed_config(rounds=6, async_buffer=2, task_retries=0,
                       fault_plan="crash=0.4,seed=13",
                       latency="base=1,jitter=1"))
        result = trainer.run()
        failed_then_selected = False
        for i, record in enumerate(result.history):
            for failure in record.failures:
                if any(failure.client_id in later.selected_clients
                       for later in result.history[i + 1:]):
                    failed_then_selected = True
        assert any(record.failures for record in result.history)
        assert failed_then_selected

    def test_async_config_validation(self):
        with pytest.raises(ValueError, match="async_buffer"):
            fed_config(async_buffer=-1)
        with pytest.raises(ValueError, match="staleness_alpha"):
            fed_config(staleness_alpha=-0.5)
        with pytest.raises(ValueError, match="clients_per_round"):
            fed_config(clients_per_round=1.5)


class TestSerialVsPool:
    @needs_fork
    def test_pool_async_history_is_bitwise_serial(self, federation, mask,
                                                  tiny_config):
        """The pool changes *real* completion order; the virtual clock
        must not notice."""
        def run(workers):
            trainer = make_trainer(
                federation, mask, tiny_config,
                fed_config(rounds=3, async_buffer=2, staleness_alpha=0.5,
                           latency="base=1,jitter=2,seed=4", workers=workers))
            result = trainer.run()
            return result, trainer.server.global_flat(dtype=np.float64)

        serial, serial_flat = run(workers=0)
        pooled, pooled_flat = run(workers=2)
        assert pooled.history == serial.history
        assert pooled.ledger.rounds == serial.ledger.rounds
        assert np.array_equal(pooled_flat, serial_flat)

    @needs_fork
    def test_pool_async_with_codec_is_bitwise_serial(self, federation, mask,
                                                     tiny_config):
        """Quantised exchange composes with the async pool: encoding is
        a pure function of the (compensated) vector, so residual streams
        agree too."""
        def run(workers):
            trainer = make_trainer(
                federation, mask, tiny_config,
                fed_config(rounds=3, async_buffer=2, exchange_codec="int8",
                           latency="base=1,jitter=2,seed=4", workers=workers))
            result = trainer.run()
            return result, trainer.server.global_flat(dtype=np.float64)

        serial, serial_flat = run(workers=0)
        pooled, pooled_flat = run(workers=2)
        assert pooled.history == serial.history
        assert np.array_equal(pooled_flat, serial_flat)
