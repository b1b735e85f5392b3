"""Round execution backends: serial/parallel determinism + fallback.

The hard requirement of the process-pool runner is that it is a pure
wall-clock optimisation: with fixed seeds, a parallel run must produce
the *bit-identical* round history and final global parameters as the
serial run, so every figure/table output is unchanged.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import warnings

import numpy as np
import pytest

from repro import nn
from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.federated import (
    ArenaRunner,
    FederatedClient,
    FederatedConfig,
    FederatedTrainer,
    ProcessPoolRunner,
    RoundExecutionError,
    RoundRunner,
    build_federation,
)

from repro.federated.runner import _bundled_openblas

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


def _worker_blas_threads() -> int:
    return _bundled_openblas().scipy_openblas_get_num_threads64_()


def lte_factory(config):
    def factory():
        return LTEModel(config, np.random.default_rng(33))
    return factory


def fed_config(rounds=2, use_meta=False, workers=0):
    return FederatedConfig(
        rounds=rounds, client_fraction=1.0, local_epochs=1,
        training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
        use_meta=use_meta, workers=workers,
    )


def run_trainer(federation, mask, tiny_config, *, workers=0, runner=None,
                rounds=2, use_meta=False):
    clients, global_test = federation
    trainer = FederatedTrainer(
        lte_factory(tiny_config), clients, mask,
        fed_config(rounds=rounds, use_meta=use_meta, workers=workers),
        global_test, seed=0, runner=runner,
    )
    result = trainer.run()
    return result, trainer.server.global_flat()


class TestSerialParallelDeterminism:
    @needs_fork
    def test_two_workers_reproduce_serial_run_exactly(self, federation, mask,
                                                      tiny_config):
        serial, serial_flat = run_trainer(federation, mask, tiny_config,
                                          workers=0)
        parallel, parallel_flat = run_trainer(federation, mask, tiny_config,
                                              workers=2)
        # RoundRecords are frozen dataclasses of floats: == is bit-exact.
        assert serial.history == parallel.history
        assert np.array_equal(serial_flat, parallel_flat)

    @needs_fork
    def test_determinism_holds_with_meta_distillation(self, federation, mask,
                                                      tiny_config):
        serial, serial_flat = run_trainer(federation, mask, tiny_config,
                                          workers=0, use_meta=True, rounds=2)
        parallel, parallel_flat = run_trainer(federation, mask, tiny_config,
                                              workers=2, use_meta=True, rounds=2)
        assert serial.history == parallel.history
        assert np.array_equal(serial_flat, parallel_flat)

    @needs_fork
    def test_parallel_clients_match_serial_clients(self, federation, mask,
                                                   tiny_config):
        """Worker results are synced back: the live client objects end in
        the same state as after a serial run."""
        serial, _ = run_trainer(federation, mask, tiny_config, workers=0)
        parallel, _ = run_trainer(federation, mask, tiny_config, workers=2)
        for cs, cp in zip(serial.clients, parallel.clients):
            assert np.array_equal(cs.flat_parameters(), cp.flat_parameters())

    @needs_fork
    def test_determinism_holds_with_dropout(self, federation, mask,
                                            tiny_config):
        """Dropout draws from the model's own generator; its state ships
        in the session snapshot, so stochastic-forward models stay
        bit-identical even though a worker's clients share one model."""
        import dataclasses
        dropout_config = dataclasses.replace(tiny_config, dropout=0.2)
        serial, serial_flat = run_trainer(federation, mask, dropout_config,
                                          workers=0, rounds=2)
        parallel, parallel_flat = run_trainer(federation, mask, dropout_config,
                                              workers=2, rounds=2)
        assert serial.history == parallel.history
        assert np.array_equal(serial_flat, parallel_flat)


class TestSmoke:
    @needs_fork
    def test_one_two_worker_round_completes_under_timeout(self, federation,
                                                          mask, tiny_config):
        """Tier-1 smoke: one 2-worker round finishes under a small
        per-task timeout (a hung worker would trip the runner's own
        deadline and surface as a serial-fallback warning instead)."""
        from repro.federated import WorkerSetup

        clients, global_test = federation
        trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                   fed_config(rounds=1), global_test, seed=0)
        runner = ProcessPoolRunner(trainer._worker_setup(), workers=2,
                                   task_timeout=60.0)
        trainer._runner = runner
        result = trainer.run()
        assert len(result.history) == 1
        assert result.history[0].selected_clients == (0, 1, 2)


class _ExplodingRunner(RoundRunner):
    """A parallel-looking runner whose every round fails."""

    fallible = True
    closed = False

    def run_round(self, tasks):
        raise RoundExecutionError("injected failure")

    def close(self):
        self.closed = True


class TestFallback:
    def test_failing_runner_falls_back_to_serial_identically(self, federation,
                                                             mask, tiny_config):
        serial, serial_flat = run_trainer(federation, mask, tiny_config)
        exploding = _ExplodingRunner()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            fallback, fallback_flat = run_trainer(federation, mask, tiny_config,
                                                  runner=exploding)
        assert exploding.closed
        assert serial.history == fallback.history
        assert np.array_equal(serial_flat, fallback_flat)

    @needs_fork
    def test_worker_crash_falls_back_to_serial(self, federation, mask,
                                               tiny_config):
        """A worker process that dies mid-initialisation breaks the pool;
        the trainer must finish the run serially with identical results."""
        parent_pid = os.getpid()
        base_factory = lte_factory(tiny_config)

        def crashing_factory():
            if os.getpid() != parent_pid:
                os._exit(3)  # simulate a hard worker crash
            return base_factory()

        clients, global_test = federation
        trainer = FederatedTrainer(
            crashing_factory, clients, mask, fed_config(rounds=1, workers=2),
            global_test, seed=0,
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = trainer.run()
        assert len(result.history) == 1

        serial, _ = run_trainer(federation, mask, tiny_config, rounds=1)
        assert serial.history == result.history

    def test_serial_runner_errors_propagate(self, federation, mask,
                                            tiny_config, monkeypatch):
        """Serial execution errors are real errors, not fallback fodder,
        and the failed task still returns its arena slot."""
        clients, global_test = federation
        trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                   fed_config(rounds=1), global_test, seed=0)
        free_before = list(trainer.arena._free)

        def sabotaged(self, epochs, distiller=None):
            raise TypeError("sabotaged local training")

        monkeypatch.setattr(FederatedClient, "local_train_flat", sabotaged)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TypeError, match="sabotaged"):
                trainer.run()
        assert not [w for w in caught if "falling back" in str(w.message)]
        assert trainer.arena._free == free_before


class TestRunnerUnits:
    def test_process_pool_runner_validates_workers(self, federation, mask,
                                                   tiny_config):
        from repro.federated import WorkerSetup
        clients, _ = federation
        setup = WorkerSetup(model_factory=lte_factory(tiny_config),
                            client_data=tuple(), mask_builder=mask,
                            training=TrainingConfig())
        with pytest.raises(ValueError):
            ProcessPoolRunner(setup, workers=0)

    def test_config_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            FederatedConfig(workers=-1)

    def test_serial_runner_is_default(self, federation, mask, tiny_config):
        clients, global_test = federation
        trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                   fed_config(), global_test, seed=0)
        # In-process execution through the arena is the workers=0 default.
        assert isinstance(trainer._get_runner(), ArenaRunner)

    @needs_fork
    @pytest.mark.skipif(_bundled_openblas() is None,
                        reason="NumPy has no bundled scipy-openblas to pin")
    def test_pool_workers_pin_blas_to_one_thread(self, federation, mask,
                                                 tiny_config):
        clients, global_test = federation
        trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                   fed_config(), global_test, seed=0)
        runner = ProcessPoolRunner(trainer._worker_setup(), workers=2)
        try:
            pool = runner._ensure_pool()
            threads = [pool.submit(_worker_blas_threads) for _ in range(4)]
            assert [f.result(timeout=60) for f in threads] == [1, 1, 1, 1]
        finally:
            runner.close()

    @needs_fork
    def test_workers_capped_at_client_count(self, federation, mask,
                                            tiny_config):
        clients, global_test = federation
        trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                   fed_config(workers=64), global_test, seed=0)
        runner = trainer._get_runner()
        assert isinstance(runner, ProcessPoolRunner)
        assert runner.workers == len(clients)
        runner.close()


class TestFloat32Exchange:
    @needs_fork
    def test_parallel_matches_serial_under_float32(self, federation, mask,
                                                   tiny_config):
        """The exchange dtype is re-asserted inside workers, so reduced
        precision does not break serial/parallel equivalence."""
        with nn.use_default_dtype("float32"):
            serial, serial_flat = run_trainer(federation, mask, tiny_config,
                                              workers=0, rounds=2)
            parallel, parallel_flat = run_trainer(federation, mask, tiny_config,
                                                  workers=2, rounds=2)
        assert serial.history == parallel.history
        assert np.array_equal(serial_flat, parallel_flat)
        assert serial_flat.dtype == np.float32
        # Sync-back ships the exact float64 parameters alongside the
        # float32 upload: the live clients must not get rounded.
        for cs, cp in zip(serial.clients, parallel.clients):
            assert np.array_equal(cs.flat_parameters(dtype=np.float64),
                                  cp.flat_parameters(dtype=np.float64))
