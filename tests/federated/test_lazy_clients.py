"""The client substrate: shards + model arena + aggregation slab.

The contract is bitwise equivalence: a run through the trainer's own
substrate (client state in flat shards, models in a bounded arena,
uploads staged into the aggregation slab) must reproduce ``N``
persistent live clients (:mod:`live_client_oracle`) — round histories,
final global parameters, per-client parameters and RNG state — bit for
bit, under every composition: sync and async waves, distillation,
fault plans and lossy exchange codecs; and checkpoints written by
either client model resume bit-identically.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp

import numpy as np
import pytest
from live_client_oracle import live_trainer

from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.federated import (
    AggregationSlab,
    ArenaRunner,
    FederatedCheckpoint,
    FederatedConfig,
    FederatedServer,
    FederatedTrainer,
    LazyClientList,
    ModelArena,
    build_federation,
    checkpoint_path,
    latest_checkpoint,
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


def fed_config(rounds=2, use_meta=False, **kwargs):
    kwargs.setdefault("client_fraction", 1.0)
    return FederatedConfig(
        rounds=rounds, local_epochs=1,
        training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
        use_meta=use_meta, **kwargs,
    )


def run_arena(federation, mask, tiny_config, *, seed=0, **kwargs):
    clients, global_test = federation
    trainer = FederatedTrainer(
        lte_factory(tiny_config), clients, mask, fed_config(**kwargs),
        global_test, seed=seed,
    )
    return trainer, trainer.run()


def assert_matches_live_oracle(federation, mask, tiny_config, **kwargs):
    """Run the arena path and the live-client oracle; compare them."""
    arena_tr, arena = run_arena(federation, mask, tiny_config, **kwargs)
    clients, global_test = federation
    live_tr, runner = live_trainer(lte_factory(tiny_config), clients, mask,
                                   fed_config(**kwargs), global_test, seed=0)
    live = live_tr.run()
    assert arena.history == live.history
    assert np.array_equal(arena_tr.server.global_flat(dtype=np.float64),
                          live_tr.server.global_flat(dtype=np.float64))
    assert isinstance(arena.clients, LazyClientList)
    assert len(arena.clients) == len(live.clients) == len(runner.clients)
    for view, adopted, client in zip(arena.clients, live.clients,
                                     runner.clients):
        params = view.flat_parameters(dtype=np.float64)
        rng_state = view.session_state().rng_state
        # The live oracle's own clients, and the shards that adopted its
        # results, both hold the arena path's state.
        for other in (adopted, client):
            assert np.array_equal(params,
                                  other.flat_parameters(dtype=np.float64))
            assert rng_state == other.session_state().rng_state
    return arena, live


class TestArenaMatchesLiveOracle:
    def test_sync_rounds(self, federation, mask, tiny_config):
        assert_matches_live_oracle(federation, mask, tiny_config)

    def test_meta_distillation(self, federation, mask, tiny_config):
        arena, _ = assert_matches_live_oracle(federation, mask, tiny_config,
                                              use_meta=True)
        assert arena.teacher_result is not None

    def test_async_waves(self, federation, mask, tiny_config):
        assert_matches_live_oracle(
            federation, mask, tiny_config, rounds=4, async_buffer=2,
            staleness_alpha=0.5, latency="base=1.0,jitter=0.5,seed=5")

    def test_int8_codec(self, federation, mask, tiny_config):
        arena, live = assert_matches_live_oracle(
            federation, mask, tiny_config, exchange_codec="int8")
        ledger_bytes = [(c.bytes_down, c.bytes_up) for c in arena.ledger.rounds]
        assert ledger_bytes == [(c.bytes_down, c.bytes_up)
                                for c in live.ledger.rounds]

    @pytest.mark.parametrize("plan,retries,kinds", [
        ("crash=0.3,dropout=0.2,seed=11", 2, set()),
        ("crash=0.3,corrupt=0.3,straggler=0.2,delay=0.001,seed=1", 1,
         {"crash", "rejected"}),
    ], ids=["retried", "crashed-and-corrupted"])
    def test_fault_plan(self, federation, mask, tiny_config, plan, retries,
                        kinds):
        # Same failures, same retries, same survivors, same floats.
        arena, _ = assert_matches_live_oracle(
            federation, mask, tiny_config, rounds=4, fault_plan=plan,
            task_retries=retries)
        assert any(record.retries for record in arena.history)
        failed = {kind for record in arena.history
                  for kind in record.failure_kinds}
        assert kinds <= failed

    def test_arena_size_does_not_change_results(self, federation, mask,
                                                tiny_config):
        _, one = run_arena(federation, mask, tiny_config, arena_size=1)
        _, three = run_arena(federation, mask, tiny_config, arena_size=3)
        assert one.history == three.history

    @needs_fork
    def test_pool_matches_arena(self, federation, mask, tiny_config):
        _, serial = run_arena(federation, mask, tiny_config)
        _, pool = run_arena(federation, mask, tiny_config, workers=2)
        assert serial.history == pool.history

    def test_lazy_clients_false_rejected(self):
        assert FederatedConfig(lazy_clients=True).lazy_clients is True
        with pytest.raises(ValueError, match="eager clients were removed"):
            FederatedConfig(lazy_clients=False)


class TestArenaHygiene:
    def test_checkout_checkin_reuses_slots(self, federation, mask,
                                           tiny_config):
        clients, _ = federation
        arena = ModelArena(lte_factory(tiny_config), mask, TrainingConfig(),
                           size=1)
        first = arena.checkout(0, clients[0])
        arena.checkin(first)
        second = arena.checkout(1, clients[1])
        assert second is first  # one slot, rebound
        assert second.client_id == 1
        assert arena.live_slots == 1

    def test_exhausted_arena_raises(self, federation, mask, tiny_config):
        clients, _ = federation
        arena = ModelArena(lte_factory(tiny_config), mask, TrainingConfig(),
                           size=1)
        arena.checkout(0, clients[0])
        with pytest.raises(RuntimeError, match="arena exhausted"):
            arena.checkout(1, clients[1])

    def test_no_state_bleed_between_clients(self, federation, mask,
                                            tiny_config):
        """Clients sharing one arena slot train exactly like live
        clients owning private models."""
        assert_matches_live_oracle(federation, mask, tiny_config, rounds=3,
                                   arena_size=1)

    def test_materialised_view_is_isolated(self, federation, mask,
                                           tiny_config):
        """Mutating a materialised client cannot corrupt the shard."""
        trainer, _ = run_arena(federation, mask, tiny_config)
        before = trainer.shards[0].params_flat.copy()
        view = trainer.clients[0]
        view.flat_parameters()  # read is fine
        view.receive_global_flat(np.zeros_like(before))  # sabotage the view
        assert np.array_equal(trainer.shards[0].params_flat, before)
        fresh = trainer.clients[0]
        assert np.array_equal(fresh.flat_parameters(dtype=np.float64), before)

    def test_untrained_shards_stay_pristine(self, federation, mask,
                                            tiny_config):
        """With a small sampled fraction the unsampled majority keeps
        params_flat=None (no per-client parameter copies) and shares
        the arena's single pristine optimiser-state template."""
        clients, global_test = federation
        trainer = FederatedTrainer(
            lte_factory(tiny_config), clients, mask,
            fed_config(rounds=1, client_fraction=0.34),
            global_test, seed=0)
        pristine_opt = trainer.arena.pristine_session.optimizer_state
        assert all(s.params_flat is None for s in trainer.shards)
        assert all(s.session.optimizer_state is pristine_opt
                   for s in trainer.shards)
        result = trainer.run()
        sampled = set(result.history[0].selected_clients)
        for i, shard in enumerate(trainer.shards):
            assert (shard.params_flat is not None) == (i in sampled)


class TestSlabAggregation:
    def _server(self, tiny_config):
        return FederatedServer(LTEModel(tiny_config, np.random.default_rng(33)))

    def test_slab_equals_per_vector_aggregation(self, tiny_config):
        server = self._server(tiny_config)
        p = server.num_parameters
        rng = np.random.default_rng(4)
        vectors = [rng.normal(size=p).astype(np.float32) for _ in range(5)]
        expected = server.aggregate_flat(list(vectors))
        slab = AggregationSlab(p)
        rows = slab.rows(len(vectors))
        for i, vec in enumerate(vectors):
            rows[i] = vec
        got = server.aggregate_rows(rows[: len(vectors)])
        assert np.array_equal(expected, got)
        weighted = server.aggregate_flat(list(vectors), [1.0, 2, 3, 4, 5])
        got_w = server.aggregate_rows(rows[: len(vectors)], [1.0, 2, 3, 4, 5])
        assert np.array_equal(weighted, got_w)

    def test_slab_grows_and_reuses(self, tiny_config):
        slab = AggregationSlab(8, capacity=2)
        first = slab.rows(2)
        assert slab.capacity == 2
        again = slab.rows(2)
        assert again.base is first.base  # same backing buffer
        grown = slab.rows(5)
        assert grown.shape == (5, 8)
        assert slab.capacity >= 5

    def test_rejection_reasons_match_validate_upload(self, tiny_config):
        server = self._server(tiny_config)
        p = server.num_parameters
        bad_nan = np.zeros(p)
        bad_nan[3] = np.nan
        bad_norm = np.full(p, 1e6)
        good = np.full(p, 0.5)
        slab = AggregationSlab(p)
        rows = slab.rows(3)
        rows[0], rows[1], rows[2] = bad_nan, bad_norm, good
        reasons = server.validate_rows(rows)
        assert reasons[0] == server.validate_upload(bad_nan)
        assert reasons[1] == server.validate_upload(bad_norm)
        assert reasons[2] is None is server.validate_upload(good)
        # The pre-slab screen catches what cannot be staged at all.
        assert server.screen_upload(np.zeros(3)) == \
            server.validate_upload(np.zeros(3))
        assert server.screen_upload(np.zeros(p, dtype=np.int64)) == \
            server.validate_upload(np.zeros(p, dtype=np.int64))
        assert server.screen_upload(good) is None

    def test_empty_slab_rejected(self, tiny_config):
        server = self._server(tiny_config)
        slab = AggregationSlab(server.num_parameters)
        with pytest.raises(ValueError, match="non-empty"):
            server.aggregate_rows(slab.rows(0))


class TestCheckpointResume:
    CKPT_KW = dict(rounds=4, exchange_codec="int8", async_buffer=2,
                   staleness_alpha=0.5, latency="base=1.0,jitter=0.5,seed=5")

    def make_trainer(self, federation, mask, tiny_config, **kwargs):
        clients, global_test = federation
        return FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                fed_config(**kwargs), global_test, seed=0)

    def test_bitwise_resume_int8_async(self, federation, mask,
                                       tiny_config, tmp_path):
        """The acceptance composition: shards + int8 codec + async waves,
        killed at the round-2 checkpoint and resumed from a fresh
        trainer, matches the uninterrupted run bit for bit.  The kill
        is simulated from the full run's *intermediate* checkpoint —
        async waves know the final round drains the wire, so a shorter
        run would be legitimately different."""
        straight = self.make_trainer(
            federation, mask, tiny_config,
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
            **self.CKPT_KW)
        full = straight.run()
        midpoint = checkpoint_path(str(tmp_path), 2)

        resumed_trainer = self.make_trainer(
            federation, mask, tiny_config,
            resume_from=midpoint, **self.CKPT_KW)
        resumed = resumed_trainer.run()
        assert resumed.history == full.history
        assert resumed.ledger.rounds == full.ledger.rounds
        assert np.array_equal(
            straight.server.global_flat(dtype=np.float64),
            resumed_trainer.server.global_flat(dtype=np.float64))
        for shard, full_shard in zip(resumed_trainer.shards,
                                     straight.shards):
            assert np.array_equal(shard.params_flat, full_shard.params_flat)

    def test_checkpoint_preserves_pristine_none(self, federation, mask,
                                                tiny_config, tmp_path):
        trainer = self.make_trainer(
            federation, mask, tiny_config, rounds=1,
            client_fraction=0.34, checkpoint_every=1,
            checkpoint_dir=str(tmp_path))
        trainer.run()
        ckpt = FederatedCheckpoint.load(latest_checkpoint(str(tmp_path)))
        assert ckpt.version == 3
        assert any(p is None for p in ckpt.client_params)  # unsampled shards

    @pytest.mark.parametrize("version", [2, 3])
    def test_live_client_checkpoint_resumes_into_shards(
            self, federation, mask, tiny_config, tmp_path, version):
        """Files written by live-client runs — every parameter vector
        present; version 3 also pickled ``lazy_clients=False``, version
        2 predates the attribute — resume into shards bit-identically."""
        kwargs = dict(rounds=3, client_fraction=0.34)
        straight = self.make_trainer(
            federation, mask, tiny_config, checkpoint_every=1,
            checkpoint_dir=str(tmp_path / "run"), **kwargs)
        full = straight.run()
        ckpt = FederatedCheckpoint.load(
            checkpoint_path(str(tmp_path / "run"), 1))
        assert any(p is None for p in ckpt.client_params)
        pristine = straight.arena.pristine_params
        ckpt.client_params = tuple(pristine.copy() if p is None else p
                                   for p in ckpt.client_params)
        ckpt.version = version
        if version == 3:
            ckpt.__dict__["lazy_clients"] = False
        live_file = ckpt.save(checkpoint_path(str(tmp_path / "live"), 1))

        resumed_trainer = self.make_trainer(
            federation, mask, tiny_config, resume_from=live_file, **kwargs)
        resumed = resumed_trainer.run()
        assert resumed.history == full.history
        assert np.array_equal(
            straight.server.global_flat(dtype=np.float64),
            resumed_trainer.server.global_flat(dtype=np.float64))

    def test_v2_checkpoint_still_loads(self, tmp_path):
        """A version-2 pickle loads with its parameter vectors intact."""
        checkpoint = FederatedCheckpoint(
            next_round=1, global_flat=np.zeros(4), client_sessions=(),
            client_params=(np.ones(4),), trainer_rng_state={},
            teacher_flat=None)
        checkpoint.version = 2
        path = checkpoint.save(checkpoint_path(str(tmp_path), 1))
        loaded = FederatedCheckpoint.load(path)
        assert loaded.version == 2
        assert np.array_equal(loaded.client_params[0], np.ones(4))


class TestArenaRunnerUnits:
    def test_requires_state_shipping_results(self, federation, mask,
                                             tiny_config):
        """The trainer rejects injected runners whose results don't
        carry session state — shards would silently stop advancing."""

        class StatelessRunner(ArenaRunner):
            def run_round_tolerant(self, tasks, policy=None):
                execution = super().run_round_tolerant(tasks, policy)
                for i, result in enumerate(execution.results):
                    execution.results[i] = dataclasses.replace(result,
                                                               session=None)
                return execution

        clients, global_test = federation
        trainer = FederatedTrainer(
            lte_factory(tiny_config), clients, mask,
            fed_config(rounds=1), global_test, seed=0)
        trainer._runner = StatelessRunner(trainer._worker_setup(),
                                          trainer.arena)
        with pytest.raises(ValueError, match="session=None"):
            trainer.run()

    def test_setup_teacher_sentinel_requires_snapshot(self, federation, mask,
                                                      tiny_config):
        from repro.federated import RoundTask, TaskExecutor
        clients, global_test = federation
        trainer = FederatedTrainer(
            lte_factory(tiny_config), clients, mask,
            fed_config(rounds=1), global_test, seed=0)
        executor = TaskExecutor(trainer._worker_setup(), trainer.arena)
        task = RoundTask(client_id=0,
                         global_flat=trainer.server.global_flat(),
                         epochs=1, teacher_flat=None, session=None,
                         use_setup_teacher=True)
        with pytest.raises(RuntimeError, match="setup teacher"):
            executor.execute(task)
