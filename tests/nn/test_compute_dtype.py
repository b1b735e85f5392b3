"""The float32 compute substrate: dtype propagation, mixed-precision
accumulation, the optimizer master-weight contract, and the audited
float32-vs-float64 equivalences.

Complements the dtype-parametrized tier-1 contracts (which re-run under
``REPRO_COMPUTE_DTYPE=float32`` in CI): here every test pins its own
compute dtype via :func:`repro.nn.use_compute_dtype`, so the float32
claims hold no matter which substrate the suite as a whole runs on.

Audited float32 tolerances (measured on the tiny world, ~25x margin):

========================  =========  ==========================________
quantity                  bound      measured
========================  =========  ==============================
log-probs vs float64      1e-4       ≤ ~4e-6
loss (relative)           1e-5       ≤ ~7e-8
gradients vs float64      1e-3 rel   ≤ ~1e-5 rel
segment accuracy drift    0.02       0.0
========================  =========  ==============================
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro import nn
from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.core.training import LocalTrainer, model_segment_accuracy
from repro.federated import FederatedConfig, FederatedTrainer, build_federation
from repro.serving import decode_model

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="no fork start method on this platform",
)

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)


# ----------------------------------------------------------------------
# config API
# ----------------------------------------------------------------------
class TestDtypeConfig:
    def test_float64_is_the_default_reference(self):
        # The suite may be running under REPRO_COMPUTE_DTYPE forcing, so
        # assert the default through a fresh scope instead of globally.
        with nn.use_compute_dtype("float64"):
            assert nn.get_compute_dtype() == F64
            assert nn.Tensor([1.0]).data.dtype == F64

    def test_set_returns_previous_and_context_restores(self):
        before = nn.get_compute_dtype()
        previous = nn.set_compute_dtype("float32")
        assert previous == before
        assert nn.get_compute_dtype() == F32
        nn.set_compute_dtype(previous)
        with nn.use_compute_dtype("float32"):
            assert nn.get_compute_dtype() == F32
        assert nn.get_compute_dtype() == before

    def test_rejects_non_float_dtypes(self):
        for bad in ("int64", "float16", "complex128"):
            with pytest.raises(ValueError):
                nn.set_compute_dtype(bad)

    def test_context_restores_when_the_body_raises(self):
        # The batcher's admission and step run under this context, and
        # a malformed request may raise inside it.
        before = nn.get_compute_dtype()
        other = "float32" if before == F64 else "float64"
        with pytest.raises(RuntimeError):
            with nn.use_compute_dtype(other):
                assert nn.get_compute_dtype() == np.dtype(other)
                raise RuntimeError("body failed")
        assert nn.get_compute_dtype() == before


# ----------------------------------------------------------------------
# tensor / kernel propagation
# ----------------------------------------------------------------------
class TestDtypePropagation:
    def test_tensor_ops_stay_in_compute_dtype(self, fresh_rng):
        with nn.use_compute_dtype("float32"):
            a = nn.Tensor(fresh_rng.standard_normal((4, 5)), requires_grad=True)
            b = nn.Tensor(fresh_rng.standard_normal((5, 3)))
            out = ((a @ b).tanh() * 2.0 + 1.0).sigmoid()
            assert out.data.dtype == F32
            out.sum().backward()
            assert a.grad.dtype == F32

    def test_modules_and_fused_scans_stay_float32(self, fresh_rng):
        with nn.use_compute_dtype("float32"):
            gru = nn.GRU(6, 8, fresh_rng)
            assert all(p.data.dtype == F32 for p in gru.parameters())
            x = nn.Tensor(fresh_rng.standard_normal((3, 7, 6)),
                          requires_grad=True)
            outputs, last = gru(x)
            assert outputs.data.dtype == F32 and last.data.dtype == F32
            last.sum().backward()
            assert x.grad.dtype == F32
            assert all(p.grad.dtype == F32 for p in gru.parameters())

    def test_load_state_dict_keeps_compute_dtype(self, fresh_rng):
        with nn.use_compute_dtype("float32"):
            layer = nn.Linear(4, 3, fresh_rng)
            state = {k: v.astype(np.float64)  # a float64 checkpoint
                     for k, v in layer.state_dict().items()}
            layer.load_state_dict(state)
            assert layer.weight.data.dtype == F32

    def test_collation_and_mask_follow_compute_dtype(self, tiny_dataset,
                                                     tiny_mask):
        for dtype in (F64, F32):
            with nn.use_compute_dtype(dtype):
                batch = tiny_dataset.full_batch()
                assert batch.obs_feats.dtype == dtype
                assert batch.tgt_ratios.dtype == dtype
                assert batch.guide_xy.dtype == F64  # spatial, not model input
                dense = tiny_mask.build(batch)
                sparse = tiny_mask.build_sparse(batch)
                assert dense.dtype == dtype
                assert sparse.log_values.dtype == dtype
                assert sparse.step(0).log_values.dtype == dtype
                assert sparse.to_dense().dtype == dtype
                np.testing.assert_array_equal(sparse.to_dense(),
                                              dense.astype(dtype))

    def test_collation_cache_is_dtype_keyed(self, tiny_dataset):
        with nn.use_compute_dtype("float64"):
            b64 = tiny_dataset.full_batch()
        with nn.use_compute_dtype("float32"):
            b32 = tiny_dataset.full_batch()
        assert b64.tgt_ratios.dtype == F64
        assert b32.tgt_ratios.dtype == F32
        np.testing.assert_allclose(b32.tgt_ratios, b64.tgt_ratios, atol=1e-7)


# ----------------------------------------------------------------------
# float32 vs the float64 reference (the FD-replacement audit)
# ----------------------------------------------------------------------
def _forward_backward(dtype, tiny_config, tiny_dataset, tiny_world):
    with nn.use_compute_dtype(dtype):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        log_mask = builder.build_for(batch, model)
        output = model(batch, log_mask, teacher_forcing=True)
        loss, _ = model.loss(output, batch)
        loss.backward()
        grads = {name: p.grad.astype(np.float64)
                 for name, p in model.named_parameters()}
        return output, loss.item(), grads


class TestFloat32VsFloat64Reference:
    def test_forward_loss_and_gradients_track_the_reference(
            self, tiny_config, tiny_dataset, tiny_world):
        out64, loss64, grads64 = _forward_backward("float64", tiny_config,
                                                   tiny_dataset, tiny_world)
        out32, loss32, grads32 = _forward_backward("float32", tiny_config,
                                                   tiny_dataset, tiny_world)
        np.testing.assert_allclose(out32.log_probs.data, out64.log_probs.data,
                                   atol=1e-4)
        np.testing.assert_array_equal(out32.segments, out64.segments)
        assert abs(loss32 - loss64) / abs(loss64) < 1e-5
        for name, g64 in grads64.items():
            scale = np.abs(g64).max() + 1e-12
            assert np.abs(grads32[name] - g64).max() / scale < 1e-3, name

    def test_one_epoch_accuracy_drift_within_audit(self, tiny_config,
                                                   tiny_dataset, tiny_world):
        results = {}
        for dtype in ("float64", "float32"):
            with nn.use_compute_dtype(dtype):
                model = LTEModel(tiny_config, np.random.default_rng(3))
                builder = ConstraintMaskBuilder(tiny_world.network,
                                                radius=400.0)
                trainer = LocalTrainer(model, builder,
                                       TrainingConfig(batch_size=8, lr=1e-3),
                                       np.random.default_rng(4))
                loss = trainer.train_epoch(tiny_dataset)
                acc = model_segment_accuracy(model, builder, tiny_dataset)
                results[dtype] = (loss, acc)
        loss64, acc64 = results["float64"]
        loss32, acc32 = results["float32"]
        assert abs(loss32 - loss64) / abs(loss64) < 1e-5
        assert abs(acc32 - acc64) <= 0.02


# ----------------------------------------------------------------------
# optimizer master-weight contract
# ----------------------------------------------------------------------
class TestOptimizerMasterWeights:
    def _train_steps(self, dtype, steps=3):
        with nn.use_compute_dtype(dtype):
            rng = np.random.default_rng(7)
            layer = nn.Linear(6, 4, rng)
            optimizer = nn.Adam(layer.parameters(), lr=1e-2)
            x = rng.standard_normal((8, 6))
            y = rng.standard_normal((8, 4))
            for _ in range(steps):
                optimizer.zero_grad()
                out = layer(nn.Tensor(x))
                nn.mse_loss(out, nn.Tensor(y)).backward()
                optimizer.step()
            return layer, optimizer

    def test_moments_and_state_stay_float64_at_float32_compute(self):
        layer, optimizer = self._train_steps("float32")
        assert all(p.data.dtype == F32 for p in layer.parameters())
        state = optimizer.state_flat()
        assert state["m"].dtype == F64
        assert state["v"].dtype == F64

    def test_float32_steps_track_the_float64_reference(self):
        layer64, _ = self._train_steps("float64")
        layer32, _ = self._train_steps("float32")
        for p64, p32 in zip(layer64.parameters(), layer32.parameters()):
            np.testing.assert_allclose(p32.data, p64.data, atol=1e-5)

    def test_sgd_momentum_buffer_is_float64(self):
        with nn.use_compute_dtype("float32"):
            rng = np.random.default_rng(1)
            layer = nn.Linear(3, 2, rng)
            optimizer = nn.SGD(layer.parameters(), lr=0.1, momentum=0.9)
            optimizer.zero_grad()
            nn.mse_loss(layer(nn.Tensor(rng.standard_normal((4, 3)))),
                        nn.Tensor(np.zeros((4, 2)))).backward()
            optimizer.step()
            assert optimizer.state_flat()["velocity"].dtype == F64
            assert all(p.data.dtype == F32 for p in layer.parameters())

    def test_fallback_loop_preserves_parameter_dtype(self):
        """The per-parameter path (a grad-less parameter) must not let
        float64 master arithmetic leak into float32 storage."""
        with nn.use_compute_dtype("float32"):
            rng = np.random.default_rng(2)
            used = nn.Linear(3, 2, rng)
            unused = nn.Linear(3, 2, rng)
            optimizer = nn.Adam(list(used.parameters())
                                + list(unused.parameters()), lr=1e-2)
            optimizer.zero_grad()
            nn.mse_loss(used(nn.Tensor(rng.standard_normal((4, 3)))),
                        nn.Tensor(np.zeros((4, 2)))).backward()
            optimizer.step()  # unused has no grad -> fallback loop
            assert all(p.data.dtype == F32 for p in used.parameters())
            assert all(p.data.dtype == F32 for p in unused.parameters())


# ----------------------------------------------------------------------
# serving: packed decode at float32
# ----------------------------------------------------------------------
class TestServingAtFloat32:
    # The ragged set packs down to a single-row tail.
    @pytest.mark.parametrize("dataset", ["tiny_dataset", "ragged_dataset"])
    def test_packed_matches_padded_bitwise_at_float32(self, tiny_config,
                                                      tiny_world, dataset,
                                                      request):
        with nn.use_compute_dtype("float32"):
            model = LTEModel(tiny_config, np.random.default_rng(11))
            model.eval()
            builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
            batch = request.getfixturevalue(dataset).full_batch()
            log_mask = builder.build_for(batch, model)
            with nn.no_grad():
                packed = decode_model(model, batch, log_mask)
                padded = model(batch, log_mask, teacher_forcing=False)
            assert packed.log_probs.data.dtype == F32
            assert packed.ratios.data.dtype == F32
            valid = batch.tgt_mask
            # The packed-vs-padded contract is dtype-independent: the
            # same kernels run over compacted rows, so valid steps are
            # bit-identical at float32 exactly as at float64.
            np.testing.assert_array_equal(packed.segments[valid],
                                          padded.segments[valid])
            np.testing.assert_array_equal(packed.log_probs.data[valid],
                                          padded.log_probs.data[valid])
            np.testing.assert_array_equal(packed.ratios.data[valid],
                                          padded.ratios.data[valid])


# ----------------------------------------------------------------------
# federated: serial vs parallel bit-identity at float32
# ----------------------------------------------------------------------
class TestFederatedAtFloat32:
    def _run(self, tiny_world, tiny_config, workers):
        clients, global_test = build_federation(tiny_world, num_clients=3,
                                                keep_ratio=0.25)
        config = FederatedConfig(
            rounds=2, client_fraction=1.0, local_epochs=1,
            training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
            use_meta=False, workers=workers,
        )
        trainer = FederatedTrainer(
            lambda: LTEModel(tiny_config, np.random.default_rng(33)),
            clients, ConstraintMaskBuilder(tiny_world.network, radius=400.0),
            config, global_test, seed=0,
        )
        result = trainer.run()
        return result.history, np.asarray(trainer.server.global_flat(),
                                          dtype=np.float64)

    @needs_fork
    def test_serial_and_parallel_histories_bit_identical(self, tiny_world,
                                                         tiny_config):
        with nn.use_compute_dtype("float32"):
            serial_history, serial_flat = self._run(tiny_world, tiny_config,
                                                    workers=0)
            parallel_history, parallel_flat = self._run(tiny_world,
                                                        tiny_config, workers=2)
        # RoundRecords are frozen dataclasses of floats: == is bit-exact.
        assert serial_history == parallel_history
        np.testing.assert_array_equal(serial_flat, parallel_flat)

    def test_round_task_ships_compute_dtype(self, tiny_world, tiny_config):
        """Tasks snapshot the active compute dtype so workers re-assert
        it (the serial path reads the same global directly)."""
        from repro.federated.runner import RoundTask

        assert RoundTask.__dataclass_fields__["compute_dtype"].default \
            == "float64"
        with nn.use_compute_dtype("float32"):
            assert nn.get_compute_dtype().name == "float32"
