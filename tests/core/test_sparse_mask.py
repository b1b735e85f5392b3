"""Sparse constraint masks: CSR building, sparse-aware masked
log-softmax equivalence (fused on/off, both exchange dtypes), edge
densities, and the warm/pickle contract of the sparse row pool."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import nn
from repro.baselines import FCRecoveryModel
from repro.core import ConstraintMaskBuilder, LTEModel, SparseConstraintMask
from repro.core.mask import _FLOOR_LOG


def _make_sparse(rows_active: list[list[tuple[int, float]]], s: int,
                 shape=None) -> SparseConstraintMask:
    """Hand-build a CSR mask from per-row (segment, log_weight) lists."""
    indptr = np.zeros(len(rows_active) + 1, dtype=np.int64)
    indices, values = [], []
    for i, row in enumerate(rows_active):
        indptr[i + 1] = indptr[i] + len(row)
        for seg, val in row:
            indices.append(seg)
            values.append(val)
    shape = shape if shape is not None else (len(rows_active), s)
    return SparseConstraintMask(shape, indptr,
                                np.array(indices, dtype=np.int64),
                                np.array(values, dtype=np.float64))


def _grad_pair(x: np.ndarray, mask_dense: np.ndarray, mask_sparse,
               g: np.ndarray) -> tuple:
    """Forward output + input gradient for the dense and sparse ops."""
    outs = []
    for mask in (mask_dense, mask_sparse):
        xt = nn.Tensor(x.copy(), requires_grad=True)
        out = nn.masked_log_softmax(xt, mask)
        (out * nn.Tensor(g)).sum().backward()
        outs.append((out.data, xt.grad))
    return outs


def _sparse_dense_tol() -> float:
    """Audited sparse-vs-dense tolerance for the active compute dtype:
    1e-9 at float64 (the sparse normaliser drops sub-``exp(floor)``
    terms); 1e-4 at float32 (measured ≤ ~4e-6 through the full model —
    per-term exp/sum ULP on top of the float64 story)."""
    return 1e-9 if nn.get_compute_dtype() == np.dtype(np.float64) else 1e-4


class TestSparseBuild:
    def test_matches_dense_build_exactly(self, tiny_dataset, tiny_mask):
        batch = tiny_dataset.full_batch()
        sparse = tiny_mask.build_sparse(batch)
        np.testing.assert_array_equal(sparse.to_dense(), tiny_mask.build(batch))

    def test_csr_structure(self, tiny_dataset, tiny_mask):
        batch = tiny_dataset.full_batch()
        sparse = tiny_mask.build_sparse(batch)
        assert sparse.shape == (batch.size, batch.steps,
                                tiny_dataset.num_segments)
        assert sparse.indptr[0] == 0
        assert sparse.indptr[-1] == sparse.nnz == len(sparse.indices)
        assert (np.diff(sparse.indptr) >= 0).all()
        assert 0.0 < sparse.density < 1.0
        # Rows are id-sorted (deterministic layout) and in vocabulary range.
        for r in range(min(sparse.n_rows, 50)):
            ids = sparse.indices[sparse.indptr[r]:sparse.indptr[r + 1]]
            assert (np.diff(ids) > 0).all() if ids.size > 1 else True
        assert (sparse.indices >= 0).all()
        assert (sparse.indices < tiny_dataset.num_segments).all()

    def test_step_slices_one_timestep(self, tiny_dataset, tiny_mask):
        batch = tiny_dataset.full_batch()
        sparse = tiny_mask.build_sparse(batch)
        dense = sparse.to_dense()
        for t in (0, batch.steps // 2, batch.steps - 1):
            np.testing.assert_array_equal(sparse.step(t).to_dense(),
                                          dense[:, t, :])

    def test_identity_mask(self, tiny_dataset, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, identity=True)
        batch = tiny_dataset.full_batch()
        sparse = builder.build_sparse(batch)
        assert sparse.identity and sparse.nnz == 0 and sparse.density == 1.0
        np.testing.assert_array_equal(sparse.to_dense(), builder.build(batch))

    def test_build_for_honours_flag_and_model(self, tiny_dataset, tiny_mask,
                                              tiny_config, fresh_rng):
        batch = tiny_dataset.full_batch()
        lte = LTEModel(tiny_config, fresh_rng)
        fc = FCRecoveryModel(tiny_config, np.random.default_rng(1))
        with nn.use_sparse_masks(True):
            assert isinstance(tiny_mask.build_for(batch, lte),
                              SparseConstraintMask)
            assert isinstance(tiny_mask.build_for(batch), SparseConstraintMask)
            # A model that never opted in keeps getting dense masks.
            assert isinstance(tiny_mask.build_for(batch, fc), np.ndarray)
        with nn.use_sparse_masks(False):
            assert isinstance(tiny_mask.build_for(batch, lte), np.ndarray)

    def test_non_supporting_model_rejects_sparse(self, tiny_dataset, tiny_mask,
                                                 tiny_config):
        fc = FCRecoveryModel(tiny_config, np.random.default_rng(1))
        batch = tiny_dataset.full_batch()
        with pytest.raises(TypeError, match="sparse"):
            fc(batch, tiny_mask.build_sparse(batch))


class TestSparseSoftmaxEquivalence:
    def test_forward_backward_close(self, tiny_dataset, tiny_mask, fresh_rng):
        batch = tiny_dataset.full_batch()
        sparse = tiny_mask.build_sparse(batch)
        dense = tiny_mask.build(batch)
        x = fresh_rng.standard_normal(dense.shape)
        g = fresh_rng.standard_normal(dense.shape)
        tol = _sparse_dense_tol()
        (out_d, grad_d), (out_s, grad_s) = _grad_pair(x, dense, sparse, g)
        np.testing.assert_allclose(out_s, out_d, atol=tol)
        np.testing.assert_allclose(grad_s, grad_d, atol=tol)
        # Per-row-constant normaliser shift: argmax is bit-identical.
        np.testing.assert_array_equal(np.argmax(out_s, -1),
                                      np.argmax(out_d, -1))

    def test_raw_inference_helper_matches_tape_op(self, tiny_dataset,
                                                  tiny_mask, fresh_rng):
        batch = tiny_dataset.full_batch()
        sparse = tiny_mask.build_sparse(batch)
        # Same input dtype for both entry points (the tape op casts to
        # the compute dtype; the raw helper runs whatever it is given):
        # then both run the identical core and must match to ~bitwise.
        x = fresh_rng.standard_normal(
            (batch.size, batch.steps, tiny_dataset.num_segments)
        ).astype(nn.get_compute_dtype())
        expected = nn.masked_log_softmax(nn.Tensor(x), sparse).data
        np.testing.assert_allclose(nn.sparse_masked_log_probs(x, sparse),
                                   expected, atol=1e-12)

    # FD probing needs the objective evaluated beyond float32 resolution:
    # eps=1e-6 central differences are pure rounding noise at float32.
    # The float32 gradient path is covered against the float64 reference
    # in tests/nn/test_compute_dtype.py instead.
    @pytest.mark.float64_only
    def test_finite_difference_gradient(self, fresh_rng):
        s = 7
        sparse = _make_sparse([[(0, -0.5), (3, -2.0)], [(2, 0.0)],
                               [], [(1, -1.0), (4, -0.25), (6, -3.0)]], s)
        x = fresh_rng.standard_normal((4, s))
        g = fresh_rng.standard_normal((4, s))

        def value(arr):
            out = nn.masked_log_softmax(nn.Tensor(arr), sparse)
            return float((out.data * g).sum())

        xt = nn.Tensor(x.copy(), requires_grad=True)
        out = nn.masked_log_softmax(xt, sparse)
        (out * nn.Tensor(g)).sum().backward()
        eps = 1e-6
        for idx in [(0, 0), (0, 3), (1, 2), (2, 5), (3, 4), (3, 6)]:
            bumped = x.copy()
            bumped[idx] += eps
            lowered = x.copy()
            lowered[idx] -= eps
            fd = (value(bumped) - value(lowered)) / (2 * eps)
            assert abs(fd - xt.grad[idx]) < 1e-4, (idx, fd, xt.grad[idx])

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("exchange_dtype", ["float64", "float32"])
    def test_model_forward_equivalence(self, tiny_dataset, tiny_mask,
                                       tiny_config, fused, exchange_dtype):
        """Sparse vs dense masks agree through the whole model on every
        (fused, exchange-dtype) combination, teacher-forced and
        autoregressive alike."""
        batch = tiny_dataset.full_batch()
        sparse = tiny_mask.build_sparse(batch)
        dense = tiny_mask.build(batch)
        model = LTEModel(tiny_config, np.random.default_rng(5))
        with nn.use_fused_kernels(fused), nn.use_default_dtype(exchange_dtype):
            out_d = model(batch, dense, teacher_forcing=True)
            out_s = model(batch, sparse, teacher_forcing=True)
            model.eval()
            with nn.no_grad():
                inf_d = model(batch, dense, teacher_forcing=False)
                inf_s = model(batch, sparse, teacher_forcing=False)
            model.train()
        tol = _sparse_dense_tol()
        np.testing.assert_allclose(out_s.log_probs.data, out_d.log_probs.data,
                                   atol=tol)
        np.testing.assert_allclose(out_s.ratios.data, out_d.ratios.data,
                                   atol=tol)
        np.testing.assert_array_equal(out_s.segments, out_d.segments)
        np.testing.assert_allclose(inf_s.log_probs.data, inf_d.log_probs.data,
                                   atol=tol)
        np.testing.assert_array_equal(inf_s.segments, inf_d.segments)

    def test_training_epoch_loss_close(self, tiny_dataset, tiny_world,
                                       tiny_config):
        """One epoch with sparse masks lands within tolerance of dense."""
        from repro.core import LocalTrainer, TrainingConfig

        losses = {}
        for label, flag in (("dense", False), ("sparse", True)):
            model = LTEModel(tiny_config, np.random.default_rng(11))
            builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
            trainer = LocalTrainer(model, builder, TrainingConfig(batch_size=8),
                                   np.random.default_rng(13))
            with nn.use_sparse_masks(flag):
                losses[label] = trainer.train_epoch(tiny_dataset)
        np.testing.assert_allclose(losses["sparse"], losses["dense"],
                                   rtol=1e-6)


class TestEdgeDensities:
    S = 9

    def _dense_from(self, sparse: SparseConstraintMask) -> np.ndarray:
        return sparse.to_dense()

    def _check(self, sparse: SparseConstraintMask, rng):
        dense = self._dense_from(sparse)
        x = rng.standard_normal(dense.shape).astype(nn.get_compute_dtype())
        g = rng.standard_normal(dense.shape)
        tol = _sparse_dense_tol()
        (out_d, grad_d), (out_s, grad_s) = _grad_pair(x, dense, sparse, g)
        np.testing.assert_allclose(out_s, out_d, atol=tol)
        np.testing.assert_allclose(grad_s, grad_d, atol=tol)
        raw = nn.sparse_masked_log_probs(x, sparse)
        np.testing.assert_allclose(raw, out_s, atol=1e-12)
        # Rows must stay valid log-distributions.
        np.testing.assert_allclose(np.exp(out_s).sum(-1), 1.0,
                                   atol=max(tol, 1e-9))

    def test_single_active_segment_rows(self, fresh_rng):
        sparse = _make_sparse([[(2, -0.1)], [(7, 0.0)], [(0, -4.0)]], self.S)
        self._check(sparse, fresh_rng)

    def test_all_segments_active_rows(self, fresh_rng):
        full = [(j, -0.01 * j) for j in range(self.S)]
        sparse = _make_sparse([full, full], self.S)
        assert sparse.density == 1.0
        self._check(sparse, fresh_rng)

    def test_empty_radius_fallback_rows(self, fresh_rng):
        """Rows with no in-radius segment fall back to the uniform
        all-floor mask — exactly like the dense path."""
        sparse = _make_sparse([[], [(3, -0.5)], []], self.S)
        dense = sparse.to_dense()
        assert (dense[0] == _FLOOR_LOG).all()
        self._check(sparse, fresh_rng)

    def test_mixed_densities_one_batch(self, fresh_rng):
        rows = [[], [(0, 0.0)], [(j, -0.2 * j) for j in range(self.S)],
                [(1, -1.0), (5, -2.0)]]
        self._check(_make_sparse(rows, self.S), fresh_rng)

    def test_empty_radius_builder_row(self, tiny_world):
        """A guide point far outside the network yields an all-floor
        dense row and an empty sparse row that agree."""
        builder = ConstraintMaskBuilder(tiny_world.network, radius=150.0)
        min_x, min_y, _, _ = tiny_world.network.bounding_box()
        row = builder.log_mask_for_point(min_x - 7000.0, min_y - 7000.0)
        key = builder._key_to_row[(int((min_x - 7000.0) // 25.0),
                                   int((min_y - 7000.0) // 25.0))]
        if builder._sp_lens[key] == 0:
            assert (row == _FLOOR_LOG).all()


class TestWarmAndPickle:
    def test_warm_fills_sparse_pool_without_densifying(self, tiny_world,
                                                       tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        rows = builder.warm(tiny_dataset)
        assert rows == len(builder._key_to_row) > 0
        assert builder._sp_used > 0
        # warm() is sparse-only: the (U, S) dense row matrix stays empty.
        assert builder._dense_rows == 0
        # Sparse builds after warming hit only warmed keys.
        keys_before = set(builder._key_to_row)
        batch = tiny_dataset.full_batch()
        reference = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        np.testing.assert_array_equal(builder.build_sparse(batch).to_dense(),
                                      reference.build(batch))
        assert set(builder._key_to_row) == keys_before

    def test_pickle_drops_sparse_pool(self, tiny_world, tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        builder.warm(tiny_dataset)
        batch = tiny_dataset.full_batch()
        expected = builder.build_sparse(batch)
        clone = pickle.loads(pickle.dumps(builder))
        # Cache-free clone: no keys, no pool bytes, no dense rows.
        assert not clone._key_to_row
        assert clone._sp_used == 0
        assert clone._dense_rows == 0
        # A worker-style re-warm rebuilds identical sparse rows.
        clone.warm(tiny_dataset)
        rebuilt = clone.build_sparse(batch)
        np.testing.assert_array_equal(rebuilt.indptr, expected.indptr)
        np.testing.assert_array_equal(rebuilt.indices, expected.indices)
        np.testing.assert_array_equal(rebuilt.log_values, expected.log_values)

    def test_clear_cache_resets_sparse_pool(self, tiny_world, tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        builder.build_sparse(batch)
        builder.build(batch)
        assert builder._sp_used > 0 and builder._dense_rows > 0
        builder.clear_cache()
        assert builder._sp_used == 0
        assert builder._dense_rows == 0
        assert not builder._key_to_row and not builder._cache
        # And the builder still works from cold.
        np.testing.assert_array_equal(builder.build_sparse(batch).to_dense(),
                                      builder.build(batch))


class TestRunnerShipsSparseFlag:
    def test_round_task_carries_and_worker_asserts_flag(self, tiny_world,
                                                        tiny_dataset,
                                                        tiny_config,
                                                        monkeypatch):
        """The worker-side executor re-asserts the task's sparse-mask
        flag (exercised in-process via the pool initializer hooks)."""
        from repro.core import TrainingConfig
        from repro.federated import runner as runner_mod
        from repro.federated.client import ClientData
        from repro.federated.runner import RoundTask, WorkerSetup, _init_worker

        task_fields = RoundTask.__dataclass_fields__
        assert "sparse_masks" in task_fields
        assert task_fields["sparse_masks"].default is True

        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        data = ClientData(train=tiny_dataset, valid=tiny_dataset,
                          test=tiny_dataset)
        setup = WorkerSetup(
            model_factory=lambda: LTEModel(tiny_config,
                                           np.random.default_rng(2)),
            client_data=(data,),
            mask_builder=builder,
            training=TrainingConfig(epochs=1, batch_size=8),
        )
        model = setup.model_factory()
        flat = np.concatenate([p.data.reshape(-1) for p in model.parameters()])
        saved_worker = runner_mod._WORKER

        # Probe the flag while the task runs: _ensure_model_dtype is the
        # first call the executor makes after asserting the task flags.
        observed = []
        original_ensure = runner_mod.TaskExecutor._ensure_model_dtype
        monkeypatch.setattr(
            runner_mod.TaskExecutor, "_ensure_model_dtype",
            lambda self: (observed.append(nn.sparse_masks_enabled()),
                          original_ensure(self))[1])
        try:
            _init_worker(setup)
            for flag in (False, True):
                with nn.use_sparse_masks(not flag):
                    runner_mod._execute_task(RoundTask(
                        client_id=0, global_flat=flat, epochs=1,
                        teacher_flat=None, session=None, sparse_masks=flag,
                    ))
                    assert observed[-1] is flag
                    # In-process execution restores the caller's flags
                    # (a task must not leak its precision/kernel state).
                    assert nn.sparse_masks_enabled() is (not flag)
        finally:
            runner_mod._WORKER = saved_worker
            nn.set_sparse_masks(True)
