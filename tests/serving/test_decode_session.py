"""Ragged-length decode equivalence: the packed engine vs every reference.

The serving contract (see ``repro/serving/engine.py``): packed decode
is bit-identical to the padded full-length decode on every valid
timestep under *any* packing — including single-row working sets,
which since the self-ballast upgrade run the same GEMM kernels as
packed ones (the older 1e-10/argmax assertions below remain as the
weaker historical contract; equality satisfies them).  The padded
oracle is the model's own ``forward(teacher_forcing=False)`` under
``no_grad``.  Covered matrix: uneven lengths, empty-radius fallback
mask rows, sparse/dense masks, the per-step reference kernels
(``reference_paths``), the baselines' grad-enabled tape loops, all
autoregressive models, and the decode_batch chunking knob (float32
compute: ``tests/nn/test_compute_dtype.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.baselines.mtrajrec import MTrajRecModel
from repro.baselines.rnn import RNNRecoveryModel
from repro.baselines.rntrajrec import RNTrajRecModel
from repro.core import ConstraintMaskBuilder, LTEModel
from repro.data import TrajectoryDataset
from repro.serving import DecodeSession, GreedyEmission, decode_model
from reference_paths import reference_kernels


@pytest.fixture(scope="module")
def lte(tiny_config, ragged_dataset, tiny_mask):
    """A briefly-trained model: real decision margins, so argmax
    contracts are exercised away from degenerate 1-ULP ties."""
    from repro.core.training import LocalTrainer, TrainingConfig

    model = LTEModel(tiny_config, np.random.default_rng(0))
    trainer = LocalTrainer(model, tiny_mask, TrainingConfig(epochs=2, batch_size=8),
                           np.random.default_rng(1))
    trainer.train_epochs(ragged_dataset)
    model.eval()
    return model


def _decode(model, batch, log_mask, *, packed, decode_batch=None):
    """The packed serving decode, or with ``packed=False`` the padded
    full-length oracle (the model's own inference forward)."""
    with nn.no_grad():
        if not packed:
            return model(batch, log_mask, teacher_forcing=False)
        return decode_model(model, batch, log_mask, decode_batch=decode_batch)


def _assert_valid_steps_bitwise(packed, padded, batch):
    valid = batch.tgt_mask
    np.testing.assert_array_equal(packed.segments[valid],
                                  padded.segments[valid])
    np.testing.assert_array_equal(packed.ratios.data[valid],
                                  padded.ratios.data[valid])
    np.testing.assert_array_equal(packed.log_probs.data[valid],
                                  padded.log_probs.data[valid])


class TestPackedVsPadded:
    @pytest.mark.parametrize("sparse", [True, False])
    def test_lte_bitwise_on_valid_steps(self, lte, ragged_dataset, tiny_mask,
                                        sparse):
        batch = ragged_dataset.full_batch()
        log_mask = (tiny_mask.build_for(batch, lte) if sparse
                    else tiny_mask.build(batch))
        packed = _decode(lte, batch, log_mask, packed=True)
        padded = _decode(lte, batch, log_mask, packed=False)
        _assert_valid_steps_bitwise(packed, padded, batch)

    def test_padding_steps_are_zero_filled(self, lte, ragged_dataset, tiny_mask):
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        packed = _decode(lte, batch, log_mask, packed=True)
        padding = ~batch.tgt_mask
        assert padding.any(), "the ragged fixture must produce padding"
        assert (packed.segments[padding] == 0).all()
        assert (packed.ratios.data[padding] == 0.0).all()
        assert (packed.log_probs.data[padding] == 0.0).all()

    @pytest.mark.parametrize("model_cls", [RNNRecoveryModel, MTrajRecModel,
                                           RNTrajRecModel])
    def test_baselines_bitwise_on_valid_steps(self, model_cls, tiny_config,
                                              tiny_world, ragged_dataset,
                                              tiny_mask):
        if model_cls is RNTrajRecModel:
            model = model_cls(tiny_config, np.random.default_rng(1),
                              tiny_world.network)
        else:
            model = model_cls(tiny_config, np.random.default_rng(1))
        model.eval()
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build(batch)  # baselines are dense-mask models
        packed = _decode(model, batch, log_mask, packed=True)
        program = model.decode_program(batch, log_mask)
        with nn.no_grad():
            padded = DecodeSession().run(program, batch)  # full lengths
        valid = batch.tgt_mask
        np.testing.assert_array_equal(packed.segments[valid],
                                      padded.segments[valid])
        np.testing.assert_array_equal(packed.ratios.data[valid],
                                      padded.ratios[valid])
        np.testing.assert_array_equal(packed.log_probs.data[valid],
                                      padded.log_probs[valid])

    @pytest.mark.parametrize("model_cls", [RNNRecoveryModel, MTrajRecModel,
                                           RNTrajRecModel])
    def test_baselines_match_tape_reference(self, model_cls, tiny_config,
                                            tiny_world, ragged_dataset,
                                            tiny_mask, float_tol):
        """The engine vs the per-step tape loop: same fusion-style
        contract as the LTE kernels — argmax segments identical, values
        to 1e-10 (the engine's packing-stable single-output heads agree
        with the tape's BLAS mat-vecs to ~1 ULP, not bit-for-bit)."""
        if model_cls is RNTrajRecModel:
            model = model_cls(tiny_config, np.random.default_rng(1),
                              tiny_world.network)
        else:
            model = model_cls(tiny_config, np.random.default_rng(1))
        model.eval()
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        packed = _decode(model, batch, log_mask, packed=True)
        # Gradients on: the per-step tape loop, not the engine.
        tape = model(batch, log_mask, teacher_forcing=False)
        assert tape.log_probs.requires_grad
        valid = batch.tgt_mask
        np.testing.assert_array_equal(packed.segments[valid],
                                      tape.segments[valid])
        tol = max(float_tol, 1e-10)  # 1e-10 contract at float64 compute
        np.testing.assert_allclose(packed.log_probs.data[valid],
                                   tape.log_probs.data[valid], atol=tol)
        np.testing.assert_allclose(packed.ratios.data[valid],
                                   tape.ratios.data[valid], atol=tol)

    def test_empty_radius_fallback_rows(self, lte, ragged_dataset, tiny_mask):
        """Empty mask rows (no segment in radius) take the sparse
        uniform-fallback leg; they must survive packing bit-exactly and
        agree with the equivalent dense all-floor rows."""
        batch = ragged_dataset.full_batch()
        sparse_mask = tiny_mask.build_sparse(batch)
        emptied = np.arange(0, sparse_mask.n_rows, 7)
        lens = np.diff(sparse_mask.indptr).copy()
        keep = np.ones(sparse_mask.nnz, dtype=bool)
        for r in emptied:
            keep[sparse_mask.indptr[r]:sparse_mask.indptr[r + 1]] = False
            lens[r] = 0
        indptr = np.zeros(sparse_mask.n_rows + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        from repro.core.mask import SparseConstraintMask
        doctored = SparseConstraintMask(
            sparse_mask.shape, indptr, sparse_mask.indices[keep],
            sparse_mask.log_values[keep], floor=sparse_mask.floor)
        assert (np.diff(doctored.indptr) == 0).any()
        packed = _decode(lte, batch, doctored, packed=True)
        padded = _decode(lte, batch, doctored, packed=False)
        _assert_valid_steps_bitwise(packed, padded, batch)
        dense = _decode(lte, batch, doctored.to_dense(), packed=True)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(packed.segments[valid],
                                      dense.segments[valid])

    def test_fused_off_falls_back_to_reference(self, lte, ragged_dataset,
                                               tiny_mask, float_tol):
        """Under the per-step reference kernels there is no LTE decode
        program; the serving layer must fall back to the per-step tape
        decode and still agree with the packed path at the fusion
        tolerance."""
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        packed = _decode(lte, batch, log_mask, packed=True)
        with reference_kernels():
            assert lte.decode_program(batch, log_mask) is None
            reference = _decode(lte, batch, log_mask, packed=True)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(packed.segments[valid],
                                      reference.segments[valid])
        tol = max(float_tol, 1e-10)  # 1e-10 contract at float64 compute
        np.testing.assert_allclose(packed.log_probs.data[valid],
                                   reference.log_probs.data[valid], atol=tol)
        np.testing.assert_allclose(packed.ratios.data[valid],
                                   reference.ratios.data[valid], atol=tol)


class TestPerTrajectoryProperty:
    def test_per_trajectory_working_sets_match_packed(self, lte, ragged_dataset,
                                                      tiny_mask):
        """Per-trajectory decode in the serving sense — every row
        stepped in its own working set (``decode_batch=1``) over the
        same request batch — holds the argmax contract against the
        packed whole-set decode, and values to 1e-10 (a 1-row working
        set runs different BLAS kernels, so bitwise equality is not
        promised there)."""
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        packed = _decode(lte, batch, log_mask, packed=True)
        solo = _decode(lte, batch, log_mask, packed=True, decode_batch=1)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(packed.segments[valid],
                                      solo.segments[valid])
        np.testing.assert_allclose(packed.log_probs.data[valid],
                                   solo.log_probs.data[valid], atol=1e-10)
        np.testing.assert_allclose(packed.ratios.data[valid],
                                   solo.ratios.data[valid], atol=1e-10)

    def test_solo_batch_matches_packed_row(self, lte, ragged_dataset,
                                           tiny_mask):
        """Decoding a trajectory as its own one-row *batch* agrees with
        its row in the packed batch, up to numerically tied emissions.

        Restricted to full-length examples: the step-fraction feature
        normalises by the batch's padded width (a property of the
        feature definition, not the engine), so shorter rows see
        different inputs in differently-padded batches.  Where two
        candidate segments tie to ~1 ULP, the solo argmax may pick the
        twin and feedback legitimately diverges — asserted as: outputs
        match to 1e-10 until the first divergence, and any divergence
        is a sub-1e-9 tie."""
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        packed = _decode(lte, batch, log_mask, packed=True)
        full_rows = [i for i, e in enumerate(ragged_dataset.examples)
                     if e.full_length == batch.steps]
        assert full_rows, "the ragged fixture needs max-length examples"
        ties = 0
        for i in full_rows:
            example = ragged_dataset.examples[i]
            single = TrajectoryDataset([example], ragged_dataset.grid,
                                       ragged_dataset.network,
                                       ragged_dataset.keep_ratio)
            sb = single.full_batch()
            sm = tiny_mask.build_for(sb, lte)
            solo = _decode(lte, sb, sm, packed=True)
            for t in range(example.full_length):
                ps = int(packed.segments[i, t])
                ss = int(solo.segments[0, t])
                if ps != ss:
                    lp = solo.log_probs.data[0, t]
                    assert abs(lp[ps] - lp[ss]) < 1e-9, (
                        f"example {i} step {t}: packed chose {ps}, solo "
                        f"chose {ss}, and they are not numerically tied")
                    ties += 1
                    break  # feedback diverges legitimately from here
                np.testing.assert_allclose(
                    packed.log_probs.data[i, t], solo.log_probs.data[0, t],
                    atol=1e-10, err_msg=f"example {i} step {t}")
                np.testing.assert_allclose(
                    packed.ratios.data[i, t], solo.ratios.data[0, t],
                    atol=1e-10, err_msg=f"example {i} step {t}")
        assert ties <= max(1, len(full_rows) // 2)


class TestDecodeBatchChunking:
    @pytest.mark.parametrize("decode_batch", [2, 3, 5])
    def test_chunked_is_bitwise(self, lte, ragged_dataset, tiny_mask,
                                decode_batch):
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        whole = _decode(lte, batch, log_mask, packed=True)
        chunked = _decode(lte, batch, log_mask, packed=True,
                          decode_batch=decode_batch)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(whole.segments[valid],
                                      chunked.segments[valid])
        np.testing.assert_array_equal(whole.log_probs.data[valid],
                                      chunked.log_probs.data[valid])
        np.testing.assert_array_equal(whole.ratios.data[valid],
                                      chunked.ratios.data[valid])

    def test_trailing_one_row_chunk_is_folded(self, lte, ragged_dataset,
                                              tiny_mask):
        """A decode_batch that leaves a one-row remainder must not drop
        that row into GEMV kernels: the engine folds it into the
        previous chunk, keeping the bitwise contract."""
        batch = ragged_dataset.full_batch()
        assert batch.size % (batch.size - 1) == 1  # remainder of exactly 1
        log_mask = tiny_mask.build_for(batch, lte)
        whole = _decode(lte, batch, log_mask, packed=True)
        folded = _decode(lte, batch, log_mask, packed=True,
                         decode_batch=batch.size - 1)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(whole.segments[valid],
                                      folded.segments[valid])
        np.testing.assert_array_equal(whole.log_probs.data[valid],
                                      folded.log_probs.data[valid])
        np.testing.assert_array_equal(whole.ratios.data[valid],
                                      folded.ratios.data[valid])

    def test_single_row_chunks_are_bitwise(self, lte, ragged_dataset,
                                           tiny_mask):
        """Contract upgrade: decode_batch=1 working sets carry a
        duplicated-row self-ballast, so each trajectory runs the same
        GEMM kernels as inside the packed set — bit-identical, not
        merely 1e-10-close (what lets the continuous batcher prove
        solo-vs-batched equality)."""
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        whole = _decode(lte, batch, log_mask, packed=True)
        single = _decode(lte, batch, log_mask, packed=True, decode_batch=1)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(whole.segments[valid],
                                      single.segments[valid])
        np.testing.assert_array_equal(whole.log_probs.data[valid],
                                      single.log_probs.data[valid])
        np.testing.assert_array_equal(whole.ratios.data[valid],
                                      single.ratios.data[valid])

    def test_single_row_chunks_hold_argmax_contract(self, lte, ragged_dataset,
                                                    tiny_mask):
        """The weaker historical decode_batch=1 contract (argmax +
        1e-10 values), kept as a regression canary."""
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        whole = _decode(lte, batch, log_mask, packed=True)
        single = _decode(lte, batch, log_mask, packed=True, decode_batch=1)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(whole.segments[valid],
                                      single.segments[valid])
        np.testing.assert_allclose(whole.log_probs.data[valid],
                                   single.log_probs.data[valid], atol=1e-10)
        np.testing.assert_allclose(whole.ratios.data[valid],
                                   single.ratios.data[valid], atol=1e-10)


class TestEngineMechanics:
    def test_packed_does_less_work_on_ragged_lengths(self, lte, ragged_dataset,
                                                     tiny_mask):
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        program = lte.decode_program(batch, log_mask)
        lengths = batch.tgt_mask.sum(axis=1)
        with nn.no_grad():
            result = DecodeSession().run(program, batch, lengths=lengths)
        assert result.work_rows < result.dense_rows
        # Ballast rows may pad the true minimum, but never by more than
        # one row per step.
        assert result.work_rows >= int(lengths.sum())
        assert result.work_rows <= int(lengths.sum()) + batch.steps

    def test_full_lengths_equal_dense_work(self, lte, ragged_dataset, tiny_mask):
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        program = lte.decode_program(batch, log_mask)
        with nn.no_grad():
            result = DecodeSession().run(program, batch)
        assert result.work_rows == result.dense_rows

    def test_length_validation(self, lte, ragged_dataset, tiny_mask):
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        program = lte.decode_program(batch, log_mask)
        with pytest.raises(ValueError):
            DecodeSession().run(program, batch,
                                lengths=np.array([1]))  # wrong shape
        too_long = np.full(batch.size, batch.steps + 1)
        with pytest.raises(ValueError):
            DecodeSession().run(program, batch, lengths=too_long)
        with pytest.raises(ValueError):
            DecodeSession(decode_batch=0)

    def test_emission_policy_is_pluggable(self, lte, ragged_dataset, tiny_mask):
        """A non-greedy policy changes what is emitted without touching
        the engine loop — the beam-ready seam."""

        class SecondBest(GreedyEmission):
            def select(self, log_probs):
                order = np.argsort(log_probs, axis=-1)
                return order[:, -2].astype(np.int64)

        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build_for(batch, lte)
        greedy = _decode(lte, batch, log_mask, packed=True)
        program = lte.decode_program(batch, log_mask)
        with nn.no_grad():
            second = DecodeSession(policy=SecondBest()).run(
                program, batch, lengths=batch.tgt_mask.sum(axis=1))
        valid = batch.tgt_mask
        assert (greedy.segments[valid] != second.segments[valid]).any()

    def test_sparse_step_row_slicing(self, ragged_dataset, tiny_mask):
        batch = ragged_dataset.full_batch()
        sparse = tiny_mask.build_sparse(batch)
        dense = sparse.to_dense()
        rows = np.array([4, 1, 3])
        for t in (0, 2):
            sliced = sparse.step(t, rows)
            assert sliced.shape == (rows.size, dense.shape[-1])
            np.testing.assert_array_equal(sliced.to_dense(), dense[rows, t, :])
