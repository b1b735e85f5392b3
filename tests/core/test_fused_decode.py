"""Equivalence of the fused LTE decode paths with the per-step reference.

Covers the fused teacher-forced whole-sequence decode (training hot
path), the tape-free autoregressive decode (inference hot path), and
the vectorized constraint-mask batch build.  The per-step side runs
under ``reference_paths.reference_kernels``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import ConstraintMaskBuilder
from repro.core.lte import LTEModel
from reference_paths import reference_kernels


@pytest.fixture(scope="module")
def setup(tiny_config, tiny_world, tiny_dataset):
    model = LTEModel(tiny_config, np.random.default_rng(0))
    builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
    batch = tiny_dataset.full_batch()
    log_mask = builder.build(batch)
    return model, batch, log_mask


@pytest.fixture(scope="module")
def fusion_tols():
    """Audited fused-vs-stepwise tolerances per compute dtype.

    float64 keeps the historical 1e-10 contract.  float32 measured
    (tiny world, untrained LTE): log-probs ≤ 4e-6, ratios/loss ≤ 3e-7,
    grads ≤ 3e-8 — the audited bounds below carry ~25x margin.  Argmax
    segments stay bit-equal at both precisions (margins dwarf rounding).
    """
    if nn.get_compute_dtype() == np.dtype(np.float64):
        return {"values": 1e-10, "loss": 1e-10, "grads": 1e-8}
    return {"values": 1e-4, "loss": 1e-5, "grads": 1e-6}


def _teacher_forced(model, batch, log_mask, fused):
    with reference_kernels(not fused):
        model.zero_grad()
        output = model(batch, log_mask, teacher_forcing=True)
        loss, parts = model.loss(output, batch)
        loss.backward()
    return output, loss.item(), {
        name: p.grad.copy() for name, p in model.named_parameters()
    }


class TestTeacherForcedEquivalence:
    def test_outputs_losses_and_gradients_match(self, setup, fusion_tols):
        model, batch, log_mask = setup
        fused_out, fused_loss, fused_grads = _teacher_forced(
            model, batch, log_mask, fused=True)
        step_out, step_loss, step_grads = _teacher_forced(
            model, batch, log_mask, fused=False)

        np.testing.assert_allclose(fused_out.log_probs.data,
                                   step_out.log_probs.data,
                                   atol=fusion_tols["values"])
        np.testing.assert_allclose(fused_out.ratios.data,
                                   step_out.ratios.data,
                                   atol=fusion_tols["values"])
        np.testing.assert_array_equal(fused_out.segments, step_out.segments)
        assert abs(fused_loss - step_loss) < fusion_tols["loss"]
        for name, grad in fused_grads.items():
            np.testing.assert_allclose(grad, step_grads[name],
                                       atol=fusion_tols["grads"],
                                       err_msg=name)

    @pytest.mark.parametrize("encoder", ["gru", "lstm", "rnn"])
    def test_all_encoder_variants(self, tiny_config, setup, encoder,
                                  fusion_tols):
        import dataclasses
        _, batch, log_mask = setup
        config = dataclasses.replace(tiny_config, encoder=encoder)
        model = LTEModel(config, np.random.default_rng(1))
        fused_out, fused_loss, _ = _teacher_forced(model, batch, log_mask, True)
        step_out, step_loss, _ = _teacher_forced(model, batch, log_mask, False)
        np.testing.assert_allclose(fused_out.log_probs.data,
                                   step_out.log_probs.data,
                                   atol=fusion_tols["values"])
        assert abs(fused_loss - step_loss) < fusion_tols["loss"]


class TestInferenceEquivalence:
    def test_tape_free_decode_matches_stepwise(self, setup, fusion_tols):
        model, batch, log_mask = setup
        results = {}
        for fused in (True, False):
            with reference_kernels(not fused), nn.no_grad():
                output = model(batch, log_mask, teacher_forcing=False)
            results[fused] = output
        np.testing.assert_allclose(results[True].log_probs.data,
                                   results[False].log_probs.data,
                                   atol=fusion_tols["values"])
        np.testing.assert_allclose(results[True].ratios.data,
                                   results[False].ratios.data,
                                   atol=fusion_tols["values"])
        np.testing.assert_array_equal(results[True].segments,
                                      results[False].segments)


class TestVectorizedMaskBuild:
    def test_build_matches_reference(self, tiny_world, tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        np.testing.assert_array_equal(builder.build(batch),
                                      builder.build_reference(batch))

    def test_build_twice_is_consistent(self, tiny_world, tiny_dataset):
        """Second call exercises the all-keys-known searchsorted path."""
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        first = builder.build(batch)
        second = builder.build(batch)
        np.testing.assert_array_equal(first, second)

    def test_identity_mode(self, tiny_world, tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, identity=True)
        batch = tiny_dataset.full_batch()
        log_mask = builder.build(batch)
        assert log_mask.shape == (batch.size, batch.steps,
                                  tiny_world.network.num_segments)
        assert (log_mask == 0.0).all()

    def test_cached_rows_are_read_only(self, tiny_world):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=300.0)
        row = builder.log_mask_for_point(100.0, 100.0)
        with pytest.raises(ValueError):
            row[0] = 1.0

    def test_clear_cache_resets_gather_state(self, tiny_world, tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        before = builder.build(batch)
        builder.clear_cache()
        assert builder._enc_sorted.size == 0
        np.testing.assert_array_equal(builder.build(batch), before)
