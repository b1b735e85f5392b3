"""Serving-layer call sites: recovery, evaluation, and fallbacks.

The packed decode engine must be invisible to downstream consumers:
identical recoveries and metric rows whether packed or padded, chunked
or not — and models without a decode program (FC) keep working through
the fallback path.  The padded side patches each call site's
``decode_model`` with the padded full-length oracle (the model's own
inference forward).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.baselines.fc import FCRecoveryModel
from repro.core import LTEModel, TrajectoryRecovery
from repro.core import recovery as recovery_module
from repro.core import training as training_module
from repro.core.training import model_segment_accuracy
from repro.data import TrajectoryDataset
from repro.metrics import evaluate_model
from repro.metrics import evaluation as evaluation_module
from repro.serving import decode_model


def _padded_decode(model, batch, log_mask, **_):
    """The padded full-length oracle, in ``decode_model``'s signature."""
    with nn.no_grad():
        return model(batch, log_mask, teacher_forcing=False)


@pytest.fixture(scope="module")
def recovery(tiny_config, tiny_mask, ragged_dataset):
    """Recovery over a briefly-trained model: real decision margins, so
    different request batchings agree exactly instead of riding 1-ULP
    argmax ties of random weights."""
    from repro.core.training import LocalTrainer, TrainingConfig

    model = LTEModel(tiny_config, np.random.default_rng(0))
    trainer = LocalTrainer(model, tiny_mask, TrainingConfig(epochs=2, batch_size=8),
                           np.random.default_rng(1))
    trainer.train_epochs(ragged_dataset)
    return TrajectoryRecovery(model, tiny_mask)


class TestRecoverySite:
    def test_predict_batch_packed_equals_padded(self, recovery, ragged_dataset,
                                                monkeypatch):
        batch = ragged_dataset.full_batch()
        packed = recovery.predict_batch(batch)
        monkeypatch.setattr(recovery_module, "decode_model", _padded_decode)
        padded = recovery.predict_batch(batch)
        valid = batch.tgt_mask
        np.testing.assert_array_equal(packed[0][valid], padded[0][valid])
        np.testing.assert_array_equal(packed[1][valid], padded[1][valid])

    def test_recover_dataset_chunked_equals_unchunked(self, recovery,
                                                      ragged_dataset):
        """decode_batch chunks the *decode* inside one collated batch
        (never the collation, which would change the step-feature
        geometry), so it is a pure memory knob: results are identical."""
        whole = recovery.recover_dataset(ragged_dataset)
        chunked = recovery.recover_dataset(ragged_dataset, decode_batch=3)
        assert len(whole) == len(chunked) == len(ragged_dataset)
        for a, b in zip(whole, chunked):
            assert a.traj_id == b.traj_id
            assert a.recovered_indices == b.recovered_indices
            assert [p.segment_id for p in a.trajectory.points] == \
                [p.segment_id for p in b.trajectory.points]
            assert [p.ratio for p in a.trajectory.points] == \
                [p.ratio for p in b.trajectory.points]

    def test_recover_dataset_reuses_collation_cache(self, recovery,
                                                    ragged_dataset):
        """Repeated recovery passes must hit the memoised full-batch
        collation, not re-pad: a second pass adds no cache entries."""
        ragged_dataset.clear_batch_cache()
        recovery.recover_dataset(ragged_dataset, decode_batch=3)
        cached = set(ragged_dataset._batch_cache)
        assert cached, "first pass must populate the collation cache"
        recovery.recover_dataset(ragged_dataset, decode_batch=3)
        recovery.recover_dataset(ragged_dataset)
        assert set(ragged_dataset._batch_cache) == cached

    def test_recover_empty_dataset(self, recovery, ragged_dataset):
        empty = TrajectoryDataset([], ragged_dataset.grid,
                                  ragged_dataset.network,
                                  ragged_dataset.keep_ratio)
        assert recovery.recover_dataset(empty, decode_batch=4) == []


class TestEvaluationSite:
    def test_evaluate_model_packed_equals_padded(self, tiny_config, tiny_mask,
                                                 ragged_dataset, monkeypatch):
        model = LTEModel(tiny_config, np.random.default_rng(3))
        packed = evaluate_model(model, tiny_mask, ragged_dataset)
        monkeypatch.setattr(evaluation_module, "decode_model", _padded_decode)
        padded = evaluate_model(model, tiny_mask, ragged_dataset)
        assert packed == padded

    def test_evaluate_model_decode_batch_is_neutral(self, tiny_config,
                                                    tiny_mask, ragged_dataset):
        model = LTEModel(tiny_config, np.random.default_rng(3))
        whole = evaluate_model(model, tiny_mask, ragged_dataset)
        chunked = evaluate_model(model, tiny_mask, ragged_dataset,
                                 decode_batch=2)
        assert whole == chunked

    def test_segment_accuracy_packed_equals_padded(self, tiny_config, tiny_mask,
                                                   ragged_dataset, monkeypatch):
        model = LTEModel(tiny_config, np.random.default_rng(4))
        packed = model_segment_accuracy(model, tiny_mask, ragged_dataset)
        monkeypatch.setattr(training_module, "decode_model", _padded_decode)
        padded = model_segment_accuracy(model, tiny_mask, ragged_dataset)
        assert packed == padded


class TestFallbacks:
    def test_fc_has_no_program_and_falls_back(self, tiny_config, tiny_mask,
                                              ragged_dataset):
        model = FCRecoveryModel(tiny_config, np.random.default_rng(5))
        model.eval()
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        assert model.decode_program(batch, log_mask) is None
        with nn.no_grad():
            engine = decode_model(model, batch, log_mask)
            direct = model(batch, log_mask, teacher_forcing=False)
        np.testing.assert_array_equal(engine.segments, direct.segments)
        np.testing.assert_array_equal(engine.ratios.data, direct.ratios.data)

    def test_grad_mode_keeps_tape_decode(self, tiny_config, tiny_mask,
                                         ragged_dataset):
        """With gradients enabled the packed path must not engage — the
        tape decode is the only differentiable one."""
        model = LTEModel(tiny_config, np.random.default_rng(6))
        batch = ragged_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        output = model(batch, log_mask, teacher_forcing=False)
        assert output.log_probs.requires_grad
        output.log_probs.sum().backward()  # must not raise
