"""The frozen teacher is decoded once per client, not once per round.

``MetaKnowledgeDistiller.lambda_for_client`` (Algorithm 2's gate)
memoises ``acc_teacher`` per validation split.  The contract under
test: exactly one teacher decode per distinct client per run, and round
histories and the final global vector bitwise equal to a distiller
that re-decodes the teacher on every call (the oracle below) — run
either through the arena or through the live-client oracle.
"""

from __future__ import annotations

import importlib

import live_client_oracle
import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.core.distill import MetaKnowledgeDistiller, dynamic_lambda
from repro.federated import (
    FederatedConfig,
    FederatedTrainer,
    RoundTask,
    TaskExecutor,
    WorkerSetup,
    build_federation,
)
from repro.nn.flatten import FlatParameterSpace

distill = importlib.import_module("repro.core.distill")


class AlwaysEvaluateDistiller(MetaKnowledgeDistiller):
    """Oracle: the gate without the memo, decoding both models per call."""

    def lambda_for_client(self, student, valid_set):
        if not self.dynamic:
            return self.lambda0
        acc_teacher = distill.model_segment_accuracy(
            self.teacher, self.mask_builder, valid_set)
        acc_student = distill.model_segment_accuracy(
            student, self.mask_builder, valid_set)
        return dynamic_lambda(self.lambda0, acc_teacher, acc_student, self.lt)


@pytest.fixture(scope="module")
def federation(tiny_world):
    return build_federation(tiny_world, num_clients=4, keep_ratio=0.25)


@pytest.fixture(scope="module")
def mask(tiny_world):
    return ConstraintMaskBuilder(tiny_world.network, radius=400.0)


@pytest.fixture()
def teacher_decodes(monkeypatch):
    """The validation splits the gate decoded a teacher on, in order.

    Counts calls to the ``model_segment_accuracy`` bound in
    ``repro.core.distill`` whose model is some distiller's teacher;
    teacher pre-training evaluates through ``repro.core.training`` and
    is not counted.
    """
    teachers = []
    decoded = []
    init = MetaKnowledgeDistiller.__init__
    evaluate = distill.model_segment_accuracy

    def tracking_init(self, teacher, *args, **kwargs):
        init(self, teacher, *args, **kwargs)
        teachers.append(teacher)

    def counting(model, mask_builder, dataset):
        if any(model is teacher for teacher in teachers):
            decoded.append(dataset)
        return evaluate(model, mask_builder, dataset)

    monkeypatch.setattr(MetaKnowledgeDistiller, "__init__", tracking_init)
    monkeypatch.setattr(distill, "model_segment_accuracy", counting)
    return decoded


def lte_factory(config):
    def factory():
        return LTEModel(config, np.random.default_rng(33))
    return factory


def run(federation, mask, tiny_config, live=False, **overrides):
    clients, global_test = federation
    config = FederatedConfig(
        rounds=3, client_fraction=0.75, local_epochs=1,
        training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
        use_meta=True, lt=0.0, **overrides,
    )
    if live:
        trainer, _ = live_client_oracle.live_trainer(
            lte_factory(tiny_config), clients, mask, config, global_test,
            seed=0)
    else:
        trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                   config, global_test, seed=0)
    result = trainer.run()
    return result.history, trainer.server.global_flat()


MODES = {
    "sync": dict(),
    "buffered-async": dict(async_buffer=2),
}


@pytest.mark.parametrize("oracle_path", ["arena", "live-clients"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_one_teacher_decode_per_client_and_bitwise_equal_to_oracle(
        federation, mask, tiny_config, teacher_decodes, monkeypatch, mode,
        oracle_path):
    """The memoised arena path against an always-evaluating oracle run
    through the arena itself or through persistent live clients."""
    with monkeypatch.context() as patch:
        for module in (importlib.import_module("repro.federated.runner"),
                       live_client_oracle):
            patch.setattr(module, "MetaKnowledgeDistiller",
                          AlwaysEvaluateDistiller)
        oracle_history, oracle_flat = run(
            federation, mask, tiny_config, live=oracle_path == "live-clients",
            **MODES[mode])
    oracle_splits = [id(split) for split in teacher_decodes]
    teacher_decodes.clear()

    history, flat = run(federation, mask, tiny_config, **MODES[mode])
    splits = [id(split) for split in teacher_decodes]

    # One decode per distinct client, and the same clients as the oracle
    # (which re-decoded on every selection).
    assert len(splits) == len(set(splits))
    assert set(splits) == set(oracle_splits)
    assert len(oracle_splits) > len(splits)
    # The gate opened (lt=0), so distillation shaped these numbers.
    assert any(record.mean_lambda > 0.0 for record in history)
    assert history == oracle_history
    assert np.array_equal(flat, oracle_flat)


def test_compute_dtype_flip_re_decodes_the_teacher(federation, mask,
                                                   tiny_config,
                                                   teacher_decodes):
    """A float64 acc_teacher cached by a long-lived executor is not
    served to a float32 task: the teacher is decoded again, and the
    gate matches a fresh executor that only ever ran float32."""
    clients, _ = federation
    teacher = LTEModel(tiny_config, np.random.default_rng(7))
    setup = WorkerSetup(
        model_factory=lte_factory(tiny_config), client_data=tuple(clients),
        mask_builder=mask, training=TrainingConfig(epochs=1, batch_size=8),
        lt=0.0,
        teacher_flat=FlatParameterSpace.from_module(teacher).get_flat(
            dtype=np.float64),
    )
    global_flat = FlatParameterSpace.from_module(
        setup.model_factory()).get_flat(dtype=np.float64)

    def task(dtype):
        return RoundTask(client_id=0, global_flat=global_flat, epochs=1,
                         teacher_flat=None, session=None,
                         use_setup_teacher=True, compute_dtype=dtype)

    executor = TaskExecutor(setup)
    first = executor.execute(task("float64")).metrics["lambda"]
    again = executor.execute(task("float64")).metrics["lambda"]
    assert first == again
    assert len(teacher_decodes) == 1  # the second float64 task hit the memo

    flipped = executor.execute(task("float32")).metrics["lambda"]
    assert len(teacher_decodes) == 2
    fresh = TaskExecutor(setup).execute(task("float32")).metrics["lambda"]
    assert flipped == fresh


def test_all_rejected_teacher_warns(federation, mask, tiny_config):
    clients, global_test = federation
    config = FederatedConfig(
        rounds=1, client_fraction=0.5, local_epochs=1,
        training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
        use_meta=True, lt=1.0,
    )
    trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                               config, global_test, seed=0)
    with pytest.warns(RuntimeWarning, match=r"accepted 0 of 4 updates") as caught:
        result = trainer.run()
    assert not any(result.teacher_result.accepted)
    [message] = [str(w.message) for w in caught
                 if "accepted 0 of" in str(w.message)]
    assert f"{max(result.teacher_result.accuracies):.4f}" in message
    assert "lt=1" in message
