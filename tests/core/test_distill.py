"""Tests for meta-knowledge distillation (Algorithm 2, Eq. 16-18)."""

from __future__ import annotations

import dataclasses
import gc
import importlib

import numpy as np
import pytest

from repro import nn

from repro.core import (
    ConstraintMaskBuilder,
    LTEModel,
    MetaKnowledgeDistiller,
    dynamic_lambda,
)
from repro.core.training import LocalTrainer, TrainingConfig


class TestDynamicLambda:
    def test_gate_zero_when_teacher_not_better_and_student_weak(self):
        assert dynamic_lambda(5.0, acc_teacher=0.2, acc_student=0.3, lt=0.4) == 0.0

    def test_active_when_student_above_threshold(self):
        lam = dynamic_lambda(5.0, acc_teacher=0.3, acc_student=0.5, lt=0.4)
        assert lam > 0.0

    def test_equal_accuracy_gives_tenth(self):
        lam = dynamic_lambda(5.0, acc_teacher=0.6, acc_student=0.6, lt=0.4)
        assert lam == pytest.approx(0.5)  # 5 * 10^-1

    def test_much_better_teacher_saturates_at_lambda0(self):
        lam = dynamic_lambda(5.0, acc_teacher=0.9, acc_student=0.3, lt=0.4)
        assert lam == pytest.approx(5.0)  # exponent clipped at 1

    def test_monotone_in_teacher_advantage(self):
        lams = [dynamic_lambda(5.0, 0.5 + d, 0.5, lt=0.0) for d in
                (0.0, 0.05, 0.1, 0.2)]
        assert lams == sorted(lams)

    def test_negative_lambda0_rejected(self):
        with pytest.raises(ValueError):
            dynamic_lambda(-1.0, 0.5, 0.5, 0.4)


class TestDistillationTerm:
    @pytest.fixture()
    def setup(self, tiny_config, tiny_dataset, tiny_mask):
        teacher = LTEModel(tiny_config, np.random.default_rng(1))
        student = LTEModel(tiny_config, np.random.default_rng(2))
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lambda0=5.0, lt=0.4)
        return teacher, student, distiller

    def test_zero_for_identical_models(self, tiny_config, tiny_dataset, tiny_mask):
        teacher = LTEModel(tiny_config, np.random.default_rng(1))
        student = LTEModel(tiny_config, np.random.default_rng(1))
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask)
        batch = tiny_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        student.eval()  # disable dropout nondeterminism (none configured, but explicit)
        out = student(batch, log_mask)
        term = distiller.distillation_term(out, batch, log_mask)
        assert term.item() == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_different_models(self, setup, tiny_dataset, tiny_mask):
        _, student, distiller = setup
        batch = tiny_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        out = student(batch, log_mask)
        assert distiller.distillation_term(out, batch, log_mask).item() > 0.0

    def test_gradient_reaches_student_not_teacher(self, setup, tiny_dataset,
                                                  tiny_mask):
        teacher, student, distiller = setup
        batch = tiny_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        out = student(batch, log_mask)
        term = distiller.distillation_term(out, batch, log_mask)
        term.backward()
        assert any(p.grad is not None for p in student.parameters())
        assert all(p.grad is None for p in teacher.parameters())

    def test_distillation_pulls_student_toward_teacher(self, tiny_config,
                                                       tiny_dataset, tiny_mask):
        """Training the student only on the distillation term should
        shrink the student-teacher output gap."""
        from repro import nn as repro_nn

        teacher = LTEModel(tiny_config, np.random.default_rng(1))
        student = LTEModel(tiny_config, np.random.default_rng(2))
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask)
        batch = tiny_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        opt = repro_nn.Adam(student.parameters(), lr=5e-3)
        gaps = []
        for _ in range(8):
            opt.zero_grad()
            out = student(batch, log_mask)
            term = distiller.distillation_term(out, batch, log_mask)
            gaps.append(term.item())
            term.backward()
            opt.step()
        assert gaps[-1] < gaps[0]


class TestLambdaForClient:
    def test_returns_float_in_range(self, tiny_config, tiny_dataset, tiny_mask):
        teacher = LTEModel(tiny_config, np.random.default_rng(1))
        student = LTEModel(tiny_config, np.random.default_rng(2))
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lambda0=5.0)
        lam = distiller.lambda_for_client(student, tiny_dataset)
        assert 0.0 <= lam <= 5.0

    def test_trained_teacher_raises_lambda(self, tiny_config, tiny_dataset,
                                           tiny_mask):
        teacher = LTEModel(tiny_config, np.random.default_rng(1))
        trainer = LocalTrainer(teacher, tiny_mask,
                               TrainingConfig(epochs=1, batch_size=8, lr=5e-3),
                               np.random.default_rng(0))
        student = LTEModel(tiny_config, np.random.default_rng(2))
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lambda0=5.0, lt=0.0)
        before = distiller.lambda_for_client(student, tiny_dataset)
        trainer.train_epochs(tiny_dataset, epochs=6)
        after = distiller.lambda_for_client(student, tiny_dataset)
        assert after >= before


@pytest.fixture()
def teacher_decodes(monkeypatch):
    """Counts the gate's ``model_segment_accuracy`` calls per model."""
    distill = importlib.import_module("repro.core.distill")
    evaluate = distill.model_segment_accuracy
    calls = []

    def counting(model, mask_builder, dataset):
        calls.append((model, dataset))
        return evaluate(model, mask_builder, dataset)

    monkeypatch.setattr(distill, "model_segment_accuracy", counting)
    return calls


class TestTeacherAccuracyMemo:
    @pytest.fixture()
    def models(self, tiny_config):
        return (LTEModel(tiny_config, np.random.default_rng(1)),
                LTEModel(tiny_config, np.random.default_rng(2)))

    def test_teacher_decoded_once_per_split(self, models, tiny_dataset,
                                            tiny_mask, teacher_decodes):
        teacher, student = models
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lt=0.0)
        lams = [distiller.lambda_for_client(student, tiny_dataset)
                for _ in range(3)]
        assert lams[0] == lams[1] == lams[2]
        decoded = [model for model, _ in teacher_decodes]
        assert sum(model is teacher for model in decoded) == 1
        assert sum(model is student for model in decoded) == 3

    def test_each_split_is_decoded(self, models, tiny_dataset, tiny_mask,
                                   teacher_decodes):
        teacher, student = models
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lt=0.0)
        other = tiny_dataset.split((0.5, 0.5, 0.0),
                                   rng=np.random.default_rng(0))[0]
        for split in (tiny_dataset, other, tiny_dataset, other):
            distiller.lambda_for_client(student, split)
        splits = [split for model, split in teacher_decodes
                  if model is teacher]
        assert len(splits) == 2
        assert splits[0] is tiny_dataset and splits[1] is other

    def test_in_place_teacher_change_re_decodes(self, models, tiny_dataset,
                                                tiny_mask, teacher_decodes):
        teacher, student = models
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lt=0.0)
        distiller.lambda_for_client(student, tiny_dataset)
        param = next(iter(teacher.parameters()))
        param.data[(0,) * param.data.ndim] += 1.0
        distiller.lambda_for_client(student, tiny_dataset)
        assert sum(model is teacher for model, _ in teacher_decodes) == 2

    def test_compute_dtype_is_part_of_the_key(self, models, tiny_dataset,
                                              tiny_mask, teacher_decodes):
        """Flipping the compute dtype re-decodes even when the teacher's
        parameter bytes did not change."""
        teacher, student = models
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lt=0.0)
        other = "float32" if nn.get_compute_dtype() == np.float64 else "float64"
        distiller.lambda_for_client(student, tiny_dataset)
        with nn.use_compute_dtype(other):
            distiller.lambda_for_client(student, tiny_dataset)
        distiller.lambda_for_client(student, tiny_dataset)
        assert sum(model is teacher for model, _ in teacher_decodes) == 3

    def test_fixed_lambda_evaluates_nothing(self, models, tiny_dataset,
                                            tiny_mask, teacher_decodes):
        teacher, student = models
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lambda0=2.0,
                                           dynamic=False)
        assert distiller.lambda_for_client(student, tiny_dataset) == 2.0
        assert teacher_decodes == []

    def test_memo_does_not_keep_splits_alive(self, models, tiny_dataset,
                                             tiny_mask):
        teacher, student = models
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask)
        split = tiny_dataset.split((0.5, 0.5, 0.0),
                                   rng=np.random.default_rng(0))[0]
        distiller.lambda_for_client(student, split)
        assert len(distiller._teacher_accuracy) == 1
        del split
        gc.collect()
        assert len(distiller._teacher_accuracy) == 0


class TestFrozenTeacherMode:
    def test_gate_leaves_teacher_in_eval_mode(self, tiny_config, tiny_dataset,
                                              tiny_mask):
        """The gate evaluation must not switch the teacher's dropout on:
        distillation targets from a frozen teacher are deterministic."""
        config = dataclasses.replace(tiny_config, dropout=0.3)
        teacher = LTEModel(config, np.random.default_rng(1))
        student = LTEModel(config, np.random.default_rng(2))
        distiller = MetaKnowledgeDistiller(teacher, tiny_mask, lt=0.0)
        distiller.lambda_for_client(student, tiny_dataset)
        assert teacher.training is False
        assert student.training is True  # the caller's mode, restored
        batch = tiny_dataset.full_batch()
        log_mask = tiny_mask.build(batch)
        out = student(batch, log_mask)
        first = distiller.distillation_term(out, batch, log_mask).item()
        second = distiller.distillation_term(out, batch, log_mask).item()
        assert first == second
