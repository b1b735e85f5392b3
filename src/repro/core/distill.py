"""Meta-knowledge enhanced local training (paper Algorithm 2, Eq. 16-18).

A pre-trained teacher (meta-learner) guides each client's local model
through knowledge distillation: the student is penalised for deviating
from the teacher's outputs, with a weight ``lambda`` that adapts to how
much better the teacher performs on the client's validation data.

The paper's Eq. 18 reads ``lambda <- -lambda0 * 10^(min(1, (acc_tea -
acc_stu) * 5) - 1)``; the minus sign is an evident typo (a negative
lambda would *reward* deviating from a good teacher, and the text says
"the better the teacher ... the larger the value of lambda"), so we use
the positive magnitude.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from .. import nn
from ..data.dataset import Batch, TrajectoryDataset
from ..nn.tensor import Tensor
from .base import ModelOutput, RecoveryModel
from .mask import ConstraintMaskBuilder
from .training import model_segment_accuracy

__all__ = ["MetaKnowledgeDistiller", "dynamic_lambda"]


def dynamic_lambda(lambda0: float, acc_teacher: float, acc_student: float,
                   lt: float) -> float:
    """The adaptive distillation weight of Algorithm 2 / Eq. 18.

    Returns 0 when the teacher is no better than the student *and* the
    student is still below the knowledge threshold ``lt`` (Algorithm 2
    line 8-9); otherwise scales ``lambda0`` by
    ``10^(min(1, (acc_tea - acc_stu) * 5) - 1)`` so a much better
    teacher contributes up to ``lambda0`` and an equal teacher
    contributes ``0.1 * lambda0``.
    """
    if lambda0 < 0:
        raise ValueError("lambda0 must be non-negative")
    if acc_teacher <= acc_student and acc_student < lt:
        return 0.0
    exponent = min(1.0, (acc_teacher - acc_student) * 5.0) - 1.0
    return lambda0 * 10.0**exponent


class MetaKnowledgeDistiller:
    """Wraps a frozen teacher model for knowledge distillation.

    Parameters
    ----------
    teacher:
        The pre-trained meta-learner (an :class:`~repro.core.lte.LTEModel`
        in LightTR; any :class:`RecoveryModel` works).
    mask_builder:
        Constraint-mask builder shared with the students.
    lambda0:
        Base distillation weight (paper default 5, Figure 8a).
    lt:
        Validation-accuracy threshold of the lambda gate (paper best
        value 0.4, Figure 8b).
    """

    def __init__(self, teacher: RecoveryModel, mask_builder: ConstraintMaskBuilder,
                 lambda0: float = 5.0, lt: float = 0.4, dynamic: bool = True):
        self.teacher = teacher
        self.mask_builder = mask_builder
        self.lambda0 = lambda0
        self.lt = lt
        self.dynamic = dynamic  # False = fixed lambda0 (design ablation)
        self.teacher.eval()
        # valid split -> (teacher fingerprint, compute dtype, acc_teacher).
        # acc_teacher is a pure function of that key, so the frozen
        # teacher is decoded once per client, not once per client-round.
        # Weak keys: a collected split can never alias a new one through
        # a recycled id(), and the memo never keeps a split alive.
        self._teacher_accuracy = weakref.WeakKeyDictionary()

    def lambda_for_client(self, student: RecoveryModel,
                          valid_set: TrajectoryDataset) -> float:
        """Algorithm 2 lines 6-12: evaluate both models, derive lambda.

        The student is decoded on every call.  The teacher is decoded
        only on the first call for ``valid_set``, or again when its
        parameter bytes or the compute dtype have changed since: the
        memoised ``acc_teacher`` is served only under the same teacher
        fingerprint and dtype, so a teacher trained in place or cast to
        another precision is re-evaluated.

        With ``dynamic=False`` the Eq. 18 schedule is bypassed and the
        fixed base weight ``lambda0`` is used (the ablation that shows
        why the adaptive schedule matters); nothing is evaluated.
        """
        if not self.dynamic:
            return self.lambda0
        acc_teacher = self._teacher_accuracy_on(valid_set)
        acc_student = model_segment_accuracy(student, self.mask_builder, valid_set)
        return dynamic_lambda(self.lambda0, acc_teacher, acc_student, self.lt)

    def _teacher_accuracy_on(self, valid_set: TrajectoryDataset) -> float:
        fingerprint = self._teacher_fingerprint()
        dtype = nn.get_compute_dtype()
        cached = self._teacher_accuracy.get(valid_set)
        if cached is not None and cached[:2] == (fingerprint, dtype):
            return cached[2]
        accuracy = model_segment_accuracy(self.teacher, self.mask_builder, valid_set)
        self._teacher_accuracy[valid_set] = (fingerprint, dtype, accuracy)
        return accuracy

    def _teacher_fingerprint(self) -> bytes:
        """Digest of the teacher's parameter bytes (dtype and shape
        included), recomputed per call: no in-place write can go stale."""
        digest = hashlib.sha256()
        for param in self.teacher.parameters():
            data = np.ascontiguousarray(param.data)
            digest.update(f"{data.dtype.str}{data.shape}".encode())
            digest.update(data)
        return digest.digest()

    def distillation_term(self, student_output: ModelOutput, batch: Batch,
                          log_mask) -> Tensor:
        """Paper Eq. 16: ``||f_tea(T) - f_stu(T)||^2``.

        Both heads are matched: the student's segment probability
        distribution and moving ratios are pulled toward the teacher's.
        The teacher runs without gradient tracking.  ``log_mask`` is
        whatever the student trained with (dense or sparse); it is
        densified if this teacher cannot consume sparse masks.
        """
        if (not isinstance(log_mask, np.ndarray)
                and not getattr(self.teacher, "supports_sparse_mask", False)):
            log_mask = log_mask.to_dense()
        with nn.no_grad():
            teacher_out = self.teacher(batch, log_mask, teacher_forcing=True)
        prob_term = nn.mse_loss(student_output.probs(),
                                teacher_out.probs().detach())
        ratio_term = nn.mse_loss(student_output.ratios,
                                 teacher_out.ratios.detach())
        return prob_term + ratio_term
