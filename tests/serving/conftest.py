"""Shared fixtures for the serving-layer suites.

One briefly-trained LTE model plus a ragged-length dataset and
single-trajectory request builders — the raw material of the
continuous-batching and service tests.  Kept in a conftest so the
scheduler, service, and property suites share one training run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import LTEModel
from repro.core.training import LocalTrainer, TrainingConfig
from repro.data import TrajectoryDataset
from repro.data.trajectory import MatchedTrajectory
from repro.serving import decode_model

#: Uneven trajectory lengths so working sets retire rows at staggered
#: steps (the continuous-batching admission opportunity).
SERVING_LENGTHS = (5, 9, 17, 12, 7, 15, 4, 11)


@pytest.fixture(scope="package")
def serving_dataset(tiny_world):
    trimmed = []
    for i, traj in enumerate(tiny_world.matched):
        n = SERVING_LENGTHS[i % len(SERVING_LENGTHS)]
        trimmed.append(MatchedTrajectory(traj.traj_id, traj.driver_id,
                                         traj.epsilon, traj.points[:n]))
    return TrajectoryDataset.from_matched(trimmed, tiny_world.grid,
                                          tiny_world.network, keep_ratio=0.25)


@pytest.fixture(scope="package")
def served_lte(tiny_config, serving_dataset, tiny_mask):
    """A briefly-trained model: real decision margins, so bitwise
    contracts are exercised away from degenerate 1-ULP ties."""
    model = LTEModel(tiny_config, np.random.default_rng(0))
    trainer = LocalTrainer(model, tiny_mask,
                           TrainingConfig(epochs=2, batch_size=8),
                           np.random.default_rng(1))
    trainer.train_epochs(serving_dataset)
    model.eval()
    return model


@pytest.fixture(scope="package")
def make_request(serving_dataset, tiny_mask):
    """Build one request: ``(batch, log_mask)`` for a subset of the
    dataset's trajectories.  The mask is the one ``build_for`` gives the
    model, or with ``sparse=False`` the dense ``build`` oracle."""

    def build(indices, model, *, sparse=True):
        examples = [serving_dataset.examples[i] for i in indices]
        batch = TrajectoryDataset(examples, serving_dataset.grid,
                                  serving_dataset.network,
                                  serving_dataset.keep_ratio).full_batch()
        if not sparse:
            return batch, tiny_mask.build(batch)
        return batch, tiny_mask.build_for(batch, model)

    return build


@pytest.fixture(scope="package")
def solo_reference(make_request):
    """Memoised solo references.

    ``get(model, indices, sparse=..., padded=...)`` returns
    ``(batch, log_mask, output)``: the request built by
    ``make_request(..., sparse=sparse)`` and decoded alone — through
    :func:`decode_model`, or with ``padded=True`` through the model's
    own padded full-length ``forward(teacher_forcing=False)``.  The
    ground truth every continuous-batching result must match
    bit-for-bit on its valid steps.
    """
    cache: dict = {}

    def get(model, indices, *, sparse=True, padded=False):
        # Keyed on the model object itself (not id()): the reference
        # pins the model, so a recycled id can never alias the cache.
        key = (model, tuple(indices), sparse, padded)
        if key not in cache:
            batch, log_mask = make_request(indices, model, sparse=sparse)
            with nn.no_grad():
                output = (model(batch, log_mask, teacher_forcing=False)
                          if padded else decode_model(model, batch, log_mask))
            cache[key] = (batch, log_mask, output)
        return cache[key]

    return get
