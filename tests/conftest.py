"""Shared fixtures: a tiny synthetic world reused across test modules.

Compute-dtype forcing
---------------------
Setting ``REPRO_COMPUTE_DTYPE=float32`` (the CI mixed-precision leg)
runs the whole suite on the float32 compute substrate
(:func:`repro.nn.set_compute_dtype`).  Tests that assert float64-grade
contracts — finite-difference gradient checks, 1e-10 fused-vs-stepwise
equivalences, cross-representation value comparisons tighter than
float32 resolution — carry the ``float64_only`` marker and are skipped
under forcing; everything else (shapes, argmax/bitwise same-dtype
determinism, serial-vs-parallel identity, behavioural contracts) must
pass at both precisions.  The ``float_tol`` fixture gives
dtype-appropriate tolerances to tests that run at either precision.

Fault-plan forcing
------------------
Setting ``REPRO_FAULT_PLAN`` (the CI fault-injection leg, e.g.
``crash=0.08,dropout=0.08,straggler=0.05,corrupt=0.08,seed=1013``)
injects that deterministic fault schedule into every
:class:`~repro.federated.trainer.FederatedTrainer` that was not given
an explicit plan, so the degraded paths — retries, per-client drops,
upload rejection, partial aggregation — run under the whole federated
suite.  Tests that assert every-client-uploads behaviour (exact ledger
byte counts, full survivor sets) carry the ``fault_free`` marker and
are skipped under forcing; everything else must pass with faults
active.  See docs/ROBUSTNESS.md.

Exchange-codec forcing
----------------------
Setting ``REPRO_EXCHANGE_CODEC`` (the CI int8-exchange leg, e.g.
``int8``) routes every :class:`~repro.federated.trainer.FederatedTrainer`
that was not given an explicit codec through that wire codec
(:func:`repro.federated.set_exchange_codec`), so quantised broadcast /
upload payloads, error-feedback residuals and the payload byte
accounting run under the whole federated suite.  Tests that assert
lossless-float64 wire contracts — exact ledger byte counts, bitwise
sync-vs-isolated parities that only hold for the identity codec —
carry the ``identity_exchange`` marker and are skipped under forcing;
everything else must pass with quantisation active.  See
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import nn
from repro.core import ConstraintMaskBuilder, RecoveryModelConfig
from repro.data import TrajectoryDataset, geolife_like
from repro.spatial import grid_city

_FORCED_DTYPE = os.environ.get("REPRO_COMPUTE_DTYPE")
if _FORCED_DTYPE:
    nn.set_compute_dtype(_FORCED_DTYPE)


_FORCED_FAULT_PLAN = os.environ.get("REPRO_FAULT_PLAN")

# Exchange-codec forcing (the CI int8-exchange leg): validate the name
# eagerly so a typo fails collection, not the first federated test.
_FORCED_CODEC = os.environ.get("REPRO_EXCHANGE_CODEC")
if _FORCED_CODEC:
    from repro.federated import set_exchange_codec

    set_exchange_codec(_FORCED_CODEC)


def pytest_collection_modifyitems(config, items):
    if _FORCED_FAULT_PLAN:
        skip_faulty = pytest.mark.skip(
            reason=f"fault-free contract (REPRO_FAULT_PLAN forces "
                   f"{_FORCED_FAULT_PLAN!r}; see docs/ROBUSTNESS.md)")
        for item in items:
            if "fault_free" in item.keywords:
                item.add_marker(skip_faulty)
    if _FORCED_CODEC and _FORCED_CODEC != "identity":
        skip_lossy = pytest.mark.skip(
            reason=f"identity-exchange contract (REPRO_EXCHANGE_CODEC "
                   f"forces {_FORCED_CODEC!r}; see docs/PERFORMANCE.md)")
        for item in items:
            if "identity_exchange" in item.keywords:
                item.add_marker(skip_lossy)
    if np.dtype(_FORCED_DTYPE or "float64") == np.dtype(np.float64):
        return
    skip = pytest.mark.skip(
        reason=f"float64-only contract (compute dtype forced to "
               f"{_FORCED_DTYPE}; see docs/PERFORMANCE.md)")
    for item in items:
        if "float64_only" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def compute_dtype():
    """The active compute dtype (honours REPRO_COMPUTE_DTYPE forcing)."""
    return nn.get_compute_dtype()


@pytest.fixture(scope="session")
def float_tol(compute_dtype):
    """Audited absolute tolerance for value comparisons at the active
    compute dtype: float64 keeps the historical 1e-10 contract; float32
    gets 1e-5 (~100 ULP at unit scale — log-softmax chains accumulate a
    few ULP per op, verified against the float64 reference)."""
    return 1e-10 if compute_dtype == np.dtype(np.float64) else 1e-5


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_network():
    """A small strongly-connected road network."""
    return grid_city(nx=5, ny=5, spacing=200.0, drop_prob=0.0,
                     rng=np.random.default_rng(3))


@pytest.fixture(scope="session")
def tiny_world():
    """A small synthetic dataset (network + trajectories)."""
    return geolife_like(num_drivers=6, trajectories_per_driver=4,
                        points_per_trajectory=17, seed=9)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_world):
    """Encoded recovery dataset at keep ratio 25%."""
    return TrajectoryDataset.from_matched(
        tiny_world.matched, tiny_world.grid, tiny_world.network, keep_ratio=0.25
    )


@pytest.fixture(scope="session")
def tiny_config(tiny_dataset, tiny_world):
    return RecoveryModelConfig(
        num_cells=tiny_dataset.num_cells,
        num_segments=tiny_dataset.num_segments,
        cell_emb_dim=8,
        seg_emb_dim=8,
        hidden_size=16,
        num_st_blocks=2,
        dropout=0.0,
        bbox=tiny_world.network.bounding_box(),
    )


@pytest.fixture(scope="session")
def tiny_mask(tiny_world):
    return ConstraintMaskBuilder(tiny_world.network, radius=400.0)


@pytest.fixture()
def fresh_rng():
    """Per-test generator (independent of the session fixture)."""
    return np.random.default_rng(777)
