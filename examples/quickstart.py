#!/usr/bin/env python
"""Quickstart: recover a low-sampling-rate trajectory with LightTR.

This walks the full pipeline on a small synthetic world:

1. generate a city road network and GPS trajectories,
2. map-match the raw GPS with the HMM matcher,
3. downsample to a 25% keep ratio and encode the recovery problem,
4. train a single LightTR local model (no federation yet - see
   ``federated_recovery.py`` for the full client-server protocol),
5. recover the missing points and score them with the paper's metrics.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    ConstraintMaskBuilder,
    LTEConfig,
    LTEModel,
    LocalTrainer,
    TrainingConfig,
    TrajectoryRecovery,
)
from repro.data import TrajectoryDataset, geolife_like
from repro.mapmatch import HMMMapMatcher
from repro.metrics import evaluate_model


def main() -> None:
    # 1. A synthetic world: Beijing-like street grid + heterogeneous drivers.
    world = geolife_like(num_drivers=10, trajectories_per_driver=8,
                         points_per_trajectory=33, seed=7)
    print(f"world: {len(world.matched)} trajectories, "
          f"{world.network.num_segments} road segments, "
          f"{world.grid.num_cells} grid cells")

    # 2. The HMM map matcher (preprocessing).  The generator already gives
    #    ground-truth matched trajectories; here we show the matcher doing
    #    real work on the noisy raw GPS.
    matcher = HMMMapMatcher(world.network, sigma=10.0)
    matched = matcher.match(world.raw[0])
    truth = world.matched[0]
    agreement = np.mean(matched.segment_ids == truth.segment_ids)
    print(f"HMM map matching segment agreement vs ground truth: {agreement:.1%}")

    # 3. Downsample (keep ratio 25% -> recover 3 of every 4 points) and encode.
    dataset = TrajectoryDataset.from_matched(world.matched, world.grid,
                                             world.network, keep_ratio=0.25)
    train, valid, test = dataset.split((0.7, 0.2, 0.1),
                                       rng=np.random.default_rng(0))
    print(f"split: {len(train)} train / {len(valid)} valid / {len(test)} test")

    # 4. Train one LightTR local model (LTE: GRU encoder + lightweight
    #    ST-operator with the constraint mask).
    rng = np.random.default_rng(1)
    config = LTEConfig(
        num_cells=dataset.num_cells,
        num_segments=dataset.num_segments,
        hidden_size=48, cell_emb_dim=16, seg_emb_dim=16, dropout=0.0,
        bbox=world.network.bounding_box(),
    )
    model = LTEModel(config, rng)
    mask = ConstraintMaskBuilder(world.network, radius=500.0)
    trainer = LocalTrainer(model, mask,
                           TrainingConfig(epochs=1, batch_size=16, lr=3e-3), rng)
    print(f"model: {model.num_parameters():,} parameters")
    for epoch in range(10):
        loss = trainer.train_epoch(train)
        if epoch % 3 == 0:
            acc = trainer.segment_accuracy(valid)
            print(f"  epoch {epoch:2d}: loss={loss:.3f} valid_acc={acc:.3f}")

    # 5. Recover the test trajectories and report the paper's metrics.
    row = evaluate_model(model, mask, test)
    print(f"test metrics: {row}")

    recovery = TrajectoryRecovery(model, mask)
    recovered = recovery.recover_dataset(test)[0]
    print(f"recovered trajectory {recovered.traj_id}: "
          f"{len(recovered.recovered_indices)} points restored, "
          f"segments {recovered.trajectory.segment_ids[:10].tolist()}...")


if __name__ == "__main__":
    main()
