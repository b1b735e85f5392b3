"""Tests for the synthetic trajectory generator (Geolife/T-Drive stand-ins)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate_dataset, geolife_like, tdrive_like


class TestGeneration:
    def test_counts(self):
        config = SyntheticConfig(num_drivers=4, trajectories_per_driver=3,
                                 points_per_trajectory=9)
        ds = generate_dataset(config, seed=0)
        assert len(ds.matched) == 12
        assert len(ds.raw) == 12
        assert len(ds.drivers) == 4

    def test_deterministic(self):
        config = SyntheticConfig(num_drivers=3, trajectories_per_driver=2,
                                 points_per_trajectory=9)
        a = generate_dataset(config, seed=5)
        b = generate_dataset(config, seed=5)
        assert a.matched[0].segment_ids() == b.matched[0].segment_ids()
        assert a.raw[0].points[0].x == b.raw[0].points[0].x

    def test_different_seeds_differ(self):
        config = SyntheticConfig(num_drivers=3, trajectories_per_driver=2,
                                 points_per_trajectory=9)
        a = generate_dataset(config, seed=1)
        b = generate_dataset(config, seed=2)
        assert a.raw[0].points[0].x != b.raw[0].points[0].x

    def test_ground_truth_is_on_network(self):
        ds = geolife_like(num_drivers=2, trajectories_per_driver=2,
                          points_per_trajectory=9, seed=1)
        for traj in ds.matched:
            for p in traj.points:
                assert 0 <= p.segment_id < ds.network.num_segments
                assert 0.0 <= p.ratio <= 1.0

    def test_tids_are_sequential(self):
        ds = geolife_like(num_drivers=2, trajectories_per_driver=1,
                          points_per_trajectory=9, seed=1)
        assert [p.tid for p in ds.matched[0].points] == list(range(9))

    def test_consecutive_points_reachable(self):
        """The walker moves along the network: consecutive matched points
        are within plausible route distance (speed * epsilon * slack)."""
        ds = geolife_like(num_drivers=2, trajectories_per_driver=2,
                          points_per_trajectory=9, seed=3)
        max_speed = 20.0
        for traj in ds.matched:
            for a, b in zip(traj.points, traj.points[1:]):
                d = ds.network.route_distance(a.segment_id, a.ratio,
                                              b.segment_id, b.ratio)
                assert d <= max_speed * traj.epsilon * 2.0

    def test_gps_noise_magnitude(self):
        config = SyntheticConfig(num_drivers=3, trajectories_per_driver=4,
                                 points_per_trajectory=17, gps_noise_std=10.0)
        ds = generate_dataset(config, seed=0)
        errors = []
        for raw, matched in zip(ds.raw, ds.matched):
            for rp, mp in zip(raw.points, matched.points):
                pos = mp.position(ds.network)
                errors.append(np.hypot(rp.x - pos.x, rp.y - pos.y))
        # Mean of |N(0,10)| 2-D error is ~12.5 m.
        assert 5.0 < np.mean(errors) < 25.0

    def test_grid_covers_all_raw_points(self):
        ds = tdrive_like(num_drivers=3, trajectories_per_driver=2,
                         points_per_trajectory=9, seed=2)
        from repro.spatial import Point
        for raw in ds.raw:
            for p in raw.points:
                assert 0 <= ds.grid.cell_id(Point(p.x, p.y)) < ds.grid.num_cells

    def test_invalid_config(self):
        for bad in [
            {"num_drivers": 0},
            {"points_per_trajectory": 2},
            {"home_concentration": 1.5},
            {"trajectories_per_driver": 0},
            {"epsilon": 0.0},
            {"epsilon": -15.0},
            {"epsilon": float("nan")},
            {"speed_range": (0.0, 14.0)},
            {"speed_range": (-6.0, 14.0)},
            {"speed_range": (14.0, 6.0)},
            {"gps_noise_std": -1.0},
            {"grid_cell_size": 0.0},
            {"grid_cell_size": -150.0},
        ]:
            with pytest.raises(ValueError):
                SyntheticConfig(**bad)

    def test_boundary_configs_accepted(self):
        SyntheticConfig(speed_range=(10.0, 10.0), gps_noise_std=0.0,
                        trajectories_per_driver=1)


class TestPresets:
    def test_tdrive_noisier_than_geolife(self):
        geo = geolife_like(num_drivers=2, trajectories_per_driver=1,
                           points_per_trajectory=9)
        td = tdrive_like(num_drivers=2, trajectories_per_driver=1,
                         points_per_trajectory=9)
        assert td.config.gps_noise_std > geo.config.gps_noise_std

    def test_names(self):
        assert geolife_like(num_drivers=2, trajectories_per_driver=1,
                            points_per_trajectory=9).name == "geolife_like"
        assert tdrive_like(num_drivers=2, trajectories_per_driver=1,
                           points_per_trajectory=9).name == "tdrive_like"

    def test_trajectories_of_driver(self, tiny_world):
        for driver in tiny_world.drivers:
            trajs = tiny_world.trajectories_of(driver.driver_id)
            assert all(t.driver_id == driver.driver_id for t in trajs)
