"""Scalar walker oracle for the synthetic world generator.

This is the original trip walker: every pick rebuilds the successor
list, the forward subset, the direction vectors and their cosines, and
draws through ``rng.choice(n, p=)``.  ``generate_dataset`` below is the
original generation loop around it.

:func:`repro.data.generate_dataset` must agree with
:func:`generate_dataset` here bit for bit: ``matched``, ``raw``,
``drivers``, and the final state of every generator it seeds.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import DriverProfile, SyntheticConfig, SyntheticDataset, _make_drivers
from repro.data.trajectory import MatchedPoint, MatchedTrajectory, RawPoint, RawTrajectory
from repro.spatial.generators import grid_city
from repro.spatial.grid import Grid
from repro.spatial.roadnet import RoadNetwork, RoadSegment


def generate_dataset(config: SyntheticConfig, seed: int = 0,
                     network: RoadNetwork | None = None) -> SyntheticDataset:
    """Generate a full synthetic dataset from a config.

    The ground-truth matched trajectory is exact (the walker moves on
    the network), and the raw GPS trace adds isotropic Gaussian noise,
    so the HMM matcher has realistic work to do.
    """
    rng = np.random.default_rng(seed)
    if network is None:
        network = grid_city(
            nx=config.network_nx,
            ny=config.network_ny,
            spacing=config.network_spacing,
            rng=np.random.default_rng(seed + 1),
        )

    drivers = _make_drivers(config, network, rng)
    raw: list[RawTrajectory] = []
    matched: list[MatchedTrajectory] = []
    traj_id = 0
    for driver in drivers:
        for _ in range(config.trajectories_per_driver):
            walked = _walk_trajectory(network, driver, config, rng, traj_id)
            if walked is None:
                continue
            matched_traj, raw_traj = walked
            matched.append(matched_traj)
            raw.append(raw_traj)
            traj_id += 1

    min_x, min_y, max_x, max_y = network.bounding_box()
    margin = 3.0 * config.gps_noise_std + config.grid_cell_size
    grid = Grid(min_x - margin, min_y - margin, max_x + margin, max_y + margin,
                config.grid_cell_size)
    return SyntheticDataset(
        name=config.name, network=network, grid=grid, drivers=drivers,
        raw=raw, matched=matched, config=config,
    )


def _start_segment(network: RoadNetwork, driver: DriverProfile,
                   rng: np.random.Generator) -> RoadSegment:
    if rng.random() < driver.wander:
        return network.segments[int(rng.integers(network.num_segments))]
    candidates = network.out_segments(driver.home_node)
    if not candidates:
        return network.segments[int(rng.integers(network.num_segments))]
    return candidates[int(rng.integers(len(candidates)))]


def _pick_next_segment(network: RoadNetwork, current: RoadSegment,
                       driver: DriverProfile, rng: np.random.Generator) -> RoadSegment:
    successors = network.successors(current.segment_id)
    if not successors:
        # Dead end: legal only by U-turn.
        return _reverse_of(network, current)
    forward = [s for s in successors if s.end_node != current.start_node]
    pool = forward if (forward and rng.random() < driver.turn_bias + 0.1) else successors
    weights = np.ones(len(pool))
    # Prefer roughly straight continuations (dot product of directions).
    cur_dir = np.array([current.end.x - current.start.x, current.end.y - current.start.y])
    cur_norm = np.linalg.norm(cur_dir) + 1e-9
    for i, seg in enumerate(pool):
        nxt = np.array([seg.end.x - seg.start.x, seg.end.y - seg.start.y])
        cos = float(cur_dir @ nxt / (cur_norm * (np.linalg.norm(nxt) + 1e-9)))
        weights[i] = np.exp(driver.turn_bias * 2.0 * cos)
    weights /= weights.sum()
    return pool[int(rng.choice(len(pool), p=weights))]


def _reverse_of(network: RoadNetwork, segment: RoadSegment) -> RoadSegment:
    for seg in network.out_segments(segment.end_node):
        if seg.end_node == segment.start_node:
            return seg
    return segment  # one-way dead end: stay put (walker will stall)


def _walk_trajectory(network: RoadNetwork, driver: DriverProfile,
                     config: SyntheticConfig, rng: np.random.Generator,
                     traj_id: int) -> tuple[MatchedTrajectory, RawTrajectory] | None:
    segment = _start_segment(network, driver, rng)
    ratio = float(rng.uniform(0.0, 0.5))
    t0 = float(rng.uniform(0.0, 86_400.0))
    speed = driver.speed_mps * float(rng.uniform(0.85, 1.15))

    matched_points: list[MatchedPoint] = []
    raw_points: list[RawPoint] = []
    for i in range(config.points_per_trajectory):
        t = t0 + i * config.epsilon
        matched_points.append(MatchedPoint(segment.segment_id, ratio, t, tid=i))
        pos = segment.position_at(ratio)
        noise = rng.normal(0.0, config.gps_noise_std, size=2)
        raw_points.append(RawPoint(pos.x + float(noise[0]), pos.y + float(noise[1]), t))

        # Advance along the network for epsilon seconds.
        remaining = speed * config.epsilon * float(rng.uniform(0.8, 1.2))
        guard = 0
        while remaining > 0 and guard < 64:
            guard += 1
            seg_len = max(segment.length, 1e-6)
            ahead = (1.0 - ratio) * seg_len
            if remaining < ahead:
                ratio += remaining / seg_len
                remaining = 0.0
            else:
                remaining -= ahead
                segment = _pick_next_segment(network, segment, driver, rng)
                ratio = 0.0
    if len(matched_points) < 3:
        return None
    matched = MatchedTrajectory(
        traj_id=traj_id, driver_id=driver.driver_id,
        epsilon=config.epsilon, points=tuple(matched_points),
    )
    raw = RawTrajectory(traj_id=traj_id, driver_id=driver.driver_id,
                        points=tuple(raw_points))
    return matched, raw
