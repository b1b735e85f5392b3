"""Synthetic trajectory generation (the Geolife / T-Drive stand-ins).

The paper's datasets are real Beijing GPS traces, which are not
available offline.  This module generates the closest synthetic
equivalent: drivers with heterogeneous behaviour (home region, speed,
turn preferences) perform random-walk trips on a synthetic road
network; positions are sampled every ``epsilon`` seconds to give the
ground-truth map-matched trajectory, and Gaussian GPS noise produces
the raw trace fed to the HMM matcher.

Two presets mirror the statistics that matter (Table III):

* ``geolife_like`` - few drivers, more and longer trajectories each,
  mild GPS noise (Geolife is a long-span, data-rich collection).
* ``tdrive_like`` - many drivers, fewer/shorter/noisier trajectories
  each (T-Drive is a one-week taxi snapshot; the paper calls it sparse).

Driver home regions concentrate each driver's trips in one part of the
city, so partitioning clients by driver yields the Non-IID data
distribution the meta-knowledge module is designed to handle.

Stream contract
---------------
A world is a pure function of ``(config, seed, network)``, and the
order and distribution of every random draw are part of that function,
so worlds, perfbench digests and published results stay bitwise
reproducible.  Per trip the walker draws the start segment, three
uniforms (start ratio, start time, speed factor), then per point two
GPS-noise normals and one distance uniform, and per segment change a
forward-gate ``random()`` (only when a non-U-turn way exists) and the
pick's ``random()``.  A pick is ``cdf.searchsorted(random(),
side="right")``, the draw ``Generator.choice(n, p=)`` makes, a trip
uniform is ``lo + (hi - lo) * random()``, the draw
``Generator.uniform`` makes, and a noise pair is ``0.0 + std *
standard_normal(2)``, the draw ``Generator.normal(0.0, std, 2)`` makes.
``tests/data/test_synthetic_stream.py`` pins the three identities and
checks the generator bit for bit against the original scalar walker in
``tests/data/synthetic_oracle.py``.

A trip's points are collected as plain lists and stored as trajectory
columns (:mod:`repro.data.trajectory`); the raw fixes are the matched
positions from ``RoadNetwork.positions_at`` plus the scaled noise, the
scalar walker's ``(start + r * delta) + noise`` in array form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..spatial.generators import grid_city
from ..spatial.grid import Grid
from ..spatial.roadnet import RoadNetwork, RoadSegment
from .trajectory import MatchedTrajectory, RawTrajectory

__all__ = ["DriverProfile", "SyntheticConfig", "SyntheticDataset", "generate_dataset",
           "geolife_like", "tdrive_like"]


@dataclass(frozen=True)
class DriverProfile:
    """Behavioural parameters of one synthetic driver."""

    driver_id: int
    home_node: int
    speed_mps: float
    turn_bias: float  # preference for continuing straight, in [0, 1]
    wander: float  # probability of starting away from home


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic dataset generator."""

    name: str = "synthetic"
    num_drivers: int = 20
    trajectories_per_driver: int = 10
    points_per_trajectory: int = 33
    epsilon: float = 15.0  # seconds between consecutive points
    speed_range: tuple[float, float] = (6.0, 14.0)  # m/s
    gps_noise_std: float = 12.0  # metres
    grid_cell_size: float = 150.0
    network_nx: int = 8
    network_ny: int = 8
    network_spacing: float = 250.0
    home_concentration: float = 0.8  # prob. a trip starts near home

    def __post_init__(self):
        if self.num_drivers < 1:
            raise ValueError("need at least one driver")
        if self.trajectories_per_driver < 1:
            raise ValueError("need at least one trajectory per driver")
        if self.points_per_trajectory < 3:
            raise ValueError("trajectories must have at least 3 points")
        if not self.epsilon > 0:
            raise ValueError("sampling interval epsilon must be positive")
        lo, hi = self.speed_range
        if not 0 < lo <= hi:
            raise ValueError("speed_range must be (lo, hi) with 0 < lo <= hi")
        if not self.gps_noise_std >= 0:
            raise ValueError("gps_noise_std must be non-negative")
        if not self.grid_cell_size > 0:
            raise ValueError("grid_cell_size must be positive")
        if not 0.0 <= self.home_concentration <= 1.0:
            raise ValueError("home_concentration must be in [0, 1]")


@dataclass
class SyntheticDataset:
    """A generated world: network, grid, drivers, and their trajectories."""

    name: str
    network: RoadNetwork
    grid: Grid
    drivers: list[DriverProfile]
    raw: list[RawTrajectory]
    matched: list[MatchedTrajectory]
    config: SyntheticConfig = field(repr=False, default=None)  # type: ignore[assignment]

    def trajectories_of(self, driver_id: int) -> list[MatchedTrajectory]:
        """Ground-truth trajectories belonging to one driver."""
        return [t for t in self.matched if t.driver_id == driver_id]


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
    tables = [_WalkTable(network, segment) for segment in network.segments]
    raw: list[RawTrajectory] = []
    matched: list[MatchedTrajectory] = []
    for driver in drivers:
        walker = _Walker(network, tables, driver, rng)
        for _ in range(config.trajectories_per_driver):
            matched_traj, raw_traj = walker.trip(config, len(matched))
            matched.append(matched_traj)
            raw.append(raw_traj)

    min_x, min_y, max_x, max_y = network.bounding_box()
    margin = 3.0 * config.gps_noise_std + config.grid_cell_size
    grid = Grid(min_x - margin, min_y - margin, max_x + margin, max_y + margin,
                config.grid_cell_size)
    return SyntheticDataset(
        name=config.name, network=network, grid=grid, drivers=drivers,
        raw=raw, matched=matched, config=config,
    )


def geolife_like(num_drivers: int = 20, trajectories_per_driver: int = 12,
                 points_per_trajectory: int = 33, seed: int = 42,
                 **overrides) -> SyntheticDataset:
    """Geolife stand-in: data-rich, long-span, low-noise (see Table III)."""
    config = SyntheticConfig(
        name="geolife_like",
        num_drivers=num_drivers,
        trajectories_per_driver=trajectories_per_driver,
        points_per_trajectory=points_per_trajectory,
        gps_noise_std=8.0,
        speed_range=(4.0, 12.0),
        **overrides,
    )
    return generate_dataset(config, seed=seed)


def tdrive_like(num_drivers: int = 20, trajectories_per_driver: int = 6,
                points_per_trajectory: int = 33, seed: int = 1337,
                **overrides) -> SyntheticDataset:
    """T-Drive stand-in: sparser per driver and noisier (taxi GPS)."""
    config = SyntheticConfig(
        name="tdrive_like",
        num_drivers=num_drivers,
        trajectories_per_driver=trajectories_per_driver,
        points_per_trajectory=points_per_trajectory,
        gps_noise_std=16.0,
        speed_range=(7.0, 16.0),
        **overrides,
    )
    return generate_dataset(config, seed=seed)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

def _make_drivers(config: SyntheticConfig, network: RoadNetwork,
                  rng: np.random.Generator) -> list[DriverProfile]:
    node_ids = sorted(network.nodes)
    lo, hi = config.speed_range
    drivers = []
    for d in range(config.num_drivers):
        drivers.append(
            DriverProfile(
                driver_id=d,
                home_node=int(rng.choice(node_ids)),
                speed_mps=float(rng.uniform(lo, hi)),
                turn_bias=float(rng.uniform(0.5, 0.9)),
                wander=1.0 - config.home_concentration,
            )
        )
    return drivers


def _start_segment(network: RoadNetwork, driver: DriverProfile,
                   rng: np.random.Generator) -> RoadSegment:
    if rng.random() < driver.wander:
        return network.segments[int(rng.integers(network.num_segments))]
    candidates = network.out_segments(driver.home_node)
    if not candidates:
        return network.segments[int(rng.integers(network.num_segments))]
    return candidates[int(rng.integers(len(candidates)))]


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` at a third of its call cost: the same
    single ``random()`` draw, scaled by the same expression."""
    return lo + (hi - lo) * rng.random()


class _WalkTable:
    """Walk table of one segment: its length and the ways on.

    ``successors`` are the segments leaving its end node and ``forward``
    those that do not U-turn; each ``*_cos`` list holds the cosine
    between this segment's direction and the candidate's.
    """

    __slots__ = ("length", "successors", "successor_cos", "forward", "forward_cos")

    def __init__(self, network: RoadNetwork, segment: RoadSegment):
        self.length = max(segment.length, 1e-6)
        self.successors = network.successors(segment.segment_id)
        self.forward = [s for s in self.successors if s.end_node != segment.start_node]
        cur_dir = np.array([segment.end.x - segment.start.x, segment.end.y - segment.start.y])
        cur_norm = np.linalg.norm(cur_dir) + 1e-9

        def cosine(seg: RoadSegment) -> float:
            nxt = np.array([seg.end.x - seg.start.x, seg.end.y - seg.start.y])
            return float(cur_dir @ nxt / (cur_norm * (np.linalg.norm(nxt) + 1e-9)))

        self.successor_cos = [cosine(s) for s in self.successors]
        self.forward_cos = [cosine(s) for s in self.forward]


class _Walker:
    """One driver's trip walker over the per-network walk tables.

    ``cdfs`` memoises the pick distribution per ``(segment, forward?)``
    for this driver only, since it depends on the driver's turn bias.
    """

    def __init__(self, network: RoadNetwork, tables: list[_WalkTable],
                 driver: DriverProfile, rng: np.random.Generator):
        self.network = network
        self.tables = tables
        self.driver = driver
        self.rng = rng
        self.cdfs: dict[tuple[int, bool], np.ndarray] = {}

    def _cdf(self, cosines: list[float]) -> np.ndarray:
        # Prefer roughly straight continuations.  The weights, their
        # normalisation and the cumulative sum are the ones
        # ``rng.choice(n, p=weights)`` would build from them.
        weights = np.ones(len(cosines))
        for i, cos in enumerate(cosines):
            weights[i] = np.exp(self.driver.turn_bias * 2.0 * cos)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return cdf

    def _next(self, segment: RoadSegment, table: _WalkTable) -> RoadSegment:
        if not table.successors:
            # Dead end: nothing leaves the end node, not even a U-turn,
            # so the walker stalls in place.
            return segment
        rng = self.rng
        if table.forward and rng.random() < self.driver.turn_bias + 0.1:
            pool, cosines, key = table.forward, table.forward_cos, (segment.segment_id, True)
        else:
            pool, cosines, key = table.successors, table.successor_cos, (segment.segment_id, False)
        cdf = self.cdfs.get(key)
        if cdf is None:
            cdf = self.cdfs[key] = self._cdf(cosines)
        return pool[int(cdf.searchsorted(rng.random(), side="right"))]

    def trip(self, config: SyntheticConfig,
             traj_id: int) -> tuple[MatchedTrajectory, RawTrajectory]:
        rng = self.rng
        segment = _start_segment(self.network, self.driver, rng)
        table = self.tables[segment.segment_id]
        ratio = _uniform(rng, 0.0, 0.5)
        t0 = _uniform(rng, 0.0, 86_400.0)
        speed = self.driver.speed_mps * _uniform(rng, 0.85, 1.15)

        n = config.points_per_trajectory
        segment_ids: list[int] = []
        ratios: list[float] = []
        noise: list[np.ndarray] = []
        for _ in range(n):
            segment_ids.append(segment.segment_id)
            ratios.append(ratio)
            # ``rng.normal(0.0, std, size=2)`` is ``0.0 + std * z`` over
            # the same two standard-normal draws; the scaling runs below.
            noise.append(rng.standard_normal(2))

            # Advance along the network for epsilon seconds.
            remaining = speed * config.epsilon * _uniform(rng, 0.8, 1.2)
            guard = 0
            while remaining > 0 and guard < 64:
                guard += 1
                ahead = (1.0 - ratio) * table.length
                if remaining < ahead:
                    ratio += remaining / table.length
                    remaining = 0.0
                else:
                    remaining -= ahead
                    segment = self._next(segment, table)
                    table = self.tables[segment.segment_id]
                    ratio = 0.0
        times = t0 + np.arange(n) * config.epsilon
        # The raw fix is the matched position plus the noise, in the
        # scalar walker's order: ``(start + r * delta) + noise``.
        raw_xy = (self.network.positions_at(segment_ids, ratios)
                  + (0.0 + config.gps_noise_std * np.array(noise)))
        driver_id = self.driver.driver_id
        matched = MatchedTrajectory.from_columns(
            traj_id, driver_id, config.epsilon, segment_ids, ratios, times, np.arange(n))
        raw = RawTrajectory.from_columns(traj_id, driver_id, raw_xy[:, 0], raw_xy[:, 1], times)
        return matched, raw
