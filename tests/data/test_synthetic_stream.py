"""The synthetic world generator keeps its random stream bit for bit.

``generate_dataset`` walks on per-network tables with per-driver pick
memos; :mod:`synthetic_oracle` is the original scalar walker.  Both must
produce the same ``matched``, ``raw`` and ``drivers`` and leave every
generator they seed in the same state.  The three NumPy draw identities
the walker relies on are pinned separately, so a NumPy release that
changes how ``Generator.choice``, ``Generator.uniform`` or
``Generator.normal`` draws fails here instead of silently changing
every world.  Trajectories are compared column by column, dtype and
bytes, because an array ``repr`` rounds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import synthetic_oracle as oracle
from repro.data import SyntheticConfig, generate_dataset, geolife_like, tdrive_like
from repro.spatial import Point, RoadNetwork, RoadSegment, grid_city, ring_city

#: The perfbench ``geolife_like`` world config and its fixed network.
GEOLIFE = SyntheticConfig(name="geolife_like", gps_noise_std=8.0, speed_range=(4.0, 12.0))


def _perfbench_network() -> RoadNetwork:
    return grid_city(nx=8, ny=8, spacing=250.0, rng=np.random.default_rng(11))


@pytest.fixture
def seeded(monkeypatch):
    """Every generator made through ``np.random.default_rng``, in order."""
    made = []
    real = np.random.default_rng

    def recording(*args, **kwargs):
        rng = real(*args, **kwargs)
        made.append(rng)
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


#: Per trajectory type: its scalar fields, then each column with its
#: dtype and the point field it stores.
MATCHED = (("traj_id", "driver_id", "epsilon"),
           (("segment_ids", np.int64, "segment_id"), ("ratios", np.float64, "ratio"),
            ("times", np.float64, "t"), ("tids", np.int64, "tid")))
RAW = (("traj_id", "driver_id"),
       (("x", np.float64, "x"), ("y", np.float64, "y"), ("t", np.float64, "t")))


def assert_same_trajectory(ours, theirs, layout):
    """Scalars by ``repr`` (a Python ``repr`` spells a float exactly);
    columns by dtype and bytes against the oracle's points, since NumPy's
    array ``repr`` rounds to 8 significant digits."""
    scalars, columns = layout
    assert type(ours) is type(theirs)
    for name in scalars:
        assert repr(getattr(ours, name)) == repr(getattr(theirs, name))
    for name, dtype, point_field in columns:
        expected = np.array([getattr(p, point_field) for p in theirs.points], dtype=dtype)
        column = getattr(ours, name)
        assert column.dtype == dtype
        assert column.tobytes() == expected.tobytes(), name


def assert_matches_oracle(seeded, config, seed, network=None):
    seeded.clear()
    world = generate_dataset(config, seed=seed, network=network)
    states = [rng.bit_generator.state for rng in seeded]
    seeded.clear()
    expected = oracle.generate_dataset(config, seed=seed, network=network)
    expected_states = [rng.bit_generator.state for rng in seeded]

    assert repr(world.drivers) == repr(expected.drivers)
    assert len(world.matched) == len(expected.matched)
    assert len(world.raw) == len(expected.raw)
    for ours, theirs in zip(world.matched, expected.matched):
        assert_same_trajectory(ours, theirs, MATCHED)
    for ours, theirs in zip(world.raw, expected.raw):
        assert_same_trajectory(ours, theirs, RAW)
    assert states == expected_states
    return world


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 2024])
def test_small_worlds(seeded, seed):
    config = SyntheticConfig(num_drivers=5, trajectories_per_driver=4, points_per_trajectory=9)
    assert_matches_oracle(seeded, config, seed)


@pytest.mark.parametrize("preset, seed", [(geolife_like, 42), (tdrive_like, 1337)])
def test_presets(seeded, preset, seed):
    assert_matches_oracle(seeded, preset(seed=seed).config, seed)


def test_ring_city(seeded):
    network = ring_city(rng=np.random.default_rng(3))
    config = SyntheticConfig(num_drivers=8, trajectories_per_driver=5, points_per_trajectory=17)
    assert_matches_oracle(seeded, config, seed=4, network=network)


def test_recover_bulk_world(seeded):
    config = replace(GEOLIFE, num_drivers=40, trajectories_per_driver=60)
    assert_matches_oracle(seeded, config, seed=1, network=_perfbench_network())


def _dead_end_network() -> RoadNetwork:
    """A two-way spine with a one-way dead end, a U-turn-only spur, a
    source node nothing enters, and a zero-length loop.

    Node 2 is a sink (the walker stalls on ``1 -> 2``), node 3 can only
    be left by U-turning, node 4 is only entered from node 0, and nodes
    0 and 5 share a position.
    """
    nodes = {0: Point(0.0, 0.0), 1: Point(200.0, 0.0), 2: Point(400.0, 10.0),
             3: Point(200.0, 200.0), 4: Point(100.0, -150.0), 5: Point(0.0, 0.0)}
    ends = [(0, 1), (1, 0), (1, 2), (1, 3), (3, 1), (0, 4), (4, 1), (0, 5), (5, 0)]
    segments = [RoadSegment(k, a, b, nodes[a], nodes[b]) for k, (a, b) in enumerate(ends)]
    return RoadNetwork(nodes, segments)


def test_hand_built_dead_end(seeded):
    network = _dead_end_network()
    config = SyntheticConfig(num_drivers=6, trajectories_per_driver=6, points_per_trajectory=9,
                             home_concentration=0.5)
    world = assert_matches_oracle(seeded, config, seed=5, network=network)

    # Once on the dead end ``1 -> 2`` a trip never leaves it: each time
    # it reaches node 2 it restarts the same segment from ratio 0.
    dead_end = 2
    reached = [ids[ids.index(dead_end):] for ids in (traj.segment_ids.tolist() for traj in world.matched)
               if dead_end in ids]
    assert max(map(len, reached), default=0) >= 3, "the stall path went untested"
    assert all(set(tail) == {dead_end} for tail in reached)
    assert 2 in {d.home_node for d in world.drivers}, "no driver starts at the sink"


@pytest.mark.parametrize("n", range(1, 7))
def test_searchsorted_draw_is_choice(n):
    """``cdf.searchsorted(random(), side="right")`` is ``choice(n, p=)``."""
    source = np.random.default_rng(1000 + n)
    for _ in range(300):
        weights = np.exp(source.uniform(-4.0, 4.0, size=n) * source.uniform(0.0, 3.0))
        p = weights / weights.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        seed = int(source.integers(2**32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert int(cdf.searchsorted(b.random(), side="right")) == int(a.choice(n, p=p))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("lo, hi", [(0.0, 0.5), (0.0, 86_400.0), (0.85, 1.15), (0.8, 1.2)])
def test_scaled_random_is_uniform(lo, hi):
    """``lo + (hi - lo) * random()`` is ``uniform(lo, hi)``, bit for bit."""
    a, b = np.random.default_rng(99), np.random.default_rng(99)
    for _ in range(2000):
        assert (lo + (hi - lo) * b.random()).hex() == float(a.uniform(lo, hi)).hex()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("std", [0.0, 8.0, 12.0, 16.0])
def test_scaled_standard_normal_is_normal(std):
    """``0.0 + std * standard_normal(2)`` is ``normal(0.0, std, size=2)``,
    bit for bit, leaving the generator in the same state."""
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    drawn = np.array([a.normal(0.0, std, size=2) for _ in range(2000)])
    scaled = 0.0 + std * np.array([b.standard_normal(2) for _ in range(2000)])
    assert drawn.tobytes() == scaled.tobytes()
    assert a.bit_generator.state == b.bit_generator.state
