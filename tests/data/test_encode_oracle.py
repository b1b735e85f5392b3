"""The array-pass encoder equals the per-point oracle bit for bit.

``TrajectoryDataset.from_matched`` encodes a whole list of trajectories
in array passes and ``encode_example`` runs one trajectory through the
same body; :mod:`encode_oracle` is the original per-point encoder.  Every
``RecoveryExample`` field must match in dtype, shape and bytes, on the
four perfbench worlds and on generated trajectories that clamp ratios
outside [0, 1], sit on cell boundaries and leave the grid.  The two
vectorised primitives underneath, ``RoadNetwork.positions_at`` and
``Grid.cell_ids``, are checked against their scalar forms the same way.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encode_oracle as oracle
from repro.data import (
    MatchedTrajectory,
    RecoveryExample,
    SyntheticConfig,
    TrajectoryDataset,
    downsample,
    encode_example,
    generate_dataset,
)
from repro.data.trajectory import IncompleteTrajectory
from repro.spatial import Grid, Point, RoadNetwork, RoadSegment, grid_city

#: The perfbench ``geolife_like`` config, network and keep ratio.
GEOLIFE = SyntheticConfig(name="geolife_like", gps_noise_std=8.0, speed_range=(4.0, 12.0))
PERFBENCH_KEEP = 0.25
KEEP_RATIOS = (1 / 16, 1 / 8, 1 / 4, 1.0)


def _perfbench_network() -> RoadNetwork:
    return grid_city(nx=8, ny=8, spacing=250.0, rng=np.random.default_rng(11))


def assert_examples_equal(ours: RecoveryExample, theirs: RecoveryExample) -> None:
    for spec in fields(RecoveryExample):
        a, b = getattr(ours, spec.name), getattr(theirs, spec.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), spec.name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), spec.name
            assert a.tobytes() == b.tobytes(), spec.name
        else:
            assert type(a) is type(b) and a == b, spec.name


def assert_encodes_like_oracle(trajectories, grid, network, keep_ratio) -> None:
    dataset = TrajectoryDataset.from_matched(trajectories, grid, network, keep_ratio)
    assert len(dataset) == len(trajectories)
    for traj, ours in zip(trajectories, dataset.examples):
        expected = oracle.encode_example(oracle.downsample(traj, keep_ratio), grid, network)
        assert_examples_equal(ours, expected)
        assert_examples_equal(encode_example(downsample(traj, keep_ratio), grid, network),
                              expected)


def _ragged(world, seed: int):
    """The ``serve_open`` request pool: each trajectory cut to 9..33 points."""
    lengths = np.random.default_rng(seed).permutation(
        np.resize(np.arange(9, 34), len(world.matched)))
    return [MatchedTrajectory(t.traj_id, t.driver_id, t.epsilon, t.points[:int(n)])
            for t, n in zip(world.matched, lengths)]


@pytest.mark.parametrize("name, seed, size", [
    ("fed_lighttr", 1, dict(num_drivers=20, trajectories_per_driver=10,
                            points_per_trajectory=33)),
    ("fed_1k_async", 1, dict(num_drivers=40, trajectories_per_driver=50,
                             points_per_trajectory=17)),
    ("serve_open", 17, dict(num_drivers=16, trajectories_per_driver=8,
                            points_per_trajectory=33)),
    ("recover_bulk", 1, dict(num_drivers=40, trajectories_per_driver=60,
                             points_per_trajectory=33)),
])
def test_perfbench_worlds(name, seed, size):
    world = generate_dataset(replace(GEOLIFE, **size), seed=seed,
                             network=_perfbench_network())
    matched = _ragged(world, seed) if name == "serve_open" else world.matched
    assert_encodes_like_oracle(matched, world.grid, world.network, PERFBENCH_KEEP)
    # ``build_federation`` encodes one small shard per call.
    for start in range(0, 40, 3):
        assert_encodes_like_oracle(matched[start:start + 3], world.grid, world.network,
                                   PERFBENCH_KEEP)


def test_examples_are_read_only_views(tiny_world):
    dataset = TrajectoryDataset.from_matched(tiny_world.matched, tiny_world.grid,
                                             tiny_world.network, 0.25)
    example = dataset.examples[1]
    for spec in fields(RecoveryExample):
        value = getattr(example, spec.name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError):
                value[...] = 0


def test_empty_list():
    grid = Grid(0.0, 0.0, 100.0, 100.0, 10.0)
    dataset = TrajectoryDataset.from_matched([], grid, _boundary_network(), 0.25)
    assert len(dataset) == 0


# ----------------------------------------------------------------------
# generated trajectories on a network built to hit the edge cases
# ----------------------------------------------------------------------

CELL = 100.0
GRID = Grid(0.0, 0.0, 1000.0, 800.0, CELL)


def _boundary_network() -> RoadNetwork:
    """Nodes on cell corners and edges, on the grid's far boundary, off
    the grid on every side, and one in a cell's interior."""
    coords = [(0.0, 0.0), (100.0, 0.0), (300.0, 200.0), (1000.0, 800.0),
              (-250.0, 50.0), (1200.0, 1100.0), (550.5, 33.25), (400.0, -0.0),
              (700.0, 900.0), (-0.0, 500.0)]
    nodes = {i: Point(x, y) for i, (x, y) in enumerate(coords)}
    ends = [(0, 1), (1, 2), (2, 3), (3, 5), (4, 0), (6, 7), (7, 8), (8, 9),
            (9, 0), (2, 6), (5, 4), (1, 1)]
    segments = [RoadSegment(k, a, b, nodes[a], nodes[b]) for k, (a, b) in enumerate(ends)]
    return RoadNetwork(nodes, segments)


NETWORK = _boundary_network()

#: Ratios that clamp, land exactly on nodes or on cell edges, plus any float.
RATIOS = st.one_of(
    st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0]),
    st.floats(-2.0, 3.0, allow_nan=False),
)


@st.composite
def trajectories(draw, traj_id: int = 0):
    n = draw(st.integers(2, 60))
    segment_ids = draw(st.lists(st.integers(0, NETWORK.num_segments - 1),
                                min_size=n, max_size=n))
    ratios = draw(st.lists(RATIOS, min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n))
    times = np.cumsum(gaps)
    tids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    return MatchedTrajectory.from_columns(traj_id, draw(st.integers(0, 5)), 15.0,
                                          segment_ids, ratios, times, tids)


@settings(max_examples=60, deadline=None)
@given(st.lists(trajectories(), min_size=1, max_size=5), st.sampled_from(KEEP_RATIOS))
def test_property_from_matched_equals_oracle(trajs, keep_ratio):
    assert_encodes_like_oracle(trajs, GRID, NETWORK, keep_ratio)


@settings(max_examples=60, deadline=None)
@given(trajectories(), st.data())
def test_property_encode_example_any_observed_set(traj, data):
    """Arbitrary observed sets, not only strided ones."""
    n = len(traj)
    interior = data.draw(st.sets(st.integers(1, n - 2)) if n > 2 else st.just(set()))
    incomplete = IncompleteTrajectory(traj, tuple(sorted({0, n - 1} | interior)))
    assert_examples_equal(encode_example(incomplete, GRID, NETWORK),
                          oracle.encode_example(incomplete, GRID, NETWORK))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, NETWORK.num_segments - 1), RATIOS),
                min_size=1, max_size=40))
def test_property_positions_at_equals_position_at(pairs):
    segment_ids, ratios = zip(*pairs)
    ours = NETWORK.positions_at(list(segment_ids), list(ratios))
    expected = np.array([[p.x, p.y] for p in (NETWORK.position_at(s, r) for s, r in pairs)],
                        dtype=np.float64)
    assert ours.dtype == np.float64 and ours.shape == (len(pairs), 2)
    assert ours.tobytes() == expected.tobytes()


#: Coordinates on cell boundaries (multiples of the cell size, the far
#: edges, signed zeros), just off them, and off the grid on each side.
COORDS = st.one_of(
    st.integers(-3, 13).map(lambda k: k * CELL),
    st.sampled_from([-0.0, 0.0, 800.0, 1000.0, 99.99999999999999, 100.00000000000001,
                     -1e-300, 1e9, -1e9]),
    st.floats(-500.0, 1500.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=40))
def test_property_cell_ids_equals_cell_id(points):
    xs, ys = zip(*points)
    ours = GRID.cell_ids(list(xs), list(ys))
    expected = np.array([GRID.cell_id(Point(x, y)) for x, y in points], dtype=np.int64)
    assert ours.dtype == np.int64
    assert ours.tobytes() == expected.tobytes()


def test_cell_ids_rejects_non_finite():
    with pytest.raises(ValueError):
        GRID.cell_ids([1.0, np.nan], [1.0, 1.0])
    with pytest.raises(ValueError):
        GRID.cell_ids([1.0], [np.inf])


def test_segment_geometry_is_built_once_and_read_only():
    network = _boundary_network()
    network.positions_at([0], [0.5])
    starts, deltas = network._segment_geometry()
    assert network._segment_geometry()[0] is starts
    assert not starts.flags.writeable and not deltas.flags.writeable
