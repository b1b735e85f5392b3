"""Trajectory data types (paper Definitions 2-6).

Three representations flow through the system:

* :class:`RawTrajectory` - noisy GPS points straight off the device.
* :class:`MatchedTrajectory` - map-matched, uniform epsilon-sampling-rate
  points ``(e, r, t)`` produced by the HMM matcher (Definition 5).
* :class:`IncompleteTrajectory` - a matched trajectory with most points
  removed by downsampling (Definition 6); the model's input.

Storage
-------
Raw and matched trajectories store their points as read-only NumPy
columns, one array per point field: ``x``, ``y``, ``t`` (float64) for a
raw trajectory, ``segment_ids`` (int64), ``ratios`` (float64), ``times``
(float64) and ``tids`` (int64) for a matched one.  Array passes (the
generator, the dataset encoder, recovery) read and write these columns
directly.  ``points`` - the tuple of :class:`RawPoint` /
:class:`MatchedPoint` objects - is built from the columns on first
access and cached.

Both types are built either from a points tuple (the positional
constructor) or from columns (``from_columns``).  The two routes copy
into the same storage and run the same validation, so a trajectory
never aliases an array its caller can still write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..spatial.geometry import Point
from ..spatial.roadnet import RoadNetwork

__all__ = ["RawPoint", "RawTrajectory", "MatchedPoint", "MatchedTrajectory", "IncompleteTrajectory"]


@dataclass(frozen=True)
class RawPoint:
    """A GPS fix in the local planar frame (Definition 2)."""

    x: float
    y: float
    t: float

    def as_point(self) -> Point:
        """Drop the timestamp."""
        return Point(self.x, self.y)


@dataclass(frozen=True)
class MatchedPoint:
    """A map-matched trajectory point ``(e, r)`` at time ``t`` (Definition 5).

    ``tid`` is the discrete time index ``floor((t - t0) / epsilon)`` the
    paper uses to tell the model how many points to recover (Eq. 4).
    """

    segment_id: int
    ratio: float
    t: float
    tid: int

    def position(self, network: RoadNetwork) -> Point:
        """Planar position of this matched point."""
        return network.position_at(self.segment_id, self.ratio)


def _column(values, dtype: type, name: str) -> np.ndarray:
    """A private, read-only 1-D copy of ``values`` as ``dtype``.

    Integer columns reject float input rather than truncating it.
    """
    column = np.array(values)
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    kinds = "iu" if dtype is np.int64 else "iuf"
    if column.size and column.dtype.kind not in kinds:
        raise TypeError(f"{name} cannot hold {column.dtype} values")
    column = column.astype(dtype, copy=False)
    column.flags.writeable = False
    return column


class _Columnar:
    """Immutable column storage shared by the two trajectory types.

    Subclasses name their scalar fields (``_scalars``), their columns
    and dtypes (``_columns``), the point type built from a row, and the
    checks beyond equal column lengths and two points (``_validate``).
    """

    __slots__ = ()
    _kind: str
    _scalars: tuple[str, ...]
    _columns: tuple[tuple[str, type], ...]
    _point: type

    def _init(self, scalars: tuple, columns: tuple) -> None:
        for name, value in zip(self._scalars, scalars):
            object.__setattr__(self, name, value)
        for (name, dtype), values in zip(self._columns, columns):
            object.__setattr__(self, name, _column(values, dtype, name))
        object.__setattr__(self, "_points", None)
        if len({len(getattr(self, name)) for name, _ in self._columns}) != 1:
            raise ValueError("trajectory columns must have equal lengths")
        if len(self) < 2:
            raise ValueError(f"a {self._kind} needs at least two points")
        self._validate()

    def _init_points(self, scalars: tuple, points) -> None:
        names = self._point.__dataclass_fields__
        self._init(scalars, tuple([getattr(p, n) for p in points] for n in names))

    def _validate(self) -> None:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @property
    def points(self) -> tuple:
        """The points as objects, built from the columns once."""
        points = self._points
        if points is None:
            rows = [getattr(self, name).tolist() for name, _ in self._columns]
            points = tuple(map(self._point, *rows))
            object.__setattr__(self, "_points", points)
        return points

    def __len__(self) -> int:
        return len(getattr(self, self._columns[0][0]))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (all(getattr(self, n) == getattr(other, n) for n in self._scalars)
                and all(np.array_equal(getattr(self, n), getattr(other, n))
                        for n, _ in self._columns))

    def __hash__(self) -> int:
        return hash((type(self),) + tuple(getattr(self, n) for n in self._scalars)
                    + (len(self),))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._scalars)
        return f"{type(self).__name__}({fields}, points={self.points!r})"

    def __reduce__(self):
        return (self._rebuild, (tuple(getattr(self, n) for n in self._scalars),
                                tuple(getattr(self, n) for n, _ in self._columns)))

    @classmethod
    def _rebuild(cls, scalars: tuple, columns: tuple):
        self = cls.__new__(cls)
        self._init(scalars, columns)
        return self


class RawTrajectory(_Columnar):
    """A sequence of raw GPS fixes (Definition 3).

    Columns: ``x``, ``y``, ``t`` (float64); timestamps strictly
    increase.
    """

    __slots__ = ("traj_id", "driver_id", "x", "y", "t", "_points")
    _kind = "trajectory"
    _scalars = ("traj_id", "driver_id")
    _columns = (("x", np.float64), ("y", np.float64), ("t", np.float64))
    _point = RawPoint

    def __init__(self, traj_id: int, driver_id: int, points: tuple[RawPoint, ...]):
        self._init_points((traj_id, driver_id), points)

    @classmethod
    def from_columns(cls, traj_id: int, driver_id: int, x, y, t) -> "RawTrajectory":
        """Build from coordinate and time columns (copied)."""
        return cls._rebuild((traj_id, driver_id), (x, y, t))

    def _validate(self) -> None:
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")


class MatchedTrajectory(_Columnar):
    """A uniform epsilon-sampling-rate map-matched trajectory.

    Columns: ``segment_ids`` (int64), ``ratios`` (float64), ``times``
    (float64) and ``tids`` (int64).
    """

    __slots__ = ("traj_id", "driver_id", "epsilon", "segment_ids", "ratios",
                 "times", "tids", "_points")
    _kind = "matched trajectory"
    _scalars = ("traj_id", "driver_id", "epsilon")
    _columns = (("segment_ids", np.int64), ("ratios", np.float64),
                ("times", np.float64), ("tids", np.int64))
    _point = MatchedPoint

    def __init__(self, traj_id: int, driver_id: int, epsilon: float,
                 points: tuple[MatchedPoint, ...]):
        self._init_points((traj_id, driver_id, epsilon), points)

    @classmethod
    def from_columns(cls, traj_id: int, driver_id: int, epsilon: float,
                     segment_ids, ratios, times, tids) -> "MatchedTrajectory":
        """Build from segment-id, ratio, time and time-index columns (copied)."""
        return cls._rebuild((traj_id, driver_id, epsilon),
                            (segment_ids, ratios, times, tids))

    def _validate(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("sampling rate epsilon must be positive")

    def positions(self, network: RoadNetwork) -> list[Point]:
        """Planar positions of every point."""
        xy = network.positions_at(self.segment_ids, self.ratios)
        return [Point(x, y) for x, y in xy.tolist()]


@dataclass(frozen=True)
class IncompleteTrajectory:
    """A matched trajectory with missing interior points (Definition 6).

    ``observed_indices`` index into the *complete* trajectory of length
    ``full_length``; the points at those indices are kept, everything
    else must be recovered.
    """

    source: MatchedTrajectory
    observed_indices: tuple[int, ...]
    keep_ratio: float = field(default=0.0)

    def __post_init__(self):
        n = len(self.source)
        idx = self.observed_indices
        if len(idx) < 2:
            raise ValueError("need at least two observed points (endpoints)")
        if idx[0] != 0 or idx[-1] != n - 1:
            raise ValueError("endpoints of the trajectory must be observed")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("observed indices must be strictly increasing")

    @property
    def full_length(self) -> int:
        """Length of the complete trajectory to recover."""
        return len(self.source)

    @property
    def observed_points(self) -> list[MatchedPoint]:
        """The observed (kept) points."""
        return [self.source.points[i] for i in self.observed_indices]

    @property
    def missing_indices(self) -> list[int]:
        """Indices of the points that must be recovered."""
        observed = set(self.observed_indices)
        return [i for i in range(self.full_length) if i not in observed]

    def observed_flags(self) -> list[bool]:
        """Boolean per complete-trajectory index: was it observed?"""
        observed = set(self.observed_indices)
        return [i in observed for i in range(self.full_length)]
