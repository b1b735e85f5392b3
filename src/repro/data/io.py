"""Trajectory I/O: real-dataset parsers and a CSV interchange format.

The paper evaluates on Geolife and T-Drive.  Those datasets cannot be
bundled here, but a downstream user who has them needs ingestion code,
so this module provides:

* :func:`parse_geolife_plt` - Geolife ``.plt`` files (one per trip:
  six header lines, then ``lat,lng,0,alt,days,date,time`` rows).
* :func:`parse_tdrive_txt` - T-Drive taxi logs (one per taxi:
  ``taxi_id,YYYY-MM-DD HH:MM:SS,lng,lat`` rows).
* :func:`save_trajectories_csv` / :func:`load_trajectories_csv` - a
  simple interchange format for raw trajectories in the local planar
  frame (used by examples and for caching synthetic worlds).

Latitude/longitude inputs are projected into the local planar frame
around a reference point (defaults to central Beijing, both datasets'
home city).
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import os
from typing import Iterable, TextIO

from ..spatial.geometry import latlng_to_local
from .trajectory import RawPoint, RawTrajectory

__all__ = [
    "BEIJING_REF",
    "parse_geolife_plt",
    "parse_tdrive_txt",
    "save_trajectories_csv",
    "load_trajectories_csv",
]

#: Reference point for the equirectangular projection (central Beijing).
BEIJING_REF = (39.9042, 116.4074)

_GEOLIFE_HEADER_LINES = 6
_EPOCH = _dt.datetime(1970, 1, 1)


def _as_lines(source: str | TextIO) -> Iterable[str]:
    if isinstance(source, str):
        if "\n" not in source and os.path.exists(source):
            with open(source, "r") as handle:
                yield from handle.read().splitlines()
            return
        yield from io.StringIO(source)
    else:
        yield from source


def parse_geolife_plt(source: str | TextIO, traj_id: int = 0,
                      driver_id: int = 0,
                      ref: tuple[float, float] = BEIJING_REF) -> RawTrajectory:
    """Parse one Geolife ``.plt`` trip into a :class:`RawTrajectory`.

    ``source`` may be a path, the file's text, or an open file object.
    Rows with unparseable fields are skipped (Geolife has occasional
    truncated lines).  Raises ``ValueError`` if fewer than two valid
    points remain.
    """
    points: list[RawPoint] = []
    for i, line in enumerate(_as_lines(source)):
        if i < _GEOLIFE_HEADER_LINES:
            continue
        fields = line.strip().split(",")
        if len(fields) < 7:
            continue
        try:
            lat = float(fields[0])
            lng = float(fields[1])
            stamp = _dt.datetime.strptime(f"{fields[5]} {fields[6]}",
                                          "%Y-%m-%d %H:%M:%S")
        except ValueError:
            continue
        local = latlng_to_local(lat, lng, ref[0], ref[1])
        points.append(RawPoint(local.x, local.y, (stamp - _EPOCH).total_seconds()))
    return _build(points, traj_id, driver_id, "Geolife .plt")


def parse_tdrive_txt(source: str | TextIO, traj_id: int = 0,
                     driver_id: int | None = None,
                     ref: tuple[float, float] = BEIJING_REF) -> RawTrajectory:
    """Parse one T-Drive taxi log into a :class:`RawTrajectory`.

    The taxi id in the file becomes ``driver_id`` unless overridden.
    Duplicate timestamps (T-Drive has many) keep the first fix only.
    """
    points: list[RawPoint] = []
    parsed_driver = driver_id
    last_t: float | None = None
    for line in _as_lines(source):
        fields = line.strip().split(",")
        if len(fields) != 4:
            continue
        try:
            taxi = int(fields[0])
            stamp = _dt.datetime.strptime(fields[1], "%Y-%m-%d %H:%M:%S")
            lng = float(fields[2])
            lat = float(fields[3])
        except ValueError:
            continue
        if parsed_driver is None:
            parsed_driver = taxi
        t = (stamp - _EPOCH).total_seconds()
        if last_t is not None and t <= last_t:
            continue
        last_t = t
        local = latlng_to_local(lat, lng, ref[0], ref[1])
        points.append(RawPoint(local.x, local.y, t))
    return _build(points, traj_id, parsed_driver or 0, "T-Drive log")


def save_trajectories_csv(trajectories: list[RawTrajectory], path: str) -> None:
    """Write raw trajectories to a single CSV (columns:
    traj_id, driver_id, x, y, t)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["traj_id", "driver_id", "x", "y", "t"])
        for traj in trajectories:
            for x, y, t in zip(traj.x.tolist(), traj.y.tolist(), traj.t.tolist()):
                writer.writerow([traj.traj_id, traj.driver_id,
                                 repr(x), repr(y), repr(t)])


def load_trajectories_csv(path: str) -> list[RawTrajectory]:
    """Read trajectories written by :func:`save_trajectories_csv`.

    Points are grouped by ``traj_id``; each group must be a valid
    trajectory (>= 2 points, strictly increasing timestamps).
    """
    groups: dict[int, tuple[int, list[float], list[float], list[float]]] = {}
    with open(path, "r", newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"traj_id", "driver_id", "x", "y", "t"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"CSV at {path!r} is missing columns "
                             f"{sorted(required)}")
        for row in reader:
            traj_id = int(row["traj_id"])
            _, xs, ys, ts = groups.setdefault(
                traj_id, (int(row["driver_id"]), [], [], [])
            )
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
            ts.append(float(row["t"]))
    return [
        RawTrajectory.from_columns(tid, driver, xs, ys, ts)
        for tid, (driver, xs, ys, ts) in sorted(groups.items())
    ]


def _build(points: list[RawPoint], traj_id: int, driver_id: int,
           kind: str) -> RawTrajectory:
    if len(points) < 2:
        raise ValueError(f"{kind} produced fewer than two valid points")
    return RawTrajectory(traj_id=traj_id, driver_id=driver_id,
                         points=tuple(points))
