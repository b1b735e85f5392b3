"""Uniform grid discretisation of the plane.

LightTR's preprocessing converts GPS locations into discrete grid units
``g_i = (x_i, y_i, tid_i)`` (paper Eq. 4); this module owns the mapping
between continuous coordinates and flat grid-cell ids used as embedding
indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Point

__all__ = ["Grid"]


@dataclass(frozen=True)
class Grid:
    """A uniform grid over a bounding box.

    Parameters
    ----------
    min_x, min_y, max_x, max_y:
        Bounding box in metres (inclusive of points on the boundary;
        outside points are clamped to the nearest cell).
    cell_size:
        Edge length of a square cell, in metres.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    cell_size: float

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.max_x <= self.min_x or self.max_y <= self.min_y:
            raise ValueError("bounding box must have positive area")

    @property
    def num_cols(self) -> int:
        """Number of cells along x."""
        return max(1, int((self.max_x - self.min_x) // self.cell_size) + 1)

    @property
    def num_rows(self) -> int:
        """Number of cells along y."""
        return max(1, int((self.max_y - self.min_y) // self.cell_size) + 1)

    @property
    def num_cells(self) -> int:
        """Total cell count (the grid-embedding vocabulary size)."""
        return self.num_cols * self.num_rows

    def cell_of(self, point: Point) -> tuple[int, int]:
        """Return the ``(col, row)`` cell containing ``point`` (clamped)."""
        col = int((point.x - self.min_x) // self.cell_size)
        row = int((point.y - self.min_y) // self.cell_size)
        col = min(self.num_cols - 1, max(0, col))
        row = min(self.num_rows - 1, max(0, row))
        return col, row

    def cell_id(self, point: Point) -> int:
        """Return the flat cell id of ``point`` (row-major)."""
        col, row = self.cell_of(point)
        return row * self.num_cols + col

    def cell_ids(self, xs, ys) -> np.ndarray:
        """Flat cell ids of many points, as an int64 array.

        Element ``i`` is bitwise ``cell_id(Point(xs[i], ys[i]))``: the
        same float floor division and the same clamping.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("cannot place a non-finite coordinate in a cell")
        num_cols = self.num_cols
        cols = np.clip((xs - self.min_x) // self.cell_size, 0, num_cols - 1)
        rows = np.clip((ys - self.min_y) // self.cell_size, 0, self.num_rows - 1)
        return rows.astype(np.int64) * num_cols + cols.astype(np.int64)

    def cell_center(self, cell_id: int) -> Point:
        """Return the centre of the cell with flat id ``cell_id``."""
        if not 0 <= cell_id < self.num_cells:
            raise IndexError(f"cell id {cell_id} out of range [0, {self.num_cells})")
        row, col = divmod(cell_id, self.num_cols)
        return Point(
            self.min_x + (col + 0.5) * self.cell_size,
            self.min_y + (row + 0.5) * self.cell_size,
        )

    @classmethod
    def covering(cls, points: list[Point], cell_size: float, margin: float = 0.0) -> "Grid":
        """Build the smallest grid covering ``points`` with optional margin."""
        if not points:
            raise ValueError("cannot build a grid over zero points")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return cls(
            min_x=min(xs) - margin,
            min_y=min(ys) - margin,
            max_x=max(xs) + margin,
            max_y=max(ys) + margin,
            cell_size=cell_size,
        )
