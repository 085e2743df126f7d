"""Discrete grid over the planar frame.

The paper divides the operating area into ``100 x 50`` cells and trains
the mobility models on grid indices (Section IV-A).  :class:`Grid`
converts between continuous kilometre coordinates and fractional or
integer cell coordinates, and provides the normalisation used to feed
neural models (cell coordinates scaled into ``[0, 1]``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.point import Point


@dataclass(frozen=True, slots=True)
class Grid:
    """A rectangular grid of ``rows x cols`` cells over ``width x height`` km.

    Cell ``(i, j)`` covers ``[i * cell_w, (i+1) * cell_w) x
    [j * cell_h, (j+1) * cell_h)`` with ``i`` along x and ``j`` along y,
    mirroring the paper's ``(latitude_i, longitude_j)`` 2-tuples.
    """

    width_km: float = 20.0
    height_km: float = 10.0
    rows: int = 100
    cols: int = 50

    def __post_init__(self) -> None:
        if self.width_km <= 0 or self.height_km <= 0:
            raise ValueError("grid extent must be positive")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid must have at least one cell per axis")

    @property
    def cell_width(self) -> float:
        return self.width_km / self.rows

    @property
    def cell_height(self) -> float:
        return self.height_km / self.cols

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside the grid extent."""
        return 0.0 <= point.x <= self.width_km and 0.0 <= point.y <= self.height_km

    def clamp(self, point: Point) -> Point:
        """Clamp a point into the grid extent."""
        return Point(
            min(max(point.x, 0.0), self.width_km),
            min(max(point.y, 0.0), self.height_km),
        )

    def to_cell(self, point: Point) -> tuple[int, int]:
        """Map a planar point to integer cell indices ``(i, j)``."""
        p = self.clamp(point)
        i = min(int(p.x / self.cell_width), self.rows - 1)
        j = min(int(p.y / self.cell_height), self.cols - 1)
        return i, j

    def to_fractional_cell(self, point: Point) -> tuple[float, float]:
        """Map a planar point to fractional cell coordinates.

        Fractional coordinates keep sub-cell resolution; the prediction
        models regress on these, and RMSE/MAE in the experiments are in
        cell units, matching the paper's magnitude (~0.9 cells on Porto).
        """
        p = self.clamp(point)
        return p.x / self.cell_width, p.y / self.cell_height

    def cell_center(self, i: int, j: int) -> Point:
        """Planar centre of cell ``(i, j)``."""
        self._check_cell(i, j)
        return Point((i + 0.5) * self.cell_width, (j + 0.5) * self.cell_height)

    def from_fractional_cell(self, ci: float, cj: float) -> Point:
        """Map fractional cell coordinates back to the planar frame."""
        return self.clamp(Point(ci * self.cell_width, cj * self.cell_height))

    def normalize(self, xy: np.ndarray) -> np.ndarray:
        """Scale planar ``(n, 2)`` coordinates into ``[0, 1]^2``.

        Models train in this normalised space; scale-sensitive losses
        stay well-conditioned regardless of the city extent.
        """
        arr = np.asarray(xy, dtype=float)
        return arr / np.array([self.width_km, self.height_km])

    def denormalize(self, unit_xy: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`normalize`."""
        arr = np.asarray(unit_xy, dtype=float)
        return arr * np.array([self.width_km, self.height_km])

    def to_cell_array(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised fractional-cell mapping for an ``(n, 2)`` array."""
        arr = np.asarray(xy, dtype=float)
        clamped = np.clip(arr, [0.0, 0.0], [self.width_km, self.height_km])
        return clamped / np.array([self.cell_width, self.cell_height])

    def to_flat_cell_array(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`to_cell` for an ``(n, 2)`` array, flattened
        row-major (``i * cols + j``).

        The integer sibling of :meth:`to_cell_array`: the same clamp,
        divide and truncate as the scalar form, so every cell equals
        ``to_cell``'s.  Coordinates must be finite, since a non-finite
        point has no cell; ``SpatialTask`` and ``Trajectory`` refuse
        them when built, and callers with other inputs validate them.
        """
        arr = np.asarray(xy, dtype=float).reshape(-1, 2)
        clamped = np.minimum(np.maximum(arr, 0.0), (self.width_km, self.height_km))
        ij = (clamped / (self.cell_width, self.cell_height)).astype(np.intp)
        ij = np.minimum(ij, (self.rows - 1, self.cols - 1))
        return ij[:, 0] * self.cols + ij[:, 1]

    def from_cell_array(self, cells: np.ndarray) -> np.ndarray:
        """Vectorised inverse of :meth:`to_cell_array`."""
        arr = np.asarray(cells, dtype=float)
        xy = arr * np.array([self.cell_width, self.cell_height])
        return np.clip(xy, [0.0, 0.0], [self.width_km, self.height_km])

    def _check_cell(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"cell ({i}, {j}) outside {self.rows}x{self.cols} grid")
