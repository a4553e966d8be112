"""Metric spatial grids.

Both the AP-attack and the HMC LPPM discretise the world into square
cells of a fixed size in metres (800 m in the paper).  :class:`MetricGrid`
maps lat/lng coordinates to integer cell indices and back, using a fixed
reference latitude so that a given grid instance is a stable, hashable
discretisation shared between the attacker and the protection mechanism.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, check_positive
from repro.geo.geodesy import EARTH_RADIUS_M

_DEG = math.pi / 180.0


@dataclass(frozen=True, order=True)
class Cell:
    """Integer index of a grid cell (column ``ix`` east, row ``iy`` north)."""

    ix: int
    iy: int


class MetricGrid:
    """Square grid with *cell_size_m* sides anchored at a reference latitude.

    Longitude degrees shrink with latitude, so the grid fixes the metre
    per-degree conversion at ``ref_lat``.  All four evaluation cities span
    well under one degree of latitude, making the resulting cell-size
    error irrelevant against an 800 m cell.
    """

    def __init__(self, cell_size_m: float, ref_lat: float = 45.0) -> None:
        # Checked, never coerced: True would build 1 m cells or a grid
        # anchored at latitude 1.
        self.cell_size_m = check_positive("cell_size_m", cell_size_m)
        if (
            isinstance(ref_lat, bool)
            or not isinstance(ref_lat, numbers.Real)
            or not -89.0 <= ref_lat <= 89.0
        ):
            raise ConfigurationError(f"ref_lat must be a real in [-89, 89], got {ref_lat!r}")
        self.ref_lat = float(ref_lat)
        self._m_per_deg_lat = EARTH_RADIUS_M * _DEG
        self._m_per_deg_lng = EARTH_RADIUS_M * _DEG * math.cos(ref_lat * _DEG)

    def cell_of(self, lat: float, lng: float) -> Cell:
        """Cell containing the point ``(lat, lng)``."""
        ix = math.floor(lng * self._m_per_deg_lng / self.cell_size_m)
        iy = math.floor(lat * self._m_per_deg_lat / self.cell_size_m)
        return Cell(ix, iy)

    def center_of(self, cell: Cell) -> Tuple[float, float]:
        """``(lat, lng)`` of the centre of *cell*."""
        return self.centers_of(cell.ix, cell.iy)

    def cells_of(self, lats, lngs):
        """Vectorised :meth:`cell_of`: int64 ``(ix, iy)`` arrays, same arithmetic."""
        ix = np.floor(lngs * self._m_per_deg_lng / self.cell_size_m).astype(np.int64)
        iy = np.floor(lats * self._m_per_deg_lat / self.cell_size_m).astype(np.int64)
        return (ix, iy)

    def centers_of(self, ix, iy):
        """``(lat, lng)`` of the centres of cells *ix*, *iy* (scalars or arrays)."""
        lng = (ix + 0.5) * self.cell_size_m / self._m_per_deg_lng
        lat = (iy + 0.5) * self.cell_size_m / self._m_per_deg_lat
        return (lat, lng)

    def cell_distance_m(self, a: Cell, b: Cell) -> float:
        """Euclidean distance between the centres of two cells, in metres."""
        return self.cell_size_m * math.hypot(a.ix - b.ix, a.iy - b.iy)

    def neighbours(self, cell: Cell, radius: int = 1):
        """Yield all cells within a Chebyshev *radius* of *cell* (excluding it)."""
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                if dx == 0 and dy == 0:
                    continue
                yield Cell(cell.ix + dx, cell.iy + dy)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricGrid):
            return NotImplemented
        return self.cell_size_m == other.cell_size_m and self.ref_lat == other.ref_lat

    def __hash__(self) -> int:
        return hash((self.cell_size_m, self.ref_lat))

    def __repr__(self) -> str:
        return f"MetricGrid(cell_size_m={self.cell_size_m}, ref_lat={self.ref_lat})"
