"""Spatial cloaking: grid generalisation of positions.

The classic generalisation-class LPPM (paper §2.3: "perturbation,
generalization and fake data generation"): every record is snapped to
the centre of its grid cell, so any position is indistinguishable within
the cell.  With ``jitter=True`` a small uniform offset inside the cell
is published instead of the exact centre (avoids degenerate co-located
points in downstream analytics).

Provided as an optional extra mechanism for MooD's composition search.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.trace import Trace
from repro.geo.grid import MetricGrid
from repro.lppm.base import LPPM, coerce_rng
from repro.registry import register_lppm
from repro.rng import SeedLike


@register_lppm("cloaking")
class SpatialCloaking(LPPM):
    """Snap every record to its grid cell centre (optionally jittered)."""

    name = "Cloak"

    def __init__(
        self,
        cell_size_m: float = 400.0,
        ref_lat: float = 45.0,
        jitter: bool = False,
    ) -> None:
        self.grid = MetricGrid(cell_size_m, ref_lat=ref_lat)  # validates cell_size_m
        self.jitter = bool(jitter)

    def apply(self, trace: Trace, rng: Optional[SeedLike] = None) -> Trace:
        if len(trace) == 0:
            return trace
        gen = coerce_rng(rng)
        lats, lngs = self.grid.centers_of(*self.grid.cells_of(trace.lats, trace.lngs))
        if self.jitter:
            half_deg_lat = 0.5 * self.grid.cell_size_m / 111_320.0
            lats = lats + gen.uniform(-half_deg_lat, half_deg_lat, size=len(trace))
            cos_phi = np.cos(np.radians(lats))
            half_deg_lng = 0.5 * self.grid.cell_size_m / (111_320.0 * np.maximum(cos_phi, 1e-9))
            lngs = lngs + gen.uniform(-1.0, 1.0, size=len(trace)) * half_deg_lng
        return trace.with_positions(
            np.clip(lats, -90.0, 90.0), (lngs + 540.0) % 360.0 - 180.0
        )

    def __repr__(self) -> str:
        return f"SpatialCloaking(cell_size_m={self.grid.cell_size_m}, jitter={self.jitter})"
