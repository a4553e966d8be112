"""Heat-Map Confusion (HMC) LPPM [23].

HMC is an anti-re-identification mechanism mixing perturbation and dummy
generation: the user's trace is summarised as a heatmap (800 m cells in
the paper), the heatmap is *altered to resemble another user's* heatmap,
and the altered heatmap is materialised back into a mobility trace.

Implementation notes
--------------------
* The target profile is the **closest other user** by Topsoe divergence
  over the candidate pool (the protection side's own copy of users' past
  traces) — closeness keeps the spatial displacement, and therefore the
  utility loss, small, which is how the original paper obtains good
  utility.  The pool is the AP-attack's :class:`~repro.poi.heatmap.TopsoeIndex`
  (one argmin, own row masked); ties go to the smallest user id, so a trace
  sharing no cell with any profile (all at ``2 ln 2``) gets the first other user.
* Materialisation maps each source **cell** to a cell of the target's
  support chosen by a *mass-aware nearest* rule (distance minus a bonus
  for the target's popular cells), moving all of a cell's records
  together and preserving each record's within-cell offset and
  timestamp.  The popularity bonus reshapes the obfuscated heatmap
  toward the target's distribution even when the two users' supports
  overlap (crucial for homogeneous fleets like Cabspotting), while the
  per-cell, offset-preserving move keeps dwell clusters intact — so
  fine-grained 200 m POIs may survive.  That combination reproduces the
  paper's observation that HMC is the strongest single LPPM against
  AP-attack (Figure 6) yet noticeably weaker against POI/PIT attacks
  (Figure 7).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.dataset import MobilityDataset
from repro.core.featurecache import FeatureCache, cached_many
from repro.core.trace import Trace
from repro.errors import ConfigurationError, NotFittedError
from repro.geo.grid import MetricGrid
from repro.lppm.base import LPPM
from repro.registry import register_lppm
from repro.poi.heatmap import (
    Heatmap,
    TopsoeIndex,
    build_heatmap,
    build_heatmaps,
    pack_cells,
    unpack_cells,
)
from repro.rng import SeedLike


@register_lppm("hmc")
class HeatmapConfusion(LPPM):
    """Alter a trace's heatmap to impersonate the closest other user."""

    name = "HMC"
    deterministic = True

    def __init__(
        self,
        cell_size_m: float = 800.0,
        ref_lat: float = 45.0,
        popularity_weight: float = 1.0,
    ) -> None:
        if not (math.isfinite(popularity_weight) and popularity_weight >= 0):
            raise ConfigurationError(
                f"popularity_weight must be finite and >= 0, got {popularity_weight}"
            )
        self.grid = MetricGrid(cell_size_m, ref_lat=ref_lat)  # validates cell_size_m
        #: Strength of the bias toward the target's heavy cells, in cell
        #: units per decade of mass.  0 recovers pure nearest-cell mapping.
        self.popularity_weight = float(popularity_weight)
        self._profiles: Dict[str, Heatmap] = {}
        #: The fitted candidate pool (``None`` before :meth:`fit`).
        self.index: Optional[TopsoeIndex] = None
        self._feature_cache: Optional[FeatureCache] = None

    # -- training --------------------------------------------------------

    def use_feature_cache(self, cache: Optional[FeatureCache]) -> "HeatmapConfusion":
        """Attach (or detach, with ``None``) the feature cache :meth:`fit`
        reads its heatmaps from — the engine's, so an AP-attack fitted
        first on the same background and grid has built them all."""
        self._feature_cache = cache
        return self

    @property
    def feature_cache(self) -> Optional[FeatureCache]:
        return self._feature_cache

    def fit(self, past_traces: MobilityDataset) -> "HeatmapConfusion":
        """Learn the candidate target profiles from users' past traces."""
        traces = [t for t in past_traces.traces() if len(t) > 0]
        heatmaps = cached_many(
            self._feature_cache,
            "heatmap",  # the AP-attack's key: the same grid shares its heatmaps
            traces,
            (self.grid.cell_size_m, self.grid.ref_lat),
            lambda missing: build_heatmaps(missing, self.grid),
        )
        profiles = dict(zip((t.user_id for t in traces), heatmaps))
        if len(profiles) < 2:
            raise ConfigurationError(
                "HMC needs past traces of at least two users to confuse between"
            )
        self._profiles = profiles
        self.index = TopsoeIndex(profiles)
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._profiles)

    # -- target selection ----------------------------------------------------

    def select_target(
        self, trace: Trace, heatmap: Optional[Heatmap] = None
    ) -> Tuple[str, Heatmap]:
        """Closest other-user profile by Topsoe divergence (ties: smallest user id).

        *heatmap* is *trace*'s own heatmap when the caller already built
        it (:meth:`apply` does); it is built here otherwise.
        """
        if not self._profiles:
            raise NotFittedError("call HeatmapConfusion.fit() before apply()")
        if heatmap is None:
            heatmap = build_heatmap(trace, self.grid)
        # fit() keeps at least two users, so masking one leaves a candidate.
        user, _ = self.index.nearest(heatmap, exclude=trace.user_id)
        return (user, self._profiles[user])

    # -- obfuscation ------------------------------------------------------------

    def apply(self, trace: Trace, rng: Optional[SeedLike] = None) -> Trace:
        if len(trace) == 0:
            return trace
        grid = self.grid
        # One cell reduction serves both the query heatmap and the mapping.
        record_keys = pack_cells(*grid.cells_of(trace.lats, trace.lngs))
        keys, inverse, counts = np.unique(
            record_keys, return_inverse=True, return_counts=True
        )
        _, target = self.select_target(trace, Heatmap.from_counts(grid, keys, counts))
        t_keys, t_mass = target.packed()
        t_lat, t_lng = grid.centers_of(*unpack_cells(t_keys))
        bonus = self.popularity_weight * np.log10(t_mass + 1e-12)
        s_lat, s_lng = grid.centers_of(*unpack_cells(keys))
        # Map every source cell to its best target cell: distance in cell
        # units (so the weight means "cells of detour per decade of target
        # mass") minus the popularity bonus; ties keep the smallest cell.
        cos_ref = math.cos(math.radians(grid.ref_lat))
        d_cells = (
            np.hypot(
                (t_lat[None, :] - s_lat[:, None]) * 111_320.0,
                (t_lng[None, :] - s_lng[:, None]) * 111_320.0 * cos_ref,
            )
            / grid.cell_size_m
        )
        best = np.argmin(d_cells - bonus[None, :], axis=1)
        # Records move with their cell; records of unmoved cells keep their bytes.
        moved = (t_keys[best] != keys)[inverse]
        new_lats = np.where(moved, trace.lats + (t_lat[best] - s_lat)[inverse], trace.lats)
        new_lngs = np.where(moved, trace.lngs + (t_lng[best] - s_lng)[inverse], trace.lngs)
        return trace.with_positions(
            np.clip(new_lats, -90.0, 90.0),
            (new_lngs + 540.0) % 360.0 - 180.0,
        )

    def __repr__(self) -> str:
        return (
            f"HeatmapConfusion(cell_size_m={self.grid.cell_size_m}, "
            f"profiles={len(self._profiles)})"
        )
