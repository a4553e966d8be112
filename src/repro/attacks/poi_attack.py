"""POI-attack [27] (Primault et al.).

Profiles each known user by the set of Points of Interest extracted from
her past mobility (clustering diameter 200 m, dwell ≥ 1 h, as configured
in the paper §4.1.1).  To attack an anonymous trace, the same extraction
is applied and the trace is attributed to the user whose POI set is
geographically closest.

The similarity is the symmetrised mean nearest-neighbour distance
between the two POI sets, weighted by POI importance — users keep their
homes and workplaces, so under weak obfuscation the two sets align
within tens of metres.

Kernel layout.  At fit time every profile POI is packed once into a
:class:`~repro.poi.clustering.PlaceIndex` (flat ``lat``/``lng``/weight
arrays in sorted-user order with CSR segment offsets), the index the
PIT-attack queries too.  :meth:`PoiAttack.rank` and
:meth:`PoiAttack.top1` compute the full anonymous × profile
pairwise-distance matrix in one numpy broadcast and reduce it per user
with ``minimum.reduceat`` / ``add.reduceat``; ``top1`` is the argmin of
that distance vector, ties going to the smallest user id.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import Attack
from repro.registry import register_attack
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.geo.geodesy import equirectangular_distance_m_vec
from repro.poi.clustering import POI, PlaceIndex, validate_profile_params


def _poi_arrays(pois: Sequence[POI]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lat, lng, weight)`` float64 arrays of a POI sequence."""
    lat = np.array([p.lat for p in pois], dtype=np.float64)
    lng = np.array([p.lng for p in pois], dtype=np.float64)
    w = np.array([float(p.weight) for p in pois], dtype=np.float64)
    return lat, lng, w


def poi_set_distance(a: Sequence[POI], b: Sequence[POI]) -> float:
    """Symmetrised weighted nearest-neighbour distance between POI sets.

    One vectorised pairwise-distance evaluation instead of the former
    ``O(|a|·|b|)`` Python loop (retained as
    :func:`repro.attacks.reference.poi_set_distance_reference`).
    """
    if not a or not b:
        return math.inf
    a_lat, a_lng, a_w = _poi_arrays(a)
    b_lat, b_lng, b_w = _poi_arrays(b)
    if a_w.sum() <= 0 or b_w.sum() <= 0:
        return math.inf  # all-zero weights: no mean to take (as reference)
    d = equirectangular_distance_m_vec(
        a_lat[:, None], a_lng[:, None], b_lat[None, :], b_lng[None, :]
    )
    d_ab = float((a_w * d.min(axis=1)).sum() / a_w.sum())
    d_ba = float((b_w * d.min(axis=0)).sum() / b_w.sum())
    return 0.5 * (d_ab + d_ba)


@register_attack("poi")
class PoiAttack(Attack):
    """Re-identification by POI-set matching."""

    name = "POI-attack"

    def __init__(
        self,
        diameter_m: float = 200.0,
        min_dwell_s: float = 3600.0,
        max_pois: int = 20,
    ) -> None:
        super().__init__()
        self.diameter_m = float(diameter_m)
        self.min_dwell_s = float(min_dwell_s)
        self.max_pois = validate_profile_params(
            self.diameter_m, self.min_dwell_s, max_pois, "max_pois"
        )
        self._profiles: Dict[str, List[POI]] = {}
        self.index = PlaceIndex({})

    # -- profiles ---------------------------------------------------------

    def _extract(self, trace: Trace) -> List[POI]:
        """The ``max_pois`` heaviest merged places of *trace*."""
        places = self._cached_poi_places(trace, self.diameter_m, self.min_dwell_s)
        return places[: self.max_pois]

    def _build_profiles(self, background: MobilityDataset) -> None:
        traces = background.traces()
        places = self._cached_poi_places_many(traces, self.diameter_m, self.min_dwell_s)
        self._profiles = {}
        for trace, trace_places in zip(traces, places):
            pois = trace_places[: self.max_pois]
            if pois:
                self._profiles[trace.user_id] = pois
        self._pack()

    supports_refit = True

    def refit(self, delta: MobilityDataset) -> "PoiAttack":
        """Replace the POI profiles of *delta*'s users in place.

        Each delta trace is re-extracted and swapped into
        :attr:`_profiles` (removed when extraction finds no POI, exactly
        like a fresh fit); the place index is then rebuilt by the *same*
        :meth:`_pack` the full fit uses, so the refitted kernel arrays
        are bit-identical by construction.  Packing is O(total POIs), far
        from the clustering cost a full re-fit would pay.
        """
        self._require_fitted()
        for trace in delta.traces():
            pois = self._extract(trace) if len(trace) > 0 else []
            if pois:
                self._profiles[trace.user_id] = pois
            else:
                self._profiles.pop(trace.user_id, None)
        self._pack()
        return self

    def _pack(self) -> None:
        """Pack :attr:`_profiles` into the place index, weighted by POI weight."""
        self.index = PlaceIndex(
            {user: (pois, [p.weight for p in pois]) for user, pois in self._profiles.items()}
        )

    def profile_of(self, user_id: str) -> List[POI]:
        """The learned POI profile of *user_id* (empty if unprofiled)."""
        self._require_fitted()
        return list(self._profiles.get(user_id, []))

    # -- attack -----------------------------------------------------------

    def _distances(self, trace: Trace) -> Optional[np.ndarray]:
        """Symmetric POI-set distance to every profile, in index user
        order, or ``None`` when *trace* has no POI."""
        self._require_fitted()
        anon = self._extract(trace)
        if not anon:
            return None
        a_lat, a_lng, a_w = _poi_arrays(anon)
        index = self.index
        d = index.distances_m(a_lat, a_lng)
        d_ab = (a_w[:, None] * index.segment_min(d)).sum(axis=0) / a_w.sum()
        d_ba = np.add.reduceat(index.mass * d.min(axis=0), index.starts[:-1]) / index.mass_sum
        return 0.5 * (d_ab + d_ba)

    def rank(self, trace: Trace) -> List[Tuple[str, float]]:
        distances = self._distances(trace)
        return [] if distances is None else self.index.ranking(distances)

    def top1(self, trace: Trace) -> Optional[Tuple[str, float]]:
        distances = self._distances(trace)
        return None if distances is None else self.index.best(distances)
