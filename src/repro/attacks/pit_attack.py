"""PIT-attack [16] (Gambs et al.): de-anonymisation via Mobility Markov Chains.

Each user is modelled as an MMC whose states are her POIs ranked by
importance.  The attack compares the anonymous trace's MMC against every
known MMC with the *stats-prox* distance, the most effective of the
distances proposed in [16], combining:

* a **proximity** component — how far the chains' POIs are on the ground
  (weighted nearest-neighbour distance between state sets), and
* a **stationary** component — how different the time the user spends in
  matched states is (L1 gap between stationary probabilities of the
  matched pairs).

The exact functional form in [16] is tied to their implementation; we
re-derive it as a documented, dimensionally consistent combination

    stats_prox = proximity_m × (1 + stationary_l1)

so that geographically identical chains (proximity 0) have distance 0
and the stationary term modulates rather than dominates.  Benchmarked to
reproduce the paper's qualitative ordering (PIT weaker than AP, stronger
than nothing).

Kernel layout.  At fit time every profile's MMC states are packed once
into a :class:`~repro.poi.clustering.PlaceIndex` (the index the
POI-attack queries too), each state weighted by its stationary
probability.  :meth:`PitAttack.rank` and :meth:`PitAttack.top1` compute
the ``(anonymous states × packed states)`` distance matrix in one
broadcast, take each user's nearest state (the first one at the
minimum, as the scalar scan's strict ``<``), and add the proximity and
stationary terms up over the anonymous states in state order, so the
sums are those of :func:`_matched_components`; ``top1`` is an argmin,
ties going to the smallest user id.  The scalar distances below stay
public as the ground truth (:func:`repro.attacks.reference.pit_rank_reference`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.base import Attack
from repro.errors import ConfigurationError
from repro.registry import register_attack
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.poi.clustering import PlaceIndex, validate_profile_params
from repro.poi.mmc import MarkovChain, build_mmc


def _matched_components(anon: MarkovChain, known: MarkovChain):
    """``(proximity_m, stationary_l1)`` under nearest-state matching."""
    prox_acc = 0.0
    stat_acc = 0.0
    weight_acc = 0.0
    for i, state in enumerate(anon.states):
        best_j = 0
        best_d = math.inf
        for j, other in enumerate(known.states):
            d = state.distance_m(other)
            if d < best_d:
                best_d = d
                best_j = j
        w = float(anon.stationary[i])
        prox_acc += w * best_d
        stat_acc += w * abs(float(anon.stationary[i]) - float(known.stationary[best_j]))
        weight_acc += w
    if weight_acc <= 0:
        return (math.inf, math.inf)
    return (prox_acc / weight_acc, stat_acc / weight_acc)


def proximity_distance(anon: MarkovChain, known: MarkovChain) -> float:
    """Pure geographic component of [16]: matched-POI distance, metres."""
    if len(anon) == 0 or len(known) == 0:
        return math.inf
    return _matched_components(anon, known)[0]


def stationary_distance(anon: MarkovChain, known: MarkovChain) -> float:
    """Pure stationary component of [16]: L1 gap of matched states' mass."""
    if len(anon) == 0 or len(known) == 0:
        return math.inf
    return _matched_components(anon, known)[1]


def stats_prox_distance(anon: MarkovChain, known: MarkovChain) -> float:
    """Stats-prox distance between two MMCs (see module docstring)."""
    if len(anon) == 0 or len(known) == 0:
        return math.inf
    proximity_m, stationary_l1 = _matched_components(anon, known)
    if not math.isfinite(proximity_m):
        return math.inf
    return proximity_m * (1.0 + stationary_l1)


#: Selectable MMC distances, as in [16]'s comparison of candidates.
PIT_DISTANCES = {
    "stats-prox": stats_prox_distance,
    "proximity": proximity_distance,
    "stationary": stationary_distance,
}

#: Each PIT_DISTANCES entry over per-user ``(proximity_m, stationary_l1)``
#: arrays, as the packed kernel computes them.
_COMBINE = {
    "stats-prox": lambda prox, stat: prox * (1.0 + stat),
    "proximity": lambda prox, stat: prox,
    "stationary": lambda prox, stat: stat,
}


@register_attack("pit")
class PitAttack(Attack):
    """Re-identification by MMC matching with the stats-prox distance."""

    name = "PIT-attack"

    def __init__(
        self,
        diameter_m: float = 200.0,
        min_dwell_s: float = 3600.0,
        max_states: int = 10,
        distance: str = "stats-prox",
    ) -> None:
        super().__init__()
        if distance not in PIT_DISTANCES:
            raise ConfigurationError(
                f"unknown PIT distance {distance!r}; choose from {sorted(PIT_DISTANCES)}"
            )
        self.diameter_m, self.min_dwell_s, self.max_states = validate_profile_params(
            diameter_m, min_dwell_s, max_states, "max_states"
        )
        self.distance_name = distance
        self._profiles: Dict[str, MarkovChain] = {}
        self.index = PlaceIndex({})

    def _model(self, trace: Trace) -> MarkovChain:
        def build() -> MarkovChain:
            # The visits and merged places are shared with the POI-attack,
            # so a trace attacked by both is clustered and merged once per
            # cache lifetime.
            return build_mmc(
                trace,
                diameter_m=self.diameter_m,
                min_dwell_s=self.min_dwell_s,
                max_states=self.max_states,
                visits=self._cached_poi_visits(trace, self.diameter_m, self.min_dwell_s),
                places=self._cached_poi_places(trace, self.diameter_m, self.min_dwell_s),
            )

        return self._cached(
            "mmc", trace, (self.diameter_m, self.min_dwell_s, self.max_states), build
        )

    def _build_profiles(self, background: MobilityDataset) -> None:
        traces = background.traces()
        d, dwell = self.diameter_m, self.min_dwell_s
        # Each trace's visits and merged places, one batch each (the
        # POI-attack's, when it fitted first on the same cache).
        visits = self._cached_poi_visits_many(traces, d, dwell)
        places = self._cached_poi_places_many(traces, d, dwell)
        features = {t.fingerprint: (v, p) for t, v, p in zip(traces, visits, places)}

        def build(missing: List[Trace]) -> List[MarkovChain]:
            chains = []
            for t in missing:
                v, p = features[t.fingerprint]
                chains.append(build_mmc(t, d, dwell, self.max_states, visits=v, places=p))
            return chains

        models = self._cached_many("mmc", traces, (d, dwell, self.max_states), build)
        self._profiles = {}
        for trace, mmc in zip(traces, models):
            if len(mmc) > 0:
                self._profiles[trace.user_id] = mmc
        self.index = PlaceIndex(
            {user: (mmc.states, mmc.stationary) for user, mmc in self._profiles.items()}
        )

    def profile_of(self, user_id: str) -> MarkovChain:
        """The learned MMC of *user_id*; raises ``KeyError`` if unprofiled."""
        self._require_fitted()
        return self._profiles[user_id]

    def _distances(self, trace: Trace) -> Optional[np.ndarray]:
        """The selected MMC distance to every profile, in index user
        order, or ``None`` when *trace* has no MMC state."""
        self._require_fitted()
        anon = self._model(trace)
        if len(anon) == 0:
            return None
        index = self.index
        d = index.distances_m(
            np.array([s.lat for s in anon.states]), np.array([s.lng for s in anon.states])
        )
        seg_min, first = index.nearest(d)
        prox = np.zeros(len(index.users))
        stat = np.zeros(len(index.users))
        weight = 0.0
        # One anonymous state at a time, as _matched_components adds up.
        for i, w in enumerate(anon.stationary.tolist()):
            prox += w * seg_min[i]
            stat += w * np.abs(w - index.mass[first[i]])
            weight += w
        return _COMBINE[self.distance_name](prox / weight, stat / weight)

    def rank(self, trace: Trace) -> List[Tuple[str, float]]:
        distances = self._distances(trace)
        return [] if distances is None else self.index.ranking(distances)

    def top1(self, trace: Trace) -> Optional[Tuple[str, float]]:
        distances = self._distances(trace)
        return None if distances is None else self.index.best(distances)
