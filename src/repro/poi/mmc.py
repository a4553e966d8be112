"""Mobility Markov Chains (MMC).

An MMC [16] models a user's mobility as a first-order Markov chain whose
states are the user's POIs (ordered by importance) and whose transition
probabilities are estimated from consecutive POI visits.  The PIT-attack
compares the MMC of an anonymous trace against the MMCs of known users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.poi.clustering import POI, extract_pois, merge_nearby_pois


@dataclass(frozen=True)
class MarkovChain:
    """A user's MMC: states (POIs, heaviest first), transitions, stationary law."""

    states: Tuple[POI, ...]
    #: Row-stochastic transition matrix, shape ``(n, n)``.
    transitions: np.ndarray
    #: Stationary distribution estimated from visit frequencies.
    stationary: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.states)
        if self.transitions.shape != (n, n):
            raise ConfigurationError(
                f"transition matrix shape {self.transitions.shape} does not match {n} states"
            )
        if self.stationary.shape != (n,):
            raise ConfigurationError(
                f"stationary vector shape {self.stationary.shape} does not match {n} states"
            )

    def __len__(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"MarkovChain(states={len(self.states)})"


def _assign_visits_to_states(visits: Sequence[POI], states: Sequence[POI], radius_m: float) -> List[int]:
    """Map each chronological visit to the index of its merged state."""
    indices: List[int] = []
    for visit in visits:
        best = -1
        best_d = radius_m
        for j, state in enumerate(states):
            d = visit.distance_m(state)
            if d <= best_d:
                best = j
                best_d = d
        if best >= 0:
            indices.append(best)
    return indices


def build_mmc(
    trace: Trace,
    diameter_m: float = 200.0,
    min_dwell_s: float = 3600.0,
    max_states: int = 10,
    smoothing: float = 0.05,
    visits: Optional[Sequence[POI]] = None,
    places: Optional[Sequence[POI]] = None,
) -> MarkovChain:
    """Build the MMC of *trace*.

    Steps: extract chronological POI visits, merge repeat visits into
    places, keep the ``max_states`` heaviest places as states, estimate
    transitions from consecutive visits (with additive smoothing so the
    chain stays ergodic), and take visit frequency as the stationary law.
    Returns an empty chain (0 states) when the trace has no qualifying POI
    — callers treat such users as unprofiled.

    *visits* short-circuits the extraction with precomputed chronological
    POI visits (they must come from :func:`extract_pois` with the same
    parameters), and *places* the merge with the merged places of those
    visits, heaviest first (as :func:`merge_nearby_pois` returns them
    with ``merge_radius_m=diameter_m``).  The PIT-attack passes its
    cached features here, so one trace is clustered and merged at most
    once across the whole attack suite.
    """
    if visits is None:
        visits = extract_pois(trace, diameter_m=diameter_m, min_dwell_s=min_dwell_s)
    if places is None:
        places = merge_nearby_pois(visits, merge_radius_m=diameter_m)
    states = places[:max_states]
    n = len(states)
    if n == 0:
        return MarkovChain(states=(), transitions=np.zeros((0, 0)), stationary=np.zeros(0))
    seq = _assign_visits_to_states(visits, states, radius_m=diameter_m)
    counts = np.full((n, n), smoothing, dtype=np.float64)
    for a, b in zip(seq, seq[1:]):
        if a != b:
            counts[a, b] += 1.0
    row_sums = counts.sum(axis=1, keepdims=True)
    transitions = counts / row_sums
    weights = np.array([float(s.weight) for s in states])
    stationary = weights / weights.sum()
    return MarkovChain(states=tuple(states), transitions=transitions, stationary=stationary)


def stationary_of(transitions: np.ndarray, iterations: int = 200) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by power iteration.

    Provided for analysis and tests; :func:`build_mmc` itself uses
    empirical visit frequencies, as in [16].
    """
    n = transitions.shape[0]
    if n == 0:
        return np.zeros(0)
    pi = np.full(n, 1.0 / n)
    for _ in range(iterations):
        nxt = pi @ transitions
        if np.allclose(nxt, pi, atol=1e-12):
            pi = nxt
            break
        pi = nxt
    total = pi.sum()
    return pi / total if total > 0 else pi
