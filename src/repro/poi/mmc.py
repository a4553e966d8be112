"""Mobility Markov Chains (MMC).

An MMC [16] models a user's mobility as a first-order Markov chain whose
states are the user's POIs (ordered by importance) and whose transition
probabilities are estimated from consecutive POI visits.  The PIT-attack
compares the MMC of an anonymous trace against the MMCs of known users.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.poi.clustering import POI, extract_pois, merge_nearby_pois


class MarkovChain:
    """A user's MMC: states (POIs, heaviest first), transitions, stationary law.

    *transitions* is the row-stochastic ``(n, n)`` matrix, or a function
    of no argument that builds it: :func:`build_mmc` passes one that
    keeps the chronological visits, and the matrix is built on the first
    read of :attr:`transitions`.  No attack reads it (the PIT-attack's
    distances use the states and the stationary law), so a fit or a
    screened candidate never pays for it.  *stationary* is the
    stationary distribution estimated from visit frequencies.
    """

    __slots__ = ("states", "stationary", "_transitions")

    def __init__(
        self,
        states: Sequence[POI],
        transitions: Union[np.ndarray, Callable[[], np.ndarray]],
        stationary: np.ndarray,
    ) -> None:
        self.states: Tuple[POI, ...] = tuple(states)
        self.stationary = stationary
        self._transitions = transitions
        n = len(self.states)
        if not callable(transitions) and transitions.shape != (n, n):
            raise ConfigurationError(
                f"transition matrix shape {transitions.shape} does not match {n} states"
            )
        if stationary.shape != (n,):
            raise ConfigurationError(
                f"stationary vector shape {stationary.shape} does not match {n} states"
            )

    @property
    def transitions(self) -> np.ndarray:
        """Row-stochastic transition matrix, shape ``(n, n)``."""
        if callable(self._transitions):
            self._transitions = self._transitions()
        return self._transitions

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


def _transitions(
    visits: Sequence[POI], states: Sequence[POI], radius_m: float, smoothing: float
) -> np.ndarray:
    """Transition matrix estimated from consecutive visits, smoothed."""
    n = len(states)
    seq = _assign_visits_to_states(visits, states, radius_m=radius_m)
    counts = np.full((n, n), smoothing, dtype=np.float64)
    for a, b in zip(seq, seq[1:]):
        if a != b:
            counts[a, b] += 1.0
    row_sums = counts.sum(axis=1, keepdims=True)
    return counts / row_sums


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
    chain stays ergodic; on the first read of
    :attr:`MarkovChain.transitions`), and take visit frequency as the
    stationary law.
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
    states = tuple(places[:max_states])
    if not states:
        return MarkovChain(states=(), transitions=np.zeros((0, 0)), stationary=np.zeros(0))
    weights = np.array([float(s.weight) for s in states])
    stationary = weights / weights.sum()
    transitions = functools.partial(_transitions, tuple(visits), states, diameter_m, smoothing)
    return MarkovChain(states=states, transitions=transitions, stationary=stationary)


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
