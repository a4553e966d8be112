"""Composition-search strategies (paper §6 future work).

The paper's MooD evaluates the candidate mechanisms *exhaustively* —
every single LPPM, then every multi-LPPM chain, keeping the
lowest-distortion protecting output — and §6 flags this brute force as
the system's cost bottleneck, to be addressed with "new heuristics and
advanced ML techniques".  This module provides that extension point:

* :class:`ExhaustiveSearch` — the paper's behaviour (evaluate all,
  return the lowest-distortion winner);
* :class:`GreedySuccessSearch` — an online bandit-style heuristic that
  orders candidates by their Laplace-smoothed historical success rate
  and stops at the first protecting output.  After a few users, the
  mechanisms that usually work for this corpus are tried first, cutting
  attack evaluations dramatically at a bounded utility cost (the first
  protecting output is not necessarily the least distorting one).

Strategies are stateful across users: :meth:`record_outcome` feeds the
per-mechanism statistics.  The ablation bench compares both strategies
on protection outcome, distortion, and number of candidate evaluations.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence

from repro.registry import register_search_strategy


class CompositionSearchStrategy(abc.ABC):
    """Decides candidate order and whether to stop at the first success."""

    #: When True, MooD returns the first protecting candidate instead of
    #: evaluating every candidate and keeping the least distorting one.
    stop_at_first_success: bool = False

    #: When True, the strategy learns across users (its ordering depends
    #: on previous outcomes), so parallel executors fall back to serial
    #: execution to keep the statistics coherent.
    stateful: bool = False

    @abc.abstractmethod
    def order(self, candidate_names: Sequence[str]) -> List[str]:
        """Return *candidate_names* in the order they should be tried."""

    def record_outcome(self, candidate_name: str, protected: bool) -> None:
        """Feed back whether *candidate_name* protected the trace.

        Called for every candidate the engine attacks; a candidate whose
        STD cannot beat the protecting one already held is not attacked
        and not reported."""


@register_search_strategy("exhaustive")
class ExhaustiveSearch(CompositionSearchStrategy):
    """The paper's strategy: fixed order, evaluate everything."""

    stop_at_first_success = False

    def order(self, candidate_names: Sequence[str]) -> List[str]:
        return list(candidate_names)


@register_search_strategy("greedy")
class GreedySuccessSearch(CompositionSearchStrategy):
    """Try historically successful mechanisms first, stop when one works.

    The score of a mechanism is its Laplace-smoothed success rate
    ``(successes + α) / (trials + 2α)``; unseen mechanisms start at 0.5,
    so exploration happens through the stable tie-break (original order)
    until evidence accumulates.
    """

    stop_at_first_success = True
    stateful = True

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self._successes: Dict[str, int] = {}
        self._trials: Dict[str, int] = {}

    def success_rate(self, name: str) -> float:
        """Current smoothed success estimate for *name*."""
        trials = self._trials.get(name, 0)
        successes = self._successes.get(name, 0)
        return (successes + self.alpha) / (trials + 2.0 * self.alpha)

    def order(self, candidate_names: Sequence[str]) -> List[str]:
        indexed = list(enumerate(candidate_names))
        indexed.sort(key=lambda pair: (-self.success_rate(pair[1]), pair[0]))
        return [name for _, name in indexed]

    def record_outcome(self, candidate_name: str, protected: bool) -> None:
        self._trials[candidate_name] = self._trials.get(candidate_name, 0) + 1
        if protected:
            self._successes[candidate_name] = (
                self._successes.get(candidate_name, 0) + 1
            )

    def snapshot(self) -> Dict[str, float]:
        """Success rates of every mechanism seen so far (for reports)."""
        names = set(self._trials)
        return {name: self.success_rate(name) for name in sorted(names)}
