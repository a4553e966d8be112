"""Re-identification attack abstraction (paper §2.2, Eq. 1).

An attack has a *training phase* — :meth:`Attack.fit` consumes the
background knowledge ``H`` (past, unprotected traces of known users) and
builds per-user mobility profiles — and an *attack phase* —
:meth:`Attack.reidentify` links an anonymous (possibly protected) trace
to the closest known profile.

When an attack cannot profile a trace at all (e.g. a short sub-trace
with no POI), it returns :data:`UNKNOWN_USER`, a sentinel that never
equals a real user id — i.e. the attack *fails*, which is how such cases
are scored in the paper's protocol.

Two query surfaces
------------------

* :meth:`Attack.rank` — the full candidate list, ascending by distance.
  This is the analysis surface (top-k curves, distance histograms).
* :meth:`Attack.top1` — only the best candidate.  This is the hot-path
  surface: MooD's ``is_protected`` inner loop needs nothing but the
  single best guess, so subclasses override :meth:`top1` with an argmin
  that skips building and sorting the full ranking.  The contract is
  strict: ``top1(trace)`` must equal ``rank(trace)[0]`` (including the
  deterministic tie-break by user id), or ``None`` exactly when
  ``rank`` returns ``[]``.  :meth:`reidentify` routes through
  :meth:`top1`, so every caller gets the fast path for free.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.dataset import MobilityDataset
from repro.core.featurecache import FeatureCache, cached_many
from repro.core.trace import Trace
from repro.errors import ConfigurationError, NotFittedError
from repro.types import NO_GUESS, UNKNOWN_USER  # noqa: F401  (public home)


class Attack(abc.ABC):
    """Base class for user re-identification attacks."""

    #: Short, unique attack name used in reports.
    name: str = "attack"

    #: Whether :meth:`refit` can fold a background delta into the fitted
    #: state without a full re-fit.  Subclasses that override
    #: :meth:`refit` set this ``True``.
    supports_refit: bool = False

    def __init__(self) -> None:
        self._fitted = False
        self._feature_cache: Optional[FeatureCache] = None

    # -- training ----------------------------------------------------------

    def fit(self, background: MobilityDataset) -> "Attack":
        """Build mobility profiles from the background knowledge *H*."""
        self._build_profiles(background)
        self._fitted = True
        return self

    @abc.abstractmethod
    def _build_profiles(self, background: MobilityDataset) -> None:
        """Subclass hook: construct per-user profiles."""

    def refit(self, delta: MobilityDataset) -> "Attack":
        """Fold a per-user background *delta* into the fitted state.

        Replace semantics: *delta* carries the **complete, updated**
        background trace of each user it contains — that user's profile
        is rebuilt from the delta trace; every other user is untouched.
        An empty delta trace removes the user's profile (a fresh
        :meth:`fit` would skip them too).  Implementations must be
        bit-exact against a full :meth:`fit` on the updated background:
        ``rank``/``top1`` verdicts may not differ, which the pin tests
        in ``tests/attacks/test_refit.py`` enforce.

        The base class does not support incremental refit; the streaming
        path checks :attr:`supports_refit` before calling.
        """
        raise ConfigurationError(
            f"{self.name} does not support incremental refit; "
            "re-fit from the full background instead"
        )

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{self.name} must be fitted before attacking")

    # -- feature cache -----------------------------------------------------

    def use_feature_cache(self, cache: Optional[FeatureCache]) -> "Attack":
        """Attach (or detach, with ``None``) a shared per-trace feature cache.

        The cache is consulted by :meth:`_cached`; attacks sharing one
        cache also share features whose kind and parameters agree (e.g.
        the POI- and PIT-attacks both reuse one POI extraction per
        trace).  Attaching a cache never changes any result.
        """
        self._feature_cache = cache
        return self

    @property
    def feature_cache(self) -> Optional[FeatureCache]:
        return self._feature_cache

    def _cached(
        self,
        kind: str,
        trace: Trace,
        params: Hashable,
        builder: Callable[[], Any],
    ) -> Any:
        """``builder()``, memoised on ``(kind, trace.fingerprint, params)``.

        Cached values are shared objects — treat them as immutable.
        Without an attached cache this is a plain call to *builder*.
        """
        cache = self._feature_cache
        if cache is None:
            return builder()
        return cache.get_or_build((kind, trace.fingerprint, params), builder)

    def _cached_many(
        self,
        kind: str,
        traces: Sequence[Trace],
        params: Hashable,
        build_many: Callable[[List[Trace]], Sequence[Any]],
    ) -> List[Any]:
        """:meth:`_cached` for every trace of *traces*, the misses built
        together by one ``build_many(missing_traces)`` call."""
        return cached_many(self._feature_cache, kind, traces, params, build_many)

    def _cached_poi_visits(
        self, trace: Trace, diameter_m: float, min_dwell_s: float
    ) -> Any:
        """Chronological POI visits of *trace*, cached under the one key
        every attack uses — this single helper is what lets the POI- and
        PIT-attacks share one clustering pass per trace."""
        from repro.poi.clustering import extract_pois

        return self._cached(
            "poi-visits",
            trace,
            (diameter_m, min_dwell_s),
            lambda: extract_pois(
                trace, diameter_m=diameter_m, min_dwell_s=min_dwell_s
            ),
        )

    def _cached_poi_places(
        self, trace: Trace, diameter_m: float, min_dwell_s: float
    ) -> Any:
        """The merged places of *trace* (its POI visits fused within
        *diameter_m*), heaviest first and uncapped, cached under one key:
        the POI-attack profiles their head, the PIT-attack's MMC takes
        its states from it, and each trace is merged once."""
        from repro.poi.clustering import merge_nearby_pois

        return self._cached(
            "poi-places",
            trace,
            (diameter_m, min_dwell_s),
            lambda: merge_nearby_pois(
                self._cached_poi_visits(trace, diameter_m, min_dwell_s),
                merge_radius_m=diameter_m,
            ),
        )

    def _cached_poi_visits_many(
        self, traces: Sequence[Trace], diameter_m: float, min_dwell_s: float
    ) -> List[Any]:
        """:meth:`_cached_poi_visits` of every trace, the missing ones
        extracted in bulk (:func:`~repro.poi.clustering.extract_pois_many`)."""
        from repro.poi.clustering import extract_pois_many

        return self._cached_many(
            "poi-visits",
            traces,
            (diameter_m, min_dwell_s),
            lambda missing: extract_pois_many(missing, diameter_m, min_dwell_s),
        )

    def _cached_poi_places_many(
        self, traces: Sequence[Trace], diameter_m: float, min_dwell_s: float
    ) -> List[Any]:
        """:meth:`_cached_poi_places` of every trace, the visits of the
        missing ones extracted in bulk."""
        from repro.poi.clustering import merge_nearby_pois

        def merge(missing: List[Trace]) -> List[Any]:
            visits = self._cached_poi_visits_many(missing, diameter_m, min_dwell_s)
            return [merge_nearby_pois(v, merge_radius_m=diameter_m) for v in visits]

        return self._cached_many("poi-places", traces, (diameter_m, min_dwell_s), merge)

    # -- attack -------------------------------------------------------------

    def top1(self, trace: Trace) -> Optional[Tuple[str, float]]:
        """Best ``(user, distance)`` candidate, or ``None`` if no hypothesis.

        Equal to ``rank(trace)[0]`` by contract.  The base implementation
        falls back to :meth:`rank`; subclasses with vectorised kernels
        override it with an argmin so the hot ``is_protected`` loop never
        pays for a full sort.
        """
        ranked = self.rank(trace)
        return ranked[0] if ranked else None

    def reidentify(self, trace: Trace) -> str:
        """Guess the user id behind *trace* (or :data:`UNKNOWN_USER`)."""
        top = self.top1(trace)
        return top[0] if top is not None else UNKNOWN_USER

    @abc.abstractmethod
    def rank(self, trace: Trace) -> List[Tuple[str, float]]:
        """All candidate users sorted by ascending distance to *trace*.

        An empty list means the attack could not form a hypothesis.
        Ties are broken by user id for determinism.
        """

    def reidentify_dataset(self, dataset: MobilityDataset) -> Dict[str, str]:
        """Guess for every trace of *dataset*: ``{true_user: guess}``."""
        return {t.user_id: self.reidentify(t) for t in dataset.traces()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, fitted={self._fitted})"
