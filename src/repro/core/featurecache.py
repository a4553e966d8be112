"""Per-trace feature cache for the composition-search hot loop.

MooD's cascade evaluates the same (sub-)traces against multiple attacks,
and the daily-chunk recursion can revisit a trace it already searched:
every candidate LPPM output is deterministic in ``(user, mechanism,
sub-trace)``, so identical sub-traces yield identical candidates — and,
without a cache, identical heatmaps, POI extractions, and MMC models are
rebuilt from scratch every time.

:class:`FeatureCache` is a small LRU keyed by ``(feature kind, trace
fingerprint, parameters)``.  The fingerprint is a content digest of the
trace's record arrays (:attr:`repro.core.trace.Trace.fingerprint`), so
two trace objects with the same records share entries even across
pseudonym renewals.  The cache is attached to every attack, and to the
HMC LPPM, by :class:`repro.core.engine.ProtectionEngine` and consulted
through :meth:`repro.attacks.base.Attack._cached`; components built
stand-alone simply run uncached.

Fitting on the background featurises a thousand traces at once, so
:meth:`FeatureCache.get_or_build_many` looks a batch of keys up and
builds all its misses in one call, which the bulk kernels
(:func:`repro.poi.clustering.extract_pois_many`,
:func:`repro.poi.heatmap.build_heatmaps`) answer; :func:`cached_many`
keys a batch of traces the way :meth:`Attack._cached` keys one.  HMC
fits on the heatmaps the AP-attack's fit has just cached.

Caching never changes results: a hit returns the exact object a miss
would have built (features are treated as immutable by all consumers).
Pickling a cache — e.g. when the process executor ships the engine to
its workers — transfers the configuration but drops the entries, so
workers start cold and stay deterministic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = ["FeatureCache", "cached_many"]

#: ``get_or_build_many`` sentinels: a key not in the cache, and the
#: placeholder of a miss whose value the batch has yet to build.
_ABSENT = object()
_PENDING = object()


class FeatureCache:
    """Bounded LRU cache mapping feature keys to built feature objects."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The cached value for *key*, building (and storing) it on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            value = builder()
            self._entries[key] = value
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            return value
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def get_or_build_many(
        self,
        keys: Sequence[Hashable],
        build_missing: Callable[[List[Hashable]], Sequence[Any]],
    ) -> List[Any]:
        """The value of every key in *keys*, building all misses in one call.

        Counts one hit or miss per key and orders (and evicts) entries
        exactly as ``get_or_build`` called on each key in turn would;
        ``build_missing`` receives the distinct missed keys, in order,
        and returns their values in the same order.  A key that the
        batch itself evicted before its turn misses again, as it would
        one key at a time, but is built only once.
        """
        entries = self._entries
        values: List[Any] = []
        missing: Dict[Hashable, None] = {}
        for key in keys:
            value = entries.get(key, _ABSENT)
            if value is _ABSENT:
                self.misses += 1
                entries[key] = value = _PENDING
                missing[key] = None
                if len(entries) > self.maxsize:
                    entries.popitem(last=False)
                    self.evictions += 1
            else:
                self.hits += 1
                entries.move_to_end(key)
            values.append(value)
        if not missing:
            return values
        try:
            built = dict(zip(missing, build_missing(list(missing)), strict=True))
        except BaseException:
            # A failed build leaves no placeholder behind.
            for key in missing:
                if entries.get(key) is _PENDING:
                    del entries[key]
            raise
        for key, value in built.items():
            if entries.get(key) is _PENDING:
                entries[key] = value
        return [built[key] if value is _PENDING else value for key, value in zip(keys, values)]

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "maxsize": self.maxsize,
        }

    # -- pickling ---------------------------------------------------------
    #
    # The process executor ships the engine (and therefore this cache,
    # shared by every attack) to each worker once.  Entries are a local
    # optimisation, not state: drop them so the pickle stays small and
    # every worker starts cold.

    def __getstate__(self) -> Tuple[int]:
        return (self.maxsize,)

    def __setstate__(self, state: Tuple[int]) -> None:
        self.__init__(maxsize=state[0])

    def __repr__(self) -> str:
        return (
            f"FeatureCache(entries={len(self._entries)}, maxsize={self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def cached_many(
    cache: Optional[FeatureCache],
    kind: str,
    traces: Sequence[Any],
    params: Hashable,
    build_many: Callable[[List[Any]], Sequence[Any]],
) -> List[Any]:
    """``build_many(traces)``, memoised per trace in *cache* under
    ``(kind, trace.fingerprint, params)`` — the key
    :meth:`repro.attacks.base.Attack._cached` uses — with every miss built
    in one ``build_many`` call; a plain call when *cache* is ``None``."""
    if cache is None:
        return list(build_many(list(traces)))
    keys = [(kind, trace.fingerprint, params) for trace in traces]
    by_key = dict(zip(keys, traces))
    return cache.get_or_build_many(keys, lambda missing: build_many([by_key[k] for k in missing]))
