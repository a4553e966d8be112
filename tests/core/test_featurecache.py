"""Tests for repro.core.featurecache and its engine/attack wiring."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import default_attack_suite
from repro.attacks.ap_attack import ApAttack
from repro.attacks.pit_attack import PitAttack
from repro.attacks.poi_attack import PoiAttack
from repro.bench import synthetic_background, synthetic_trace
from repro.config import ProtectionConfig
from repro.core.featurecache import FeatureCache
from repro.core.engine import ProtectionEngine
from repro.lppm.geoi import GeoInd
from repro.lppm.hmc import HeatmapConfusion
from repro.poi.heatmap import TopsoeIndex
from repro.poi.clustering import extract_pois, merge_nearby_pois


class TestFeatureCache:
    def test_get_or_build_caches(self):
        cache = FeatureCache()
        calls = []
        assert cache.get_or_build("k", lambda: calls.append(1) or "v") == "v"
        assert cache.get_or_build("k", lambda: calls.append(1) or "v2") == "v"
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = FeatureCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: None)  # refresh a
        cache.get_or_build("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            FeatureCache(maxsize=0)

    def test_pickle_drops_entries_keeps_config(self):
        cache = FeatureCache(maxsize=7)
        cache.get_or_build("a", lambda: 1)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 7
        assert len(clone) == 0

    def test_clear(self):
        cache = FeatureCache()
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0


def _replay_one_at_a_time(maxsize, warm, keys):
    """A cache after ``get_or_build`` on *warm* then *keys*, one at a time."""
    cache = FeatureCache(maxsize=maxsize)
    for key in list(warm) + list(keys):
        cache.get_or_build(key, lambda key=key: f"v{key}")
    return cache


class TestGetOrBuildMany:
    def test_one_build_call_with_only_the_misses(self):
        cache = FeatureCache()
        cache.get_or_build("a", lambda: "va")
        cache.get_or_build("b", lambda: "vb")
        calls = []

        def build(missing):
            calls.append(list(missing))
            return [f"v{k}" for k in missing]

        values = cache.get_or_build_many(["a", "x", "b", "x", "y"], build)
        assert values == ["va", "vx", "vb", "vx", "vy"]
        assert calls == [["x", "y"]]
        # One hit or miss per key: the repeated "x" hits its own miss.
        assert (cache.hits, cache.misses) == (3, 4)

    def test_all_hits_build_nothing(self):
        cache = FeatureCache()
        cache.get_or_build("a", lambda: 1)
        assert cache.get_or_build_many(["a", "a"], lambda missing: 1 / 0) == [1, 1]

    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(st.sampled_from("abcdefg"), max_size=8),
        st.lists(st.sampled_from("abcdefg"), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_state_as_one_key_at_a_time(self, maxsize, warm, keys):
        expected = _replay_one_at_a_time(maxsize, warm, keys)
        cache = _replay_one_at_a_time(maxsize, warm, [])
        values = cache.get_or_build_many(keys, lambda missing: [f"v{k}" for k in missing])
        assert values == [f"v{k}" for k in keys]
        assert list(cache._entries.items()) == list(expected._entries.items())
        assert cache.stats() == expected.stats()

    def test_failed_build_leaves_no_placeholder(self):
        cache = FeatureCache()
        cache.get_or_build("a", lambda: 1)

        def fail(missing):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_build_many(["x", "a", "y"], fail)
        assert list(cache._entries.items()) == [("a", 1)]

    def test_build_must_return_one_value_per_miss(self):
        cache = FeatureCache()
        with pytest.raises(ValueError):
            cache.get_or_build_many(["x", "y"], lambda missing: ["only one"])
        assert len(cache) == 0


class TestTraceFingerprint:
    def test_same_records_same_fingerprint(self):
        a = synthetic_trace("a", seed=1)
        b = a.with_user("someone-else")
        assert a.fingerprint == b.fingerprint

    def test_different_records_differ(self):
        a = synthetic_trace("a", seed=1)
        b = synthetic_trace("a", seed=2)
        assert a.fingerprint != b.fingerprint

    def test_memoised(self):
        a = synthetic_trace("a", seed=1)
        assert a.fingerprint is a.fingerprint


class TestAttackCacheWiring:
    def test_results_identical_with_and_without_cache(self):
        background = synthetic_background(12, seed=3)
        probe = synthetic_trace("p", seed=99)
        for make in (lambda: ApAttack(ref_lat=45.76), PoiAttack, PitAttack):
            plain = make().fit(background)
            cached = make().use_feature_cache(FeatureCache()).fit(background)
            assert plain.rank(probe) == cached.rank(probe)
            assert plain.top1(probe) == cached.top1(probe)

    def test_poi_and_pit_share_one_extraction(self):
        cache = FeatureCache()
        background = synthetic_background(6, seed=5)
        poi = PoiAttack().use_feature_cache(cache)
        pit = PitAttack().use_feature_cache(cache)
        poi.fit(background)
        misses_after_poi = cache.misses
        pit.fit(background)
        # PIT's fit re-uses every 'poi-visits' entry the POI fit built.
        visit_keys = [k for k in cache._entries if k[0] == "poi-visits"]
        assert len(visit_keys) == 6
        assert cache.misses > 0
        assert cache.hits >= 6
        assert misses_after_poi >= 6

    @pytest.mark.parametrize("shared", [False, True])
    def test_poi_profile_and_mmc_states_are_heads_of_one_place_list(self, shared):
        background = synthetic_background(12, seed=3)
        cache = FeatureCache() if shared else None
        poi = PoiAttack(max_pois=3).use_feature_cache(cache).fit(background)
        pit = PitAttack(max_states=2).use_feature_cache(cache).fit(background)
        capped = 0
        for trace in background.traces():
            places = merge_nearby_pois(extract_pois(trace, 200.0, 3600.0), 200.0)
            assert poi.profile_of(trace.user_id) == places[:3]
            assert pit.profile_of(trace.user_id).states == tuple(places[:2])
            capped += len(places) > 3
        assert capped > 0  # the caps cut real place lists
        if shared:
            kinds = [key[0] for key in cache._entries]
            assert kinds.count("poi-places") == len(background)
            # One merge per trace: both profiles hold the same place objects.
            for trace in background.traces():
                head = poi.profile_of(trace.user_id)[:2]
                assert all(a is b for a, b in zip(head, pit.profile_of(trace.user_id).states))

    def test_repeated_rank_hits_cache(self):
        cache = FeatureCache()
        background = synthetic_background(6, seed=5)
        ap = ApAttack(ref_lat=45.76).use_feature_cache(cache).fit(background)
        probe = synthetic_trace("p", seed=42)
        ap.rank(probe)
        misses = cache.misses
        ap.rank(probe)
        ap.top1(probe)
        assert cache.misses == misses  # no new feature builds
        assert cache.hits >= 2


class TestEngineCacheWiring:
    def test_engine_attaches_shared_cache(self):
        attacks = default_attack_suite()
        hmc = HeatmapConfusion()
        engine = ProtectionEngine([GeoInd(0.01), hmc], attacks)
        for component in attacks + [hmc]:
            assert component.feature_cache is engine.feature_cache

    def test_hmc_fits_on_the_ap_heatmaps(self):
        background = synthetic_background(12, seed=3)
        engine = ProtectionEngine.from_config(ProtectionConfig()).fit(background)
        (ap,) = [a for a in engine.attacks if isinstance(a, ApAttack)]
        (hmc,) = [c for c in engine.lppms if isinstance(c, HeatmapConfusion)]
        assert hmc._profiles.keys() == ap._profiles.keys()
        for user, heatmap in ap._profiles.items():
            assert hmc._profiles[user] is heatmap
        for slot in TopsoeIndex.__slots__:
            ours, theirs = np.asarray(getattr(hmc.index, slot)), np.asarray(getattr(ap.index, slot))
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_fit_feature_counts_match_one_trace_at_a_time(self):
        # The bulk fit counts, per trace, the hits and misses the
        # per-trace fit did: POI places and visits miss, PIT's MMC
        # misses and its visits and places hit, AP's heatmap misses, and
        # HMC's heatmap hits.
        background = synthetic_background(12, seed=3)
        engine = ProtectionEngine.from_config(ProtectionConfig()).fit(background)
        stats = engine.feature_cache.stats()
        assert (stats["misses"], stats["hits"]) == (4 * 12, 3 * 12)

    def test_cache_populated_by_protection(self):
        background = synthetic_background(6, seed=5)
        attacks = [a.fit(background) for a in default_attack_suite()]
        engine = ProtectionEngine([GeoInd(0.015)], attacks, seed=1)
        engine.protect(background.traces()[0])
        stats = engine.feature_cache.stats()
        assert stats["misses"] > 0
        assert stats["hits"] > 0  # POI/PIT sharing alone guarantees hits
