"""Tests for repro.poi.clustering — POI extraction and place merging."""

import math

import numpy as np
import pytest

from repro.core.trace import Trace, merge_traces
from repro.errors import ConfigurationError
from repro.poi.clustering import POI, extract_pois, merge_nearby_pois

from tests.conftest import dwell_trace, make_trace


class TestExtractPois:
    def test_single_dwell_is_one_poi(self):
        trace = dwell_trace(hours=2.0)
        pois = extract_pois(trace, diameter_m=200.0, min_dwell_s=3600.0)
        assert len(pois) == 1
        assert pois[0].dwell_s >= 3600.0

    def test_poi_centroid_near_place(self):
        trace = dwell_trace(lat=45.5, lng=4.5, hours=3.0)
        (poi,) = extract_pois(trace)
        assert poi.lat == pytest.approx(45.5, abs=1e-3)
        assert poi.lng == pytest.approx(4.5, abs=1e-3)

    def test_short_dwell_rejected(self):
        trace = dwell_trace(hours=0.5)
        assert extract_pois(trace, min_dwell_s=3600.0) == []

    def test_moving_trace_has_no_pois(self):
        # 100 m spacing every 60 s — never 1 h within 200 m.
        points = [(45.0 + i * 0.001, 4.0) for i in range(60)]
        trace = make_trace("u", points, dt=60.0)
        assert extract_pois(trace) == []

    def test_two_dwells_two_pois(self):
        home = dwell_trace("u", lat=45.0, lng=4.0, t0=0.0, hours=2.0)
        work = dwell_trace("u", lat=45.05, lng=4.05, t0=3 * 3600.0, hours=2.0)
        trace = merge_traces("u", [home, work])
        pois = extract_pois(trace)
        assert len(pois) == 2
        # Visit order preserved.
        assert pois[0].t_enter < pois[1].t_enter

    def test_repeated_visits_yield_repeated_pois(self):
        pieces = []
        for day in range(3):
            pieces.append(dwell_trace("u", lat=45.0, lng=4.0, t0=day * 86_400.0, hours=2.0))
        trace = merge_traces("u", pieces)
        pois = extract_pois(trace)
        assert len(pois) == 1  # contiguous in space but gaps in time: one cluster
        # With an intervening distinct place the visits separate:
        pieces = [
            dwell_trace("u", 45.0, 4.0, t0=0.0, hours=2.0),
            dwell_trace("u", 45.1, 4.1, t0=4 * 3600.0, hours=2.0),
            dwell_trace("u", 45.0, 4.0, t0=8 * 3600.0, hours=2.0),
        ]
        pois = extract_pois(merge_traces("u", pieces))
        assert len(pois) == 3

    def test_weight_counts_records(self):
        trace = dwell_trace(hours=2.0, period_s=300.0)
        (poi,) = extract_pois(trace)
        assert poi.weight == len(trace)

    def test_empty_trace(self):
        assert extract_pois(Trace.empty("u")) == []

    def test_invalid_parameters(self):
        for diameter in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                extract_pois(dwell_trace(), diameter_m=diameter)
        for dwell in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                extract_pois(dwell_trace(), min_dwell_s=dwell)

    def test_diameter_controls_granularity(self):
        # Two places 300 m apart: separate at 200 m diameter, fused at 2 km.
        a = dwell_trace("u", 45.0, 4.0, t0=0.0, hours=2.0)
        b = dwell_trace("u", 45.0027, 4.0, t0=3 * 3600.0, hours=2.0)
        trace = merge_traces("u", [a, b])
        assert len(extract_pois(trace, diameter_m=200.0)) == 2
        assert len(extract_pois(trace, diameter_m=2000.0)) == 1


class TestMergeNearbyPois:
    def _poi(self, lat, lng, weight=10, t=0.0):
        return POI(lat=lat, lng=lng, weight=weight, dwell_s=3600.0, t_enter=t, t_exit=t + 3600.0)

    def test_far_pois_not_merged(self):
        pois = [self._poi(45.0, 4.0), self._poi(45.1, 4.1)]
        assert len(merge_nearby_pois(pois, merge_radius_m=100.0)) == 2

    def test_close_pois_merged(self):
        pois = [self._poi(45.0, 4.0, weight=10), self._poi(45.0004, 4.0, weight=30)]
        merged = merge_nearby_pois(pois, merge_radius_m=100.0)
        assert len(merged) == 1
        assert merged[0].weight == 40

    def test_merged_centroid_weighted(self):
        pois = [self._poi(45.0, 4.0, weight=30), self._poi(45.0004, 4.0, weight=10)]
        (m,) = merge_nearby_pois(pois, merge_radius_m=100.0)
        assert m.lat == pytest.approx(45.0001, abs=1e-6)

    def test_empty(self):
        assert merge_nearby_pois([]) == []

    def test_invalid_radius(self):
        for radius in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                merge_nearby_pois([self._poi(45.0, 4.0)], merge_radius_m=radius)

    def test_deterministic(self):
        pois = [self._poi(45.0 + i * 0.001, 4.0, weight=i + 1) for i in range(5)]
        a = merge_nearby_pois(pois, merge_radius_m=150.0)
        b = merge_nearby_pois(pois, merge_radius_m=150.0)
        assert [(p.lat, p.weight) for p in a] == [(p.lat, p.weight) for p in b]

    def test_first_anchor_wins_not_the_nearest(self):
        # Anchors 150 m apart stay separate; a POI 80 m from the heavier
        # anchor and 70 m from the lighter one joins the heavier: anchors
        # are scanned heaviest first and the first within the radius wins.
        a = self._poi(45.0, 4.0, weight=30)
        b = self._poi(45.0 + 150.0 / 111_195.0, 4.0, weight=20)
        c = self._poi(45.0 + 80.0 / 111_195.0, 4.0, weight=5)
        heavy, light = merge_nearby_pois([c, b, a], merge_radius_m=100.0)
        assert (heavy.weight, light) == (35, b)

    def test_anchor_moves_with_each_fusion(self):
        # B fuses into A and drags the anchor 45 m north; C, 140 m from A
        # but 95 m from the fused centroid, then joins as well.
        a = self._poi(45.0, 4.0, weight=30, t=0.0)
        b = self._poi(45.0 + 90.0 / 111_195.0, 4.0, weight=30, t=1.0)
        c = self._poi(45.0 + 140.0 / 111_195.0, 4.0, weight=10)
        (place,) = merge_nearby_pois([a, b, c], merge_radius_m=100.0)
        assert place.weight == 70
        assert merge_nearby_pois([a, c], merge_radius_m=100.0) == [a, c]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_merge_invariants(self, seed):
        rng = np.random.default_rng(seed)
        pois = [
            POI(
                lat=45.76 + rng.uniform(-0.01, 0.01),
                lng=4.84 + rng.uniform(-0.01, 0.01),
                weight=int(rng.integers(1, 20)),
                dwell_s=float(rng.uniform(3600, 40000)),
                t_enter=float(rng.uniform(0, 1e6)),
                t_exit=float(rng.uniform(1e6, 2e6)),
            )
            for _ in range(int(rng.integers(2, 60)))
        ]
        shuffled = [pois[i] for i in rng.permutation(len(pois))]
        for radius in (50.0, 100.0, 400.0):
            places = merge_nearby_pois(pois, radius)
            # Input order is irrelevant: the scan sorts first.
            assert merge_nearby_pois(shuffled, radius) == places
            assert places == sorted(places, key=lambda p: (-p.weight, p.t_enter))
            # Every visit lands in exactly one place.
            assert sum(p.weight for p in places) == sum(p.weight for p in pois)
            assert sum(p.dwell_s for p in places) == pytest.approx(
                sum(p.dwell_s for p in pois)
            )
            assert min(p.t_enter for p in places) == min(p.t_enter for p in pois)
            assert max(p.t_exit for p in places) == max(p.t_exit for p in pois)
            # Places only grow: the heaviest outweighs every visit.
            assert places[0].weight >= max(p.weight for p in pois)
        # Radius 0 fuses nothing; a continent-wide radius fuses everything.
        assert merge_nearby_pois(pois, 0.0) == sorted(
            pois, key=lambda p: (-p.weight, p.t_enter)
        )
        (everything,) = merge_nearby_pois(pois, 1e7)
        weights = np.array([p.weight for p in pois], dtype=float)
        assert everything.lat == pytest.approx(
            float(np.dot(weights, [p.lat for p in pois]) / weights.sum())
        )

    def test_trivial_sizes(self):
        assert merge_nearby_pois([]) == []
        one = [self._poi(45.0, 4.0)]
        assert merge_nearby_pois(one) == one


class TestPoiDistance:
    def test_distance_zero_to_self(self):
        poi = POI(45.0, 4.0, 1, 3600.0, 0.0, 3600.0)
        assert poi.distance_m(poi) == 0.0

    def test_distance_positive(self):
        a = POI(45.0, 4.0, 1, 3600.0, 0.0, 3600.0)
        b = POI(45.01, 4.0, 1, 3600.0, 0.0, 3600.0)
        assert a.distance_m(b) == pytest.approx(1112.0, rel=0.01)

    def test_fields_in_order_and_immutable(self):
        poi = POI(45.0, 4.0, 1, 3600.0, 0.0, 3600.0)
        assert POI._fields == ("lat", "lng", "weight", "dwell_s", "t_enter", "t_exit")
        assert poi == POI(lat=45.0, lng=4.0, weight=1, dwell_s=3600.0, t_enter=0.0, t_exit=3600.0)
        with pytest.raises(AttributeError):
            poi.lat = 46.0
