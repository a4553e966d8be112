"""Tests for the extension LPPMs: Promesse and SpatialCloaking."""

import numpy as np
import pytest

from repro.core.trace import Trace, merge_traces
from repro.errors import ConfigurationError
from repro.geo.geodesy import haversine_m
from repro.lppm import extended_lppm_suite
from repro.lppm.cloaking import SpatialCloaking
from repro.lppm.promesse import Promesse
from repro.poi.clustering import extract_pois

from tests.conftest import dwell_trace


def route_trace(user="u", n=200, step_deg=0.0005):
    """A steady 55 m-per-minute route north."""
    ts = np.arange(n) * 60.0
    lats = 45.0 + np.arange(n) * step_deg
    return Trace(user, ts, lats, np.full(n, 4.0))


class TestPromesse:
    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            Promesse(epsilon_m=0.0)

    def test_short_trace_passthrough(self):
        t = Trace("u", [0.0], [45.0], [4.0])
        assert Promesse().apply(t) is t

    def test_resampling_interval(self):
        out = Promesse(epsilon_m=200.0).apply(route_trace())
        for i in range(1, len(out) - 1):
            d = haversine_m(
                float(out.lats[i - 1]), float(out.lngs[i - 1]),
                float(out.lats[i]), float(out.lngs[i]),
            )
            assert d == pytest.approx(200.0, rel=0.05)

    def test_uniform_timestamps(self):
        out = Promesse(epsilon_m=200.0).apply(route_trace())
        diffs = np.diff(out.timestamps)
        assert np.allclose(diffs, diffs[0])
        assert out.start_time() == 0.0

    def test_erases_dwell_pois(self):
        # A 3 h dwell has POIs; after Promesse it collapses.
        home = dwell_trace("u", 45.0, 4.0, hours=3.0)
        commute = route_trace("u", n=50)
        trace = merge_traces("u", [home, commute.slice_time(0, 1).with_user("u")])
        trace = merge_traces("u", [home, Trace("u", commute.timestamps + 4 * 3600.0,
                                               commute.lats, commute.lngs)])
        assert len(extract_pois(trace)) >= 1
        out = Promesse(epsilon_m=200.0).apply(trace)
        assert extract_pois(out) == []

    def test_route_preserved(self):
        trace = route_trace()
        out = Promesse(epsilon_m=200.0).apply(trace)
        # Endpoints of the path survive within one ε.
        assert haversine_m(
            float(trace.lats[0]), float(trace.lngs[0]),
            float(out.lats[0]), float(out.lngs[0]),
        ) < 200.0

    def test_stationary_user_collapses_to_endpoints(self):
        home = dwell_trace("u", 45.0, 4.0, hours=2.0, jitter_m=2.0)
        out = Promesse(epsilon_m=500.0).apply(home)
        assert len(out) == 2

    def test_deterministic(self):
        a = Promesse().apply(route_trace())
        b = Promesse().apply(route_trace())
        assert np.array_equal(a.lats, b.lats)


class TestSpatialCloaking:
    def test_invalid_cell(self):
        with pytest.raises(ConfigurationError):
            SpatialCloaking(cell_size_m=-1.0)

    def test_snaps_to_cell_centers(self):
        # Bit-identical to snapping record by record with cell_of/center_of,
        # including negative (southern/western) cell indices.
        for shift in (0.0, -78.45):
            cloak = SpatialCloaking(cell_size_m=400.0, ref_lat=45.0 + shift)
            route = route_trace(n=50)
            trace = route.with_positions(route.lats + shift, route.lngs + shift)
            out = cloak.apply(trace)
            centres = [
                cloak.grid.center_of(cloak.grid.cell_of(float(lat), float(lng)))
                for lat, lng in zip(trace.lats, trace.lngs)
            ]
            assert out.lats.tolist() == [lat for lat, _ in centres]
            assert out.lngs.tolist() == [(lng + 540.0) % 360.0 - 180.0 for _, lng in centres]

    def test_indistinguishability_within_cell(self):
        cloak = SpatialCloaking(cell_size_m=10_000.0, ref_lat=45.0)
        a = Trace("u", [0.0], [45.0001], [4.0001])
        b = Trace("u", [0.0], [45.0002], [4.0002])
        out_a = cloak.apply(a)
        out_b = cloak.apply(b)
        assert float(out_a.lats[0]) == float(out_b.lats[0])
        assert float(out_a.lngs[0]) == float(out_b.lngs[0])

    def test_jitter_stays_inside_cell(self):
        cloak = SpatialCloaking(cell_size_m=400.0, ref_lat=45.0, jitter=True)
        trace = route_trace(n=100)
        out = cloak.apply(trace, rng=0)
        plain = SpatialCloaking(cell_size_m=400.0, ref_lat=45.0).apply(trace)
        for i in range(len(out)):
            d = haversine_m(
                float(plain.lats[i]), float(plain.lngs[i]),
                float(out.lats[i]), float(out.lngs[i]),
            )
            assert d <= 400.0 * 0.75  # within half a diagonal of the centre

    def test_empty_passthrough(self):
        t = Trace.empty("u")
        assert SpatialCloaking().apply(t) is t

    def test_timestamps_preserved(self):
        trace = route_trace(n=30)
        out = SpatialCloaking().apply(trace)
        assert np.array_equal(out.timestamps, trace.timestamps)


class TestExtendedSuite:
    def test_five_mechanisms(self, micro_ctx):
        suite = extended_lppm_suite(micro_ctx.train)
        names = [l.name for l in suite]
        assert names == ["Geo-I", "TRL", "HMC", "Promesse", "Cloak"]

    def test_composition_space_grows(self, micro_ctx):
        from repro.core.composition import composition_count

        assert composition_count(5) == 325
