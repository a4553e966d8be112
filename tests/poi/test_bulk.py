"""The bulk background kernels against their per-trace references.

``extract_pois_many`` must return exactly ``[extract_pois(t) for t in
traces]`` and ``build_heatmaps`` exactly ``[build_heatmap(t, grid) for t
in traces]``: same values, bit for bit, and same types.  The block
constants are shrunk where a test needs the lockstep, window and block
boundaries on small inputs.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench import synthetic_background
from repro.core.trace import Trace
from repro.errors import EmptyTraceError
from repro.geo.geodesy import equirectangular_distance_m
from repro.geo.grid import MetricGrid
from repro.poi import clustering, heatmap
from repro.poi.clustering import extract_pois, extract_pois_many
from repro.poi.heatmap import build_heatmap, build_heatmaps

M_PER_DEG = 111_320.0


@contextmanager
def small_lockstep(min_traces=2, traces=5, records=12):
    """Lockstep blocks of a few traces and windows of a few steps."""
    with mock.patch.object(clustering, "_LOCKSTEP_MIN", min_traces), mock.patch.object(
        clustering, "_LOCKSTEP_TRACES", traces
    ), mock.patch.object(clustering, "_LOCKSTEP_RECORDS", records):
        yield


def pois_state(pois):
    """POIs as comparable bits: each field's type and float hex."""
    return [
        tuple((type(v).__name__, v.hex() if isinstance(v, float) else v) for v in vars(p).values())
        for p in pois
    ]


def assert_same_pois(traces, diameter_m=200.0, min_dwell_s=3600.0):
    bulk = extract_pois_many(traces, diameter_m, min_dwell_s)
    assert len(bulk) == len(traces)
    for trace, found in zip(traces, bulk):
        assert pois_state(found) == pois_state(extract_pois(trace, diameter_m, min_dwell_s))


@st.composite
def walk_traces(draw, max_len=40):
    """A walk of 0..max_len records in steps of up to 150 m (the radius is
    100 m), so clusters both grow and break; some coordinates may be NaN."""
    n = draw(st.integers(min_value=0, max_value=max_len))
    lat0 = draw(st.floats(min_value=-70.0, max_value=70.0))
    lng0 = draw(st.floats(min_value=-170.0, max_value=170.0))
    step = st.floats(min_value=-150.0, max_value=150.0)
    north = np.cumsum(draw(st.lists(step, min_size=n, max_size=n)))
    east = np.cumsum(draw(st.lists(step, min_size=n, max_size=n)))
    dts = draw(st.lists(st.floats(min_value=0.0, max_value=1800.0), min_size=n, max_size=n))
    lats = lat0 + north / M_PER_DEG
    lngs = lng0 + east / (M_PER_DEG * math.cos(math.radians(lat0)))
    for i in draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=2)) if n else ():
        if draw(st.booleans()):
            lats[i] = math.nan
        else:
            lngs[i] = math.nan
    return Trace("u", np.cumsum(dts), lats, lngs)


def ulps_from(x, ulps):
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


def boundary_case(lat0, lng0, north_m, east_m, ulps):
    """A trace whose second record, then staying put, lies *ulps* ulps
    outside (negative: inside) the clustering radius from the first, and
    the diameter that puts it there."""
    lat1 = lat0 + north_m / M_PER_DEG
    lng1 = lng0 + east_m / (M_PER_DEG * math.cos(math.radians(lat0)))
    d = equirectangular_distance_m(lat1, lng1, lat0, lng0)
    trace = Trace("u", np.arange(4) * 1800.0, [lat0] + [lat1] * 3, [lng0] + [lng1] * 3)
    return trace, 2.0 * ulps_from(d, -ulps)


@contextmanager
def skewed_hypot(nudge):
    """np.hypot moved by *nudge* ulps, standing in for its last-ulp
    disagreement with math.hypot."""
    hypot = np.hypot

    def skewed(x, y):
        return np.nextafter(hypot(x, y), nudge * np.inf) if nudge else hypot(x, y)

    with mock.patch.object(np, "hypot", skewed):
        yield


class TestExtractPoisMany:
    @given(st.lists(walk_traces(), max_size=12), st.sampled_from([0.0, 600.0, 3600.0]))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_trace_extraction(self, traces, min_dwell_s):
        with small_lockstep():
            assert_same_pois(traces, 200.0, min_dwell_s)

    @given(st.lists(walk_traces(max_len=6), min_size=3, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_short_traces_and_wide_blocks(self, traces):
        # Traces of 0, 1 and 2 records among longer ones, all in one block.
        with small_lockstep(traces=16, records=64):
            assert_same_pois(traces, 200.0, 0.0)

    def test_empty_input(self):
        assert extract_pois_many([]) == []

    def test_real_constants_run_the_lockstep(self):
        # Wider than _LOCKSTEP_MIN, so the lockstep runs unpatched.
        background = synthetic_background(80, seed=11).traces()
        traces = [t.head(200 + 3 * i) for i, t in enumerate(background)]
        traces.append(Trace.empty("empty"))
        with mock.patch.object(clustering, "_scan", wraps=clustering._scan) as scan:
            bulk = extract_pois_many(traces)
        # Only the traces still running once fewer than _LOCKSTEP_MIN are
        # left finish in the scalar scan.
        assert 0 < scan.call_count < clustering._LOCKSTEP_MIN
        assert [pois_state(p) for p in bulk] == [pois_state(extract_pois(t)) for t in traces]

    def test_narrow_blocks_take_the_scalar_loop(self):
        traces = synthetic_background(5, seed=2).traces()
        with mock.patch.object(clustering, "_lockstep") as lockstep:
            assert_same_pois(traces)
        lockstep.assert_not_called()

    @given(
        st.floats(min_value=-60.0, max_value=60.0),
        st.floats(min_value=-170.0, max_value=170.0),
        st.floats(min_value=-150.0, max_value=150.0),
        st.floats(min_value=-150.0, max_value=150.0),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_points_within_ulps_of_the_radius(self, lat0, lng0, north_m, east_m, ulps, nudge):
        # A record metres away: a relative band means nothing at 0 m.
        assume(math.hypot(north_m, east_m) >= 1.0)
        trace, diameter_m = boundary_case(lat0, lng0, north_m, east_m, ulps)
        with small_lockstep(), skewed_hypot(nudge):
            assert_same_pois([trace, trace], diameter_m, 3600.0)

    @pytest.mark.parametrize("nudge", [-1, 1])
    def test_boundary_decisions_are_the_scalar_ones(self, nudge):
        # With np.hypot one ulp off, the lockstep's own distance would
        # decide a record exactly on the radius the other way; the band
        # hands it to the scalar formula, so the POIs do not move.
        cases = [boundary_case(45.0, 4.0, 100.0, 0.0, ulps) for ulps in range(-3, 4)]
        with small_lockstep(), skewed_hypot(nudge), mock.patch.object(
            clustering, "equirectangular_distance_m", wraps=equirectangular_distance_m
        ) as scalar:
            for trace, diameter_m in cases:
                assert_same_pois([trace, trace], diameter_m, 3600.0)
        assert scalar.call_count >= 2 * len(cases)

    def test_boundary_points_split_both_ways(self):
        weights = [
            extract_pois(*boundary_case(45.0, 4.0, 100.0, 0.0, ulps))[0].weight
            for ulps in range(-3, 4)
        ]
        # Within the radius (ulps <= 0) the second record joins the first:
        # one POI of 4 records; outside it starts its own POI of 3.
        assert weights == [4, 4, 4, 4, 3, 3, 3]

    def test_infinite_latitude_raises_like_extract_pois(self):
        trace = Trace("u", [0.0, 60.0], [45.0, math.inf], [4.0, 4.0])
        with pytest.raises(ValueError):
            extract_pois(trace)
        with small_lockstep(), pytest.raises(ValueError):
            extract_pois_many([trace, trace])

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            extract_pois_many([], diameter_m=0.0)


def heatmap_state(hm):
    keys, masses = hm.packed()
    return (hm.grid, keys.dtype.str, keys.tobytes(), masses.dtype.str, masses.tobytes())


@st.composite
def cell_traces(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    lats = draw(st.lists(st.floats(min_value=-80.0, max_value=80.0), min_size=n, max_size=n))
    lngs = draw(st.lists(st.floats(min_value=-179.0, max_value=179.0), min_size=n, max_size=n))
    # Some records share a cell with the one before.
    for i in draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=n)):
        if i < n:
            lats[i], lngs[i] = lats[i - 1], lngs[i - 1]
    return Trace("u", np.arange(n, dtype=float), lats, lngs)


class TestBuildHeatmaps:
    @given(st.lists(cell_traces(), max_size=8), st.integers(min_value=1, max_value=40))
    @settings(max_examples=120, deadline=None)
    def test_equals_per_trace_heatmaps(self, traces, block):
        grid = MetricGrid(800.0, ref_lat=45.0)
        with mock.patch.object(heatmap, "_BLOCK_RECORDS", block):
            bulk = build_heatmaps(traces, grid)
        assert [heatmap_state(h) for h in bulk] == [
            heatmap_state(build_heatmap(t, grid)) for t in traces
        ]

    def test_background_equals_per_trace(self):
        grid = MetricGrid(800.0, ref_lat=45.76)
        traces = synthetic_background(60, seed=4).traces()
        assert [heatmap_state(h) for h in build_heatmaps(traces, grid)] == [
            heatmap_state(build_heatmap(t, grid)) for t in traces
        ]

    def test_shared_cells_do_not_run_across_traces(self):
        # Each trace's last (largest) cell is the next one's first: the
        # runs must still be cut at every trace start.
        grid = MetricGrid(800.0, ref_lat=45.0)
        traces = [
            Trace(u, np.arange(n, dtype=float), [45.0] * n, [4.0] * n)
            for u, n in (("a", 3), ("b", 1), ("c", 5))
        ]
        assert [heatmap_state(h) for h in build_heatmaps(traces, grid)] == [
            heatmap_state(build_heatmap(t, grid)) for t in traces
        ]

    def test_empty_trace_rejected(self):
        grid = MetricGrid(800.0)
        traces = [Trace("a", [0.0], [45.0], [4.0]), Trace.empty("b")]
        with pytest.raises(EmptyTraceError, match="'b'"):
            build_heatmaps(traces, grid)
