"""Tests for repro.poi.heatmap."""

import numpy as np
import pytest

from repro.core.trace import Trace
from repro.errors import EmptyTraceError
from repro.geo.grid import Cell, MetricGrid
from repro.poi.heatmap import Heatmap, TopsoeIndex, aggregate_heatmaps, build_heatmap

from tests.conftest import make_trace


GRID = MetricGrid(800.0, ref_lat=45.0)


def spot_trace(user="u", spots=None):
    """A trace hitting each (lat, lng, count) spot the given number of times."""
    spots = spots or [(45.0, 4.0, 5)]
    ts, lats, lngs = [], [], []
    t = 0.0
    for lat, lng, count in spots:
        for _ in range(count):
            ts.append(t)
            lats.append(lat)
            lngs.append(lng)
            t += 60.0
    return Trace(user, ts, lats, lngs)


class TestBuildHeatmap:
    def test_single_spot(self):
        hm = build_heatmap(spot_trace(), GRID)
        assert len(hm) == 1
        assert hm.mass(GRID.cell_of(45.0, 4.0)) == pytest.approx(1.0)

    def test_masses_sum_to_one(self):
        hm = build_heatmap(
            spot_trace(spots=[(45.0, 4.0, 3), (45.1, 4.1, 7), (45.2, 4.2, 10)]), GRID
        )
        assert sum(m for _, m in hm.items()) == pytest.approx(1.0)

    def test_mass_proportional_to_visits(self):
        hm = build_heatmap(spot_trace(spots=[(45.0, 4.0, 3), (45.1, 4.1, 9)]), GRID)
        c1 = GRID.cell_of(45.0, 4.0)
        c2 = GRID.cell_of(45.1, 4.1)
        assert hm.mass(c2) == pytest.approx(3 * hm.mass(c1))

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTraceError):
            build_heatmap(Trace.empty("u"), GRID)

    def test_unvisited_cell_zero(self):
        hm = build_heatmap(spot_trace(), GRID)
        assert hm.mass(Cell(99999, 99999)) == 0.0

    def test_matches_scalar_cell_of(self):
        # The vectorised accumulation must agree with MetricGrid.cell_of.
        rng = np.random.default_rng(0)
        lats = 45.0 + rng.uniform(-0.05, 0.05, 50)
        lngs = 4.0 + rng.uniform(-0.05, 0.05, 50)
        trace = Trace("u", np.arange(50.0), lats, lngs)
        hm = build_heatmap(trace, GRID)
        expected = {}
        for lat, lng in zip(lats, lngs):
            c = GRID.cell_of(float(lat), float(lng))
            expected[c] = expected.get(c, 0) + 1
        for cell, count in expected.items():
            assert hm.mass(cell) == pytest.approx(count / 50.0)

    def test_negative_coordinates(self):
        # San-Francisco-style negative longitudes must hash correctly.
        trace = spot_trace(spots=[(37.77, -122.42, 5), (37.80, -122.40, 5)])
        hm = build_heatmap(trace, MetricGrid(800.0, ref_lat=37.7))
        assert len(hm) == 2
        assert sum(m for _, m in hm.items()) == pytest.approx(1.0)

    def test_southern_hemisphere_matches_cell_of(self):
        # Regression: negative latitudes make iy negative, and the old
        # packed-key decode borrowed into the column (ix-1, 2**31+iy) —
        # AP profiles and HMC grid cells silently lived in different
        # coordinate systems south of the equator.
        grid = MetricGrid(800.0, ref_lat=-33.45)  # Santiago de Chile
        rng = np.random.default_rng(7)
        lats = -33.45 + rng.uniform(-0.08, 0.08, 200)
        lngs = -70.66 + rng.uniform(-0.08, 0.08, 200)
        trace = Trace("s", np.arange(200.0), lats, lngs)
        hm = build_heatmap(trace, grid)
        expected = {}
        for lat, lng in zip(lats, lngs):
            c = grid.cell_of(float(lat), float(lng))
            expected[c] = expected.get(c, 0) + 1
        assert hm.support() == set(expected)
        for cell, count in expected.items():
            assert hm.mass(cell) == pytest.approx(count / 200.0)

    @pytest.mark.parametrize(
        "lat,lng",
        [(-33.45, -70.66), (-33.45, 151.21), (51.5, -0.12), (0.0005, -0.0005)],
    )
    def test_all_quadrants_round_trip(self, lat, lng):
        grid = MetricGrid(800.0, ref_lat=max(-89.0, min(89.0, lat)))
        trace = spot_trace(spots=[(lat, lng, 4)])
        hm = build_heatmap(trace, grid)
        assert hm.support() == {grid.cell_of(lat, lng)}

    def test_sorted_views_cached_and_consistent(self):
        hm = build_heatmap(
            spot_trace(spots=[(45.0, 4.0, 3), (45.1, 4.1, 7), (45.2, 4.2, 10)]), GRID
        )
        assert hm.cells() is hm.cells()  # cached object, not re-sorted
        assert hm.items() is hm.items()
        assert list(hm.cells()) == sorted(hm.support())
        assert list(hm.items()) == [(c, hm.mass(c)) for c in hm.cells()]
        assert isinstance(hm.cells(), tuple)  # shared view is immutable

    def test_packed_matches_cells_and_masses(self):
        spots = [(-33.45, -70.66, 3), (-33.40, -70.60, 1), (45.0, 4.0, 4)]
        built = build_heatmap(spot_trace(spots=spots), GRID)
        by_dict = Heatmap(GRID, {GRID.cell_of(lat, lng): float(n) for lat, lng, n in spots})
        for hm in (built, by_dict):
            keys, masses = hm.packed()
            assert np.all(np.diff(keys) > 0)  # ascending, like cells()
            assert masses.tolist() == [m for _, m in hm.items()]
        assert built.packed()[0].tolist() == by_dict.packed()[0].tolist()
        assert built.packed()[1].tolist() == by_dict.packed()[1].tolist()


class TestHeatmapApi:
    def test_top_cells(self):
        hm = build_heatmap(
            spot_trace(spots=[(45.0, 4.0, 1), (45.1, 4.1, 5), (45.2, 4.2, 3)]), GRID
        )
        top = hm.top_cells(2)
        assert top[0] == GRID.cell_of(45.1, 4.1)
        assert top[1] == GRID.cell_of(45.2, 4.2)

    def test_support(self):
        hm = build_heatmap(spot_trace(spots=[(45.0, 4.0, 2), (45.1, 4.1, 2)]), GRID)
        assert hm.support() == {GRID.cell_of(45.0, 4.0), GRID.cell_of(45.1, 4.1)}

    def test_entropy_uniform_vs_peaked(self):
        flat = Heatmap(GRID, {Cell(0, 0): 1.0, Cell(1, 0): 1.0})
        peaked = Heatmap(GRID, {Cell(0, 0): 99.0, Cell(1, 0): 1.0})
        assert flat.entropy() == pytest.approx(1.0)
        assert peaked.entropy() < flat.entropy()

    def test_contains(self):
        hm = Heatmap(GRID, {Cell(0, 0): 1.0})
        assert Cell(0, 0) in hm
        assert Cell(1, 1) not in hm

    def test_zero_mass_rejected(self):
        with pytest.raises(EmptyTraceError):
            Heatmap(GRID, {})

    def test_zero_count_cells_dropped(self):
        hm = Heatmap(GRID, {Cell(0, 0): 5.0, Cell(1, 1): 0.0})
        assert len(hm) == 1
        assert repr(hm).startswith("Heatmap(cells=1, ")


def index_of(**spots):
    """A TopsoeIndex over one spot-trace heatmap per keyword user."""
    return TopsoeIndex(
        {user: build_heatmap(spot_trace(user, s), GRID) for user, s in spots.items()}
    )


SPOTS = {
    "a": [(45.0, 4.0, 3), (45.1, 4.1, 1)],
    "b": [(45.1, 4.1, 2), (45.2, 4.2, 2)],
    "c": [(45.3, 4.3, 5)],
}


class TestTopsoeIndex:
    def test_dense_rows_are_the_profiles(self):
        index = index_of(**SPOTS)
        cells = index.cells()
        assert list(cells) == sorted(cells)
        assert len(cells) == 4
        matrix = index.dense()
        assert matrix.shape == (3, 4)
        for row, user in enumerate(index.users):
            hm = build_heatmap(spot_trace(user, SPOTS[user]), GRID)
            assert matrix[row].tolist() == [hm.mass(c) for c in cells]

    def test_divergence_bounds(self):
        index = index_of(**SPOTS)
        query = build_heatmap(spot_trace("q", SPOTS["a"]), GRID)
        div = index.divergences(query)
        assert div[0] == pytest.approx(0.0, abs=1e-12)
        assert div[2] == pytest.approx(2 * np.log(2))  # disjoint support
        assert 0.0 < div[1] < 2 * np.log(2)

    def test_nearest_masks_exclude_and_breaks_ties_by_user(self):
        index = index_of(**SPOTS)
        own = build_heatmap(spot_trace("a", SPOTS["a"]), GRID)
        assert index.nearest(own)[0] == "a"
        assert index.nearest(own, exclude="a")[0] == "b"
        far = build_heatmap(spot_trace("z", [(10.0, 10.0, 2)]), GRID)
        assert index.nearest(far)[0] == "a"  # every row ties at 2 ln 2
        assert index.nearest(far, exclude="a")[0] == "b"
        assert index_of(a=SPOTS["a"]).nearest(own, exclude="a") is None

    def test_empty_index(self):
        index = TopsoeIndex({})
        query = build_heatmap(spot_trace("q"), GRID)
        assert index.divergences(query).shape == (0,)
        assert index.nearest(query) is None
        assert index.dense().shape == (0, 0)


class TestAggregateHeatmaps:
    def test_average_of_two(self):
        a = Heatmap(GRID, {Cell(0, 0): 1.0})
        b = Heatmap(GRID, {Cell(1, 0): 1.0})
        agg = aggregate_heatmaps(GRID, [a, b])
        assert agg.mass(Cell(0, 0)) == pytest.approx(0.5)
        assert agg.mass(Cell(1, 0)) == pytest.approx(0.5)

    def test_grid_mismatch_rejected(self):
        a = Heatmap(GRID, {Cell(0, 0): 1.0})
        other = MetricGrid(500.0, ref_lat=45.0)
        b = Heatmap(other, {Cell(0, 0): 1.0})
        with pytest.raises(ValueError):
            aggregate_heatmaps(GRID, [a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_heatmaps(GRID, [])
