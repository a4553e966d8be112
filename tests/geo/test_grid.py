"""Tests for repro.geo.grid — metric spatial grids."""

import pytest

from repro.errors import ConfigurationError
from repro.geo.geodesy import haversine_m
from repro.geo.grid import Cell, MetricGrid


class TestCell:
    def test_equality_and_hash(self):
        assert Cell(1, 2) == Cell(1, 2)
        assert Cell(1, 2) != Cell(2, 1)
        assert len({Cell(1, 2), Cell(1, 2), Cell(0, 0)}) == 2

    def test_ordering(self):
        assert Cell(0, 5) < Cell(1, 0)
        assert sorted([Cell(1, 0), Cell(0, 9)])[0] == Cell(0, 9)


class TestMetricGrid:
    def test_invalid_cell_size(self):
        with pytest.raises(ConfigurationError):
            MetricGrid(0.0)
        with pytest.raises(ConfigurationError):
            MetricGrid(-10.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                MetricGrid(bad)

    def test_invalid_ref_lat(self):
        with pytest.raises(ConfigurationError):
            MetricGrid(800.0, ref_lat=90.0)

    def test_point_in_its_cell(self):
        grid = MetricGrid(800.0, ref_lat=46.0)
        cell = grid.cell_of(46.2044, 6.1432)
        lat, lng = grid.center_of(cell)
        # Centre of the containing cell is within half a diagonal.
        assert haversine_m(46.2044, 6.1432, lat, lng) <= 800.0 * 0.75

    def test_same_point_same_cell(self):
        grid = MetricGrid(800.0, ref_lat=46.0)
        assert grid.cell_of(46.2, 6.1) == grid.cell_of(46.2, 6.1)

    def test_far_points_different_cells(self):
        grid = MetricGrid(800.0, ref_lat=46.0)
        assert grid.cell_of(46.2, 6.1) != grid.cell_of(46.3, 6.1)

    def test_nearby_points_same_cell(self):
        grid = MetricGrid(10_000.0, ref_lat=46.0)
        a = grid.cell_of(46.2000, 6.1000)
        b = grid.cell_of(46.2001, 6.1001)
        assert a == b

    def test_cell_size_controls_resolution(self):
        fine = MetricGrid(100.0, ref_lat=46.0)
        coarse = MetricGrid(10_000.0, ref_lat=46.0)
        p1, p2 = (46.2000, 6.1000), (46.2030, 6.1000)  # ~330 m apart
        assert fine.cell_of(*p1) != fine.cell_of(*p2)
        assert coarse.cell_of(*p1) == coarse.cell_of(*p2)

    def test_cell_distance(self):
        grid = MetricGrid(800.0)
        assert grid.cell_distance_m(Cell(0, 0), Cell(3, 4)) == pytest.approx(4000.0)
        assert grid.cell_distance_m(Cell(2, 2), Cell(2, 2)) == 0.0

    def test_neighbours_radius_1(self):
        grid = MetricGrid(800.0)
        neigh = list(grid.neighbours(Cell(0, 0)))
        assert len(neigh) == 8
        assert Cell(0, 0) not in neigh
        assert Cell(1, 1) in neigh

    def test_neighbours_radius_2(self):
        grid = MetricGrid(800.0)
        neigh = list(grid.neighbours(Cell(5, 5), radius=2))
        assert len(neigh) == 24

    def test_grid_equality_and_hash(self):
        assert MetricGrid(800.0, 45.0) == MetricGrid(800.0, 45.0)
        assert MetricGrid(800.0, 45.0) != MetricGrid(800.0, 46.0)
        assert hash(MetricGrid(800.0, 45.0)) == hash(MetricGrid(800.0, 45.0))

    def test_center_roundtrip(self):
        grid = MetricGrid(500.0, ref_lat=45.0)
        cell = Cell(100, -50)
        lat, lng = grid.center_of(cell)
        assert grid.cell_of(lat, lng) == cell

    def test_repr(self):
        assert "800.0" in repr(MetricGrid(800.0))
