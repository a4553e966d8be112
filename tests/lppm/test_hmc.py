"""Tests for repro.lppm.hmc — heatmap confusion."""

import numpy as np
import pytest

from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.errors import ConfigurationError, NotFittedError
from repro.geo.grid import MetricGrid
from repro.lppm.hmc import HeatmapConfusion
from repro.poi.heatmap import TopsoeIndex, build_heatmap


def cluster_trace(user, lat, lng, n=60, spread=0.002, seed=0):
    """Records scattered around one centre (a user 'neighbourhood')."""
    rng = np.random.default_rng(seed)
    lats = lat + rng.normal(0, spread, n)
    lngs = lng + rng.normal(0, spread, n)
    return Trace(user, np.arange(n) * 600.0, lats, lngs)


def divergence(a, b):
    """Topsoe divergence of heatmap *a* from *b*, through a one-row index."""
    return float(TopsoeIndex({"b": b}).divergences(a)[0])


@pytest.fixture
def past():
    ds = MobilityDataset("past")
    ds.add(cluster_trace("u1", 45.00, 4.00, seed=1))
    ds.add(cluster_trace("u2", 45.02, 4.02, seed=2))
    ds.add(cluster_trace("u3", 45.50, 4.50, seed=3))
    return ds


class TestFit:
    def test_unfitted_apply_raises(self):
        hmc = HeatmapConfusion()
        with pytest.raises(NotFittedError):
            hmc.apply(cluster_trace("u1", 45.0, 4.0))

    def test_needs_two_users(self):
        ds = MobilityDataset("solo")
        ds.add(cluster_trace("only", 45.0, 4.0))
        with pytest.raises(ConfigurationError):
            HeatmapConfusion().fit(ds)

    def test_fit_returns_self(self, past):
        hmc = HeatmapConfusion()
        assert "profiles=0" in repr(hmc)
        assert hmc.fit(past) is hmc
        assert hmc.is_fitted
        assert hmc.index.users == ("u1", "u2", "u3")
        assert "profiles=3" in repr(hmc)

    def test_invalid_cell_size(self):
        for cell_size_m in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                HeatmapConfusion(cell_size_m=cell_size_m)


class TestTargetSelection:
    def test_never_selects_self(self, past):
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        target, _ = hmc.select_target(cluster_trace("u1", 45.00, 4.00, seed=9))
        assert target != "u1"

    def test_selects_nearest_neighbour(self, past):
        # u1 lives ~2.5 km from u2 and ~60 km from u3.
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        target, _ = hmc.select_target(cluster_trace("u1", 45.00, 4.00, seed=9))
        assert target == "u2"

    def test_unknown_user_allowed(self, past):
        # A trace from a user absent from the pool can pick any profile.
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        target, _ = hmc.select_target(cluster_trace("stranger", 45.01, 4.01))
        assert target in {"u1", "u2", "u3"}

    def test_apply_passes_its_own_heatmap_bit_identical(self, past):
        # apply() reduces the trace to cells once and hands the resulting
        # query heatmap to select_target: it must equal build_heatmap's.
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        seen = []
        select_target = hmc.select_target
        hmc.select_target = lambda trace, heatmap=None: (
            seen.append(heatmap) or select_target(trace, heatmap)
        )
        trace = cluster_trace("u1", 45.00, 4.00, seed=9)
        hmc.apply(trace)
        (query,) = seen
        for ours, built in zip(query.packed(), build_heatmap(trace, hmc.grid).packed()):
            assert ours.dtype == built.dtype
            assert ours.tobytes() == built.tobytes()
        assert select_target(trace, query) == select_target(trace)


class TestObfuscation:
    def test_output_lands_in_target_support(self, past):
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        trace = cluster_trace("u1", 45.00, 4.00, seed=9)
        target_user, target_hm = hmc.select_target(trace)
        out = hmc.apply(trace)
        out_hm = build_heatmap(out, hmc.grid)
        # Every output cell must be in (or adjacent to) the target's support:
        # the mapping moves cell centres, so within-cell offsets can spill
        # to a neighbouring cell at most.
        target_cells = target_hm.support()
        for cell in out_hm.cells():
            near = cell in target_cells or any(
                n in target_cells for n in hmc.grid.neighbours(cell)
            )
            assert near

    def test_confuses_topsoe_divergence(self, past):
        # After HMC, the trace's heatmap is closer to the target's than
        # the original was.
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        trace = cluster_trace("u1", 45.00, 4.00, seed=9)
        _, target_hm = hmc.select_target(trace)
        before = divergence(build_heatmap(trace, hmc.grid), target_hm)
        out = hmc.apply(trace)
        after = divergence(build_heatmap(out, hmc.grid), target_hm)
        assert after <= before

    def test_preserves_timestamps_and_count(self, past):
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        trace = cluster_trace("u1", 45.00, 4.00, seed=9)
        out = hmc.apply(trace)
        assert len(out) == len(trace)
        assert np.array_equal(out.timestamps, trace.timestamps)

    def test_pure_nearest_mapping_is_local(self, past):
        # With popularity_weight=0 the mapping is pure nearest-cell: a
        # record already inside the target's support stays in place — the
        # locality property DESIGN.md calls out.
        hmc = HeatmapConfusion(ref_lat=45.0, popularity_weight=0.0).fit(past)
        trace = cluster_trace("u2", 45.02, 4.02, seed=11)
        _, target_hm = hmc.select_target(trace)
        out = hmc.apply(trace)
        for i in range(len(trace)):
            src_cell = hmc.grid.cell_of(float(trace.lats[i]), float(trace.lngs[i]))
            if src_cell in target_hm.support():
                assert float(out.lats[i]) == pytest.approx(float(trace.lats[i]))

    def test_popularity_weight_bounded_displacement(self, past):
        # Mass-aware mapping may detour, but only within the bonus budget:
        # a decade of mass is worth popularity_weight cells of detour.
        hmc = HeatmapConfusion(ref_lat=45.0, popularity_weight=1.0).fit(past)
        trace = cluster_trace("u1", 45.00, 4.00, seed=9)
        out = hmc.apply(trace)
        from repro.geo.geodesy import haversine_m

        for i in range(0, len(trace), 7):
            moved = haversine_m(
                float(trace.lats[i]), float(trace.lngs[i]),
                float(out.lats[i]), float(out.lngs[i]),
            )
            # Nearest target cell is a few cells away at most in this
            # fixture; the detour bonus can add only ~3 cells more.
            assert moved < 12 * hmc.grid.cell_size_m

    def test_invalid_popularity_weight(self):
        for weight in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                HeatmapConfusion(popularity_weight=weight)

    def test_empty_passthrough(self, past):
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        t = Trace.empty("u1")
        assert hmc.apply(t) is t


class TestHeatmapDivergence:
    """The Topsoe divergence HMC selects by, on one-row indexes."""

    def test_identical_heatmaps_zero(self, past):
        grid = MetricGrid(800.0, 45.0)
        hm = build_heatmap(past["u1"], grid)
        assert divergence(hm, hm) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_heatmaps_max(self, past):
        grid = MetricGrid(800.0, 45.0)
        a = build_heatmap(past["u1"], grid)
        b = build_heatmap(past["u3"], grid)
        # Disjoint supports: Topsoe reaches its 2·ln2 bound.
        assert divergence(a, b) == pytest.approx(2 * np.log(2), rel=1e-6)

    def test_symmetry(self, past):
        grid = MetricGrid(800.0, 45.0)
        a = build_heatmap(past["u1"], grid)
        b = build_heatmap(past["u2"], grid)
        assert divergence(a, b) == pytest.approx(divergence(b, a))
