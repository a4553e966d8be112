"""Equivalence property tests: vectorised kernels vs scalar references.

The perf overhaul rewrote the attack hot paths (zero-copy Topsoe kernel,
the packed place index behind the POI- and PIT-attacks, loop-optimised
clustering).  These tests pin them, on randomised traces, to the
retained original implementations in :mod:`repro.attacks.reference` and
:mod:`repro.poi.clustering`:

* POI extraction (``extract_pois``) must be **bit-identical** — same
  arithmetic, same POIs, all fields;
* rankings must be identical wherever they carry information — order
  and distances agree, with reordering permitted only inside
  floating-point-degenerate tie groups (see
  :func:`repro.attacks.reference.rankings_equivalent`); this holds for
  the AP-attack, the POI-attack and every PIT-attack distance variant;
* every ``top1`` fast path must equal ``rank()[0]`` exactly, including
  the tie-break by user id — the engine's ``is_protected`` loop relies
  on that contract;
* the :class:`~repro.poi.heatmap.TopsoeIndex` behind the AP-attack and
  HMC is **bit-identical** to the dense ``(users × cells)`` gather it
  replaced, HMC's target matches the scalar per-profile loop up to
  degenerate ties, and HMC's vectorised cell mapping reproduces the
  per-record loop byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.ap_attack import ApAttack
from repro.attacks.pit_attack import PIT_DISTANCES, PitAttack
from repro.attacks.poi_attack import PoiAttack, poi_set_distance
from repro.attacks.reference import (
    ap_rank_reference,
    hmc_target_reference,
    pit_rank_reference,
    poi_rank_reference,
    poi_set_distance_reference,
    rankings_equivalent,
)
from repro.bench import CITY_LAT, synthetic_background, synthetic_trace
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.geo.grid import Cell
from repro.lppm.geoi import GeoInd
from repro.lppm.hmc import HeatmapConfusion
from repro.lppm.trl import Trilateration
from repro.poi.heatmap import build_heatmap
from repro.poi.clustering import POI, extract_pois, extract_pois_reference


def random_walk_trace(seed, n=400, lat0=45.76, lng0=4.84, step_m=60.0):
    """A jittery random walk with occasional long dwells — adversarial
    input for the sequential clustering (constant boundary decisions)."""
    rng = np.random.default_rng(seed)
    deg = step_m / 111_320.0
    dlat = rng.normal(0.0, deg, size=n)
    dlng = rng.normal(0.0, deg, size=n)
    # Freeze movement in random stretches to create qualifying dwells.
    for _ in range(4):
        start = rng.integers(0, max(1, n - 40))
        span = rng.integers(15, 40)
        dlat[start : start + span] *= 0.02
        dlng[start : start + span] *= 0.02
    dts = rng.integers(30, 600, size=n).astype(float)
    return Trace(
        f"w{seed}",
        np.cumsum(dts),
        lat0 + np.cumsum(dlat),
        lng0 + np.cumsum(dlng),
    )


def random_pois(seed, n, lat0=45.76, lng0=4.84, spread=0.01):
    rng = np.random.default_rng(seed)
    return [
        POI(
            lat=lat0 + rng.uniform(-spread, spread),
            lng=lng0 + rng.uniform(-spread, spread),
            weight=int(rng.integers(1, 20)),
            dwell_s=float(rng.uniform(3600, 40000)),
            t_enter=float(rng.uniform(0, 1e6)),
            t_exit=float(rng.uniform(1e6, 2e6)),
        )
        for _ in range(n)
    ]


class TestClusteringEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_extract_pois_bit_identical(self, seed):
        trace = random_walk_trace(seed)
        assert extract_pois(trace) == extract_pois_reference(trace)

    @pytest.mark.parametrize("seed", range(4))
    def test_extract_pois_parameter_sweep(self, seed):
        trace = random_walk_trace(seed + 100, n=250)
        for diameter, dwell in [(100.0, 1800.0), (200.0, 3600.0), (500.0, 600.0)]:
            assert extract_pois(trace, diameter, dwell) == extract_pois_reference(
                trace, diameter, dwell
            )

    def test_extract_pois_empty_trace(self):
        assert extract_pois(Trace.empty("u")) == []


class TestRankingsEquivalent:
    """The tie rule the fast kernels are judged by."""

    def test_reorder_allowed_only_inside_ties(self):
        ref = [("a", 0.5), ("b", 0.5 + 1e-13), ("c", 0.9)]
        assert rankings_equivalent([("b", 0.5 + 1e-13), ("a", 0.5), ("c", 0.9)], ref)
        assert not rankings_equivalent([("c", 0.9), ("a", 0.5), ("b", 0.5)], ref)

    def test_rejects_other_candidates_or_distances(self):
        ref = [("a", 0.5), ("b", 0.7)]
        assert not rankings_equivalent([("a", 0.5)], ref)
        assert not rankings_equivalent([("a", 0.5), ("a", 0.7)], ref)
        assert not rankings_equivalent([("a", 0.5), ("c", 0.7)], ref)
        assert not rankings_equivalent([("a", 0.5), ("b", 0.8)], ref)


class TestPoiSetDistanceEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed + 500)
        a = random_pois(seed * 2, int(rng.integers(1, 15)))
        b = random_pois(seed * 2 + 1, int(rng.integers(1, 15)))
        fast = poi_set_distance(a, b)
        ref = poi_set_distance_reference(a, b)
        assert fast == pytest.approx(ref, rel=1e-12)

    def test_symmetry_and_identity(self):
        a = random_pois(3, 6)
        b = random_pois(4, 9)
        assert poi_set_distance(a, b) == pytest.approx(poi_set_distance(b, a))
        assert poi_set_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    def test_empty_sets_infinite(self):
        a = random_pois(5, 3)
        assert math.isinf(poi_set_distance(a, []))
        assert math.isinf(poi_set_distance([], a))


def fit_pit_variants(background):
    """One fitted PIT-attack per selectable distance."""
    return {name: PitAttack(distance=name).fit(background) for name in PIT_DISTANCES}


@pytest.fixture(scope="module")
def small_suite():
    """40 users + mixed probes."""
    background = synthetic_background(40, seed=11)
    ap = ApAttack(cell_size_m=800.0, ref_lat=CITY_LAT).fit(background)
    poi = PoiAttack().fit(background)
    probes = [synthetic_trace(f"p{i}", seed=900 + i) for i in range(4)]
    probes += [background.traces()[0], background.traces()[17]]
    return ap, poi, fit_pit_variants(background), probes


@pytest.fixture(scope="module")
def large_suite():
    """84 users + mixed probes."""
    n = 84
    background = synthetic_background(n, seed=23)
    ap = ApAttack(cell_size_m=800.0, ref_lat=CITY_LAT).fit(background)
    poi = PoiAttack().fit(background)
    probes = [synthetic_trace(f"q{i}", seed=700 + i) for i in range(4)]
    probes += [background.traces()[3], background.traces()[n - 1]]
    return ap, poi, fit_pit_variants(background), probes


class TestRankingEquivalence:
    def test_ap_rank_matches_reference(self, small_suite):
        ap, _, _, probes = small_suite
        for probe in probes:
            assert rankings_equivalent(ap.rank(probe), ap_rank_reference(ap, probe))

    def test_poi_rank_matches_reference(self, small_suite):
        _, poi, _, probes = small_suite
        for probe in probes:
            fast = poi.rank(probe)
            ref = poi_rank_reference(poi, probe)
            assert rankings_equivalent(fast, ref, tol=1e-6)

    def test_ap_rank_matches_reference_at_scale(self, large_suite):
        ap, _, _, probes = large_suite
        for probe in probes:
            assert rankings_equivalent(ap.rank(probe), ap_rank_reference(ap, probe))

    def test_poi_rank_matches_reference_at_scale(self, large_suite):
        _, poi, _, probes = large_suite
        for probe in probes:
            assert rankings_equivalent(
                poi.rank(probe), poi_rank_reference(poi, probe), tol=1e-6
            )

    @pytest.mark.parametrize("suite", ["small_suite", "large_suite"])
    def test_pit_rank_matches_reference(self, request, suite):
        _, _, pits, probes = request.getfixturevalue(suite)
        for pit in pits.values():
            for probe in probes:
                assert rankings_equivalent(pit.rank(probe), pit_rank_reference(pit, probe))

    def test_background_user_ranks_first(self, small_suite):
        # The unobfuscated own trace must beat every other profile.
        ap, poi, _, _ = small_suite
        for attack in (ap, poi):
            trace = synthetic_trace("user0007", seed=11 * 100_003 + 7)
            ranked = attack.rank(trace)
            assert ranked and ranked[0][0] == "user0007"


class TestTop1Contract:
    def test_ap_top1_equals_rank_head(self, small_suite):
        ap, _, _, probes = small_suite
        for probe in probes:
            assert ap.top1(probe) == ap.rank(probe)[0]

    def test_poi_top1_equals_rank_head_brute_path(self, small_suite):
        _, poi, _, probes = small_suite
        for probe in probes:
            assert poi.top1(probe) == poi.rank(probe)[0]

    def test_poi_top1_equals_rank_head_ring_path(self, large_suite):
        _, poi, _, probes = large_suite
        for probe in probes:
            assert poi.top1(probe) == poi.rank(probe)[0]

    @pytest.mark.parametrize("suite", ["small_suite", "large_suite"])
    def test_pit_top1_equals_rank_head(self, request, suite):
        _, _, pits, probes = request.getfixturevalue(suite)
        for pit in pits.values():
            for probe in probes:
                assert pit.top1(probe) == pit.rank(probe)[0]

    def test_top1_none_iff_rank_empty(self, small_suite):
        ap, poi, pits, _ = small_suite
        # A 2-record trace has no POI and an almost-empty heatmap.
        stub = Trace("x", [0.0, 60.0], [45.76, 45.76], [4.84, 4.84])
        assert (poi.top1(stub) is None) == (poi.rank(stub) == [])
        assert (ap.top1(stub) is None) == (ap.rank(stub) == [])
        assert ap.top1(Trace.empty("x")) is None
        assert ap_rank_reference(ap, Trace.empty("x")) == []
        for pit in pits.values():
            for trace in (stub, Trace.empty("x")):
                assert pit.rank(trace) == [] == pit_rank_reference(pit, trace)
                assert pit.top1(trace) is None

    def test_no_profile_no_hypothesis(self, small_suite):
        # Constant movement: nobody in the background gets a POI, so the
        # place index is empty while the probe has places to match.
        n = 50
        moving = Trace("m", np.arange(n) * 60.0, 45.0 + np.arange(n) * 0.003, np.full(n, 4.0))
        *_, probes = small_suite
        probe = probes[0]
        for attack in (PoiAttack(), PitAttack()):
            attack.fit(MobilityDataset("bg", [moving]))
            assert attack.index.users == ()
            assert attack.rank(probe) == [] and attack.top1(probe) is None

    def test_reidentify_routes_through_top1(self, small_suite):
        ap, poi, _, probes = small_suite
        for attack in (ap, poi):
            for probe in probes:
                ranked = attack.rank(probe)
                expected = ranked[0][0] if ranked else "unknown-user"
                got = attack.reidentify(probe)
                if ranked:
                    assert got == expected


# -- the Topsoe index behind the AP-attack and HMC ---------------------------


def dense_gather_divergences(ap, trace):
    """AP divergences as the dense kernel computed them before the index:
    gather the query's columns from the ``(users × cells)`` profile matrix
    and its ``p ln p``, plus the closed-form correction."""
    matrix = ap.profile_matrix()
    plogp = np.where(matrix > 0.0, matrix * np.log(np.maximum(matrix, 1e-12)), 0.0)
    cell_index = {cell: j for j, cell in enumerate(ap.index.cells())}
    cols, qvals, q_out = [], [], 0.0
    for cell, mass in build_heatmap(trace, ap.grid).items():
        j = cell_index.get(cell)
        if j is None:
            q_out += mass
        else:
            cols.append(j)
            qvals.append(mass)
    div = np.full(matrix.shape[0], float(np.log(2.0)) * (1.0 + q_out))
    if cols:
        col_idx = np.asarray(cols, dtype=np.intp)
        q = np.asarray(qvals, dtype=np.float64)
        m = matrix[:, col_idx] + q[None, :]
        div += (plogp[:, col_idx] - m * np.log(m)).sum(axis=1)
        div += float((q * np.log(2.0 * q)).sum())
    return div


def hmc_fast_ranking(hmc, trace):
    """Every other user by the index's divergence, sorted by (divergence, user)."""
    div = hmc.index.divergences(build_heatmap(trace, hmc.grid))
    ranked = [(u, float(d)) for u, d in zip(hmc.index.users, div) if u != trace.user_id]
    return sorted(ranked, key=lambda ud: (ud[1], ud[0]))


def hmc_apply_reference(hmc, trace):
    """HMC's original per-record materialisation: map each record's cell to
    the mass-aware nearest target cell (one scalar argmin per new source
    cell), then shift the record by the difference of the cell centres."""
    _, target = hmc.select_target(trace)
    grid = hmc.grid
    target_cells = target.cells()
    centers = np.array([grid.center_of(c) for c in target_cells])
    bonus = hmc.popularity_weight * np.log10(
        np.array([target.mass(c) for c in target_cells]) + 1e-12
    )
    cos_ref = math.cos(math.radians(grid.ref_lat))
    mapping = {}
    new_lats = np.array(trace.lats, copy=True)
    new_lngs = np.array(trace.lngs, copy=True)
    for i in range(len(trace)):
        src = grid.cell_of(float(trace.lats[i]), float(trace.lngs[i]))
        src_lat, src_lng = grid.center_of(src)
        dst = mapping.get(src)
        if dst is None:
            d_cells = (
                np.hypot(
                    (centers[:, 0] - src_lat) * 111_320.0,
                    (centers[:, 1] - src_lng) * 111_320.0 * cos_ref,
                )
                / grid.cell_size_m
            )
            dst = mapping[src] = target_cells[int(np.argmin(d_cells - bonus))]
        if dst != src:
            dst_lat, dst_lng = grid.center_of(dst)
            new_lats[i] += dst_lat - src_lat
            new_lngs[i] += dst_lng - src_lng
    return np.clip(new_lats, -90.0, 90.0), (new_lngs + 540.0) % 360.0 - 180.0


def far_trace(user_id):
    """A trace ~500 km from every synthetic profile: no shared cell."""
    trace = synthetic_trace(user_id, seed=5)
    return trace.with_positions(trace.lats + 5.0, trace.lngs)


#: ``(ix, iy, records)`` per visited cell, relative to the cell of the
#: city centre; queries also reach cells no profile visits.
CELL_COUNTS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4)), min_size=1, max_size=20
)
QUERY_COUNTS = st.lists(
    st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.integers(1, 4)), min_size=1, max_size=30
)


def cells_trace(grid, user_id, cells):
    """A trace with *records* points at the centre of each ``(ix, iy)``
    cell, so its heatmap masses are the normalised record counts."""
    base = grid.cell_of(CITY_LAT, 4.84)
    points = [
        grid.center_of(Cell(base.ix + ix, base.iy + iy))
        for ix, iy, records in cells
        for _ in range(records)
    ]
    lats, lngs = np.array(points).T
    return Trace(user_id, np.arange(len(points)) * 60.0, lats, lngs)


@pytest.fixture(scope="module")
def hmc_suite():
    background = synthetic_background(40, seed=11)
    hmc = HeatmapConfusion(cell_size_m=800.0, ref_lat=CITY_LAT).fit(background)
    return hmc, background


class TestTopsoeIndexEquivalence:
    def test_ap_divergences_bit_identical_to_dense_gather(self, small_suite, large_suite):
        geoi, trl = GeoInd(epsilon=0.01), Trilateration(radius_m=1000.0)
        for ap, _, _, probes in (small_suite, large_suite):
            queries = list(probes) + [far_trace("far")]
            for i, probe in enumerate(probes):
                queries += [geoi.apply(probe, rng=i), trl.apply(probe, rng=i)]
            for query in queries:
                fast = ap._divergences(query)
                assert fast.tobytes() == dense_gather_divergences(ap, query).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(profiles=st.lists(CELL_COUNTS, min_size=1, max_size=6), query=QUERY_COUNTS)
    @example(profiles=[[(0, 0, 1), (1, 0, 2), (3, 4, 1)]], query=[(1, 0, 1), (5, 5, 1)])
    @example(profiles=[[(0, 0, 2)], [(0, 0, 1), (2, 2, 1)], [(4, 1, 3)]], query=[(0, 0, 3)])
    @example(profiles=[[(0, 0, 1), (1, 1, 1)], [(2, 2, 1)]], query=[(40, 40, 2), (41, 40, 1)])
    @example(
        profiles=[[(0, 0, 1), (1, 0, 1), (2, 0, 1)], [(1, 0, 2), (2, 0, 2)], [(0, 0, 1)]],
        query=[(0, 0, 1), (1, 0, 1), (2, 0, 1), (9, 9, 1)],
    )
    @example(
        profiles=[
            [(3, 1, 2), (1, 2, 3), (3, 2, 2), (3, 2, 2)],
            [(1, 0, 3), (2, 0, 3), (0, 1, 3), (2, 1, 3), (1, 1, 2)],
        ],
        query=[(ix, iy, 1 + (ix + iy) % 3) for iy in range(3) for ix in range(4)],
    )
    def test_divergences_bit_identical_to_dense_gather(self, profiles, query):
        """Random profiles and queries, a single profile row, a single
        query column, a query wholly outside the vocabulary, repeated
        masses, and eight columns, where a pairwise row sum would move
        the last ulp (the explicit examples, in that order)."""
        ap = ApAttack(cell_size_m=800.0, ref_lat=CITY_LAT)
        ap.fit(
            MobilityDataset(
                "bg", [cells_trace(ap.grid, f"u{i}", cells) for i, cells in enumerate(profiles)]
            )
        )
        trace = cells_trace(ap.grid, "q", query)
        fast = ap.index.divergences(build_heatmap(trace, ap.grid))
        assert fast.tobytes() == dense_gather_divergences(ap, trace).tobytes()

    def test_hmc_target_matches_reference_loop(self, hmc_suite):
        hmc, background = hmc_suite
        probes = [synthetic_trace(f"p{i}", seed=900 + i) for i in range(4)]
        probes += [background.traces()[0], background.traces()[17]]
        probes += [synthetic_trace("stranger", seed=31), far_trace("user0005")]
        for probe in probes:
            fast = hmc_fast_ranking(hmc, probe)
            reference = hmc_target_reference(hmc, probe)
            assert rankings_equivalent(fast, reference)
            target, _ = hmc.select_target(probe)
            assert target == fast[0][0] and target != probe.user_id

    def test_disjoint_trace_gets_smallest_other_user(self, hmc_suite):
        hmc, _ = hmc_suite
        users = hmc.index.users
        assert hmc.select_target(far_trace("stranger"))[0] == users[0]
        assert hmc.select_target(far_trace(users[0]))[0] == users[1]

    def test_own_trace_never_selected(self, hmc_suite):
        hmc, background = hmc_suite
        for trace in background.traces()[:8]:
            assert hmc.select_target(trace)[0] != trace.user_id

    def test_two_profile_pool_picks_the_other_user(self):
        background = synthetic_background(2, seed=3)
        hmc = HeatmapConfusion(cell_size_m=800.0, ref_lat=CITY_LAT).fit(background)
        own = background.traces()[1]
        assert hmc.select_target(own)[0] == background.traces()[0].user_id
        assert hmc_target_reference(hmc, own)[0][0] == background.traces()[0].user_id


#: One centre per lat/lng sign quadrant, plus one straddling (0, 0).
QUADRANTS = [(45.76, 4.84), (-33.45, 151.21), (-33.45, -70.66), (40.71, -74.0), (0.0005, -0.0005)]


class TestHmcApplyEquivalence:
    @pytest.mark.parametrize("weight", [0.0, 1.0])
    @pytest.mark.parametrize("lat0,lng0", QUADRANTS)
    def test_bit_identical_to_per_record_loop(self, lat0, lng0, weight):
        past = MobilityDataset(
            "past",
            [
                random_walk_trace(40 + k, n=300, lat0=lat0 + 0.01 * k, lng0=lng0, step_m=250.0)
                for k in range(-2, 3)
            ],
        )
        hmc = HeatmapConfusion(cell_size_m=800.0, ref_lat=lat0, popularity_weight=weight)
        hmc.fit(past)
        for seed in (1, 2, 3):
            probe = random_walk_trace(seed, lat0=lat0, lng0=lng0, step_m=300.0)
            out = hmc.apply(probe)
            lats, lngs = hmc_apply_reference(hmc, probe)
            assert out.lats.tobytes() == lats.tobytes()
            assert out.lngs.tobytes() == lngs.tobytes()
            assert out.timestamps.tobytes() == probe.timestamps.tobytes()
