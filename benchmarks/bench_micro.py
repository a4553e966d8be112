"""Micro-benchmarks and ablations (DESIGN.md X1/X2 and §5).

Covers the operational costs the deployment story depends on — attack
training, per-trace re-identification, LPPM application — plus the
ablations DESIGN.md calls out: composition-search cost vs n (the §6
brute-force caveat), the δ floor sweep, and split policies.
"""

import numpy as np
import pytest

from benchmarks.conftest import get_context
from repro.attacks.ap_attack import ApAttack
from repro.attacks.pit_attack import PitAttack
from repro.attacks.poi_attack import PoiAttack, poi_set_distance
from repro.attacks.reference import (
    ap_rank_reference,
    poi_rank_reference,
    poi_set_distance_reference,
    topsoe_divergences_reference,
)
from repro.bench import CITY_LAT, synthetic_background, synthetic_trace, time_fn
from repro.core.composition import composition_count, enumerate_compositions
from repro.core.engine import ProtectionEngine
from repro.core.split import split_fixed_time, split_on_gaps
from repro.lppm import GeoInd, Trilateration
from repro.poi.clustering import extract_pois
from repro.poi.heatmap import build_heatmap


@pytest.fixture(scope="module")
def ctx():
    return get_context("privamov")


# -- fitted attacks at N profiled users (shared across the scaling benches)

_scaled_attacks = {}


def get_scaled_attacks(n_users):
    if n_users not in _scaled_attacks:
        background = synthetic_background(n_users, seed=7)
        probe = synthetic_trace("probe", seed=6)
        ap = ApAttack(cell_size_m=800.0, ref_lat=CITY_LAT).fit(background)
        poi = PoiAttack().fit(background)
        pit = PitAttack().fit(background)
        _scaled_attacks[n_users] = (ap, poi, pit, probe)
    return _scaled_attacks[n_users]


class TestAttackCosts:
    def test_ap_attack_fit(self, benchmark, ctx):
        from repro.attacks import ApAttack

        attack = ApAttack(cell_size_m=800.0, ref_lat=45.76)
        benchmark(lambda: ApAttack(cell_size_m=800.0, ref_lat=45.76).fit(ctx.train))
        assert attack.fit(ctx.train).is_fitted

    def test_ap_attack_rank(self, benchmark, ctx):
        attack = ctx.attack_by_name["AP-attack"]
        trace = ctx.test.traces()[0]
        ranked = benchmark(lambda: attack.rank(trace))
        assert len(ranked) >= 1

    def test_poi_attack_rank(self, benchmark, ctx):
        attack = ctx.attack_by_name["POI-attack"]
        trace = ctx.test.traces()[0]
        benchmark(lambda: attack.rank(trace))

    def test_pit_attack_rank(self, benchmark, ctx):
        attack = ctx.attack_by_name["PIT-attack"]
        trace = ctx.test.traces()[0]
        benchmark(lambda: attack.rank(trace))


class TestKernelScaling:
    """ISSUE 2 acceptance: rank() at N profiled users, fast vs reference.

    The references are the retained scalar implementations
    (:mod:`repro.attacks.reference`), fitted on the *same* background —
    the speedup is measured, not remembered.
    """

    @pytest.mark.parametrize("n_users", [100, 1000])
    def test_ap_rank_at_n_users(self, benchmark, n_users):
        ap, _, _, probe = get_scaled_attacks(n_users)
        ranked = benchmark(lambda: ap.rank(probe))
        assert len(ranked) == n_users

    @pytest.mark.parametrize("kernel", ["sparse", "reference"])
    @pytest.mark.parametrize("n_users", [100, 1000])
    def test_topsoe_divergences_at_n_users(self, benchmark, n_users, kernel):
        """The AP/HMC Topsoe kernel on a Geo-I probe; both kernels return
        the same bytes."""
        ap, _, _, probe = get_scaled_attacks(n_users)
        query = build_heatmap(GeoInd(0.01).apply(probe, rng=0), ap.grid)
        if kernel == "sparse":
            div = benchmark(lambda: ap.index.divergences(query))
        else:
            div = benchmark(lambda: topsoe_divergences_reference(ap.index, query))
        assert div.tobytes() == topsoe_divergences_reference(ap.index, query).tobytes()

    @pytest.mark.parametrize("n_users", [100, 1000])
    def test_poi_rank_at_n_users(self, benchmark, n_users):
        _, poi, _, probe = get_scaled_attacks(n_users)
        ranked = benchmark(lambda: poi.rank(probe))
        assert len(ranked) == n_users

    @pytest.mark.parametrize("n_users", [100, 1000])
    def test_ap_top1_at_n_users(self, benchmark, n_users):
        ap, _, _, probe = get_scaled_attacks(n_users)
        top = benchmark(lambda: ap.top1(probe))
        assert top == ap.rank(probe)[0]

    @pytest.mark.parametrize("n_users", [100, 1000])
    def test_poi_top1_at_n_users(self, benchmark, n_users):
        _, poi, _, probe = get_scaled_attacks(n_users)
        top = benchmark(lambda: poi.top1(probe))
        assert top == poi.rank(probe)[0]

    @pytest.mark.parametrize("n_users", [100, 1000])
    def test_pit_rank_at_n_users(self, benchmark, n_users):
        _, _, pit, probe = get_scaled_attacks(n_users)
        ranked = benchmark(lambda: pit.rank(probe))
        assert len(ranked) == n_users

    @pytest.mark.parametrize("n_users", [100, 1000])
    def test_pit_top1_at_n_users(self, benchmark, n_users):
        _, _, pit, probe = get_scaled_attacks(n_users)
        top = benchmark(lambda: pit.top1(probe))
        assert top == pit.rank(probe)[0]

    def test_rank_speedup_vs_reference_at_1000_users(self):
        """The ≥5× acceptance bar, asserted against live measurements."""
        ap, poi, _, probe = get_scaled_attacks(1000)
        ap_fast = time_fn(lambda: ap.rank(probe), repeat=3)
        ap_ref = time_fn(lambda: ap_rank_reference(ap, probe), repeat=3)
        poi_fast = time_fn(lambda: poi.rank(probe), repeat=3)
        poi_ref = time_fn(lambda: poi_rank_reference(poi, probe), repeat=3)
        print(
            f"\nAP-attack.rank  @1000: {ap_fast * 1e3:.2f} ms vs "
            f"{ap_ref * 1e3:.2f} ms reference ({ap_ref / ap_fast:.1f}x)"
        )
        print(
            f"POI-attack.rank @1000: {poi_fast * 1e3:.2f} ms vs "
            f"{poi_ref * 1e3:.2f} ms reference ({poi_ref / poi_fast:.1f}x)"
        )
        assert ap_ref / ap_fast >= 5.0
        assert poi_ref / poi_fast >= 5.0


class TestFeatureKernels:
    """POI extraction and set-distance micro-kernels."""

    def test_extract_pois(self, benchmark, ctx):
        trace = ctx.test.traces()[0]
        pois = benchmark(lambda: extract_pois(trace))
        assert isinstance(pois, list)

    def test_poi_set_distance(self, benchmark):
        a = PoiAttack()._extract(synthetic_trace("a", seed=1, n_places=6))
        b = PoiAttack()._extract(synthetic_trace("b", seed=2, n_places=6))
        assert a and b
        fast = benchmark(lambda: poi_set_distance(a, b))
        assert fast == pytest.approx(poi_set_distance_reference(a, b), rel=1e-9)


class TestLppmCosts:
    def test_geoi_apply(self, benchmark, ctx):
        trace = ctx.test.traces()[0]
        out = benchmark(lambda: GeoInd(0.01).apply(trace, rng=0))
        assert len(out) == len(trace)

    def test_trl_apply(self, benchmark, ctx):
        trace = ctx.test.traces()[0]
        out = benchmark(lambda: Trilateration(1000.0).apply(trace, rng=0))
        assert len(out) == 3 * len(trace)

    def test_hmc_apply(self, benchmark, ctx):
        hmc = ctx.lppm_by_name["HMC"]
        trace = ctx.test.traces()[0]
        out = benchmark(lambda: hmc.apply(trace, rng=0))
        assert len(out) == len(trace)


class TestCompositionAblation:
    """X2: brute-force composition search cost grows super-exponentially."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_search_space_vs_n(self, benchmark, ctx, n):
        lppms = (ctx.lppms * 2)[:n]
        # Rename duplicates so composition constraints allow them.
        import copy

        stages = []
        for i, lppm in enumerate(lppms):
            clone = copy.copy(lppm)
            clone.name = f"{lppm.name}#{i}"
            stages.append(clone)
        chains = benchmark.pedantic(
            lambda: enumerate_compositions(stages), rounds=3, iterations=1
        )
        assert len(chains) == composition_count(n)

    def test_mood_protect_one_user(self, benchmark, ctx):
        mood = ctx.engine()
        trace = ctx.test.traces()[0]
        result = benchmark.pedantic(
            lambda: mood.protect(trace), rounds=1, iterations=1
        )
        assert result.original_records == len(trace)


class TestDeltaAblation:
    """DESIGN.md §5: the δ floor bounds both loss and shredding depth."""

    @pytest.mark.parametrize("delta_h", [2.0, 4.0, 12.0])
    def test_delta_sweep(self, benchmark, ctx, delta_h):
        mood = ProtectionEngine(
            ctx.lppms, ctx.attacks, delta_s=delta_h * 3600.0, seed=ctx.seed
        )
        ev = benchmark.pedantic(
            lambda: mood.evaluate("mood", ctx.test).result, rounds=1, iterations=1
        )
        losses = ev.data_loss()
        print(f"\nδ={delta_h}h → data loss {100 * losses:.2f}%")
        assert 0.0 <= losses <= 1.0


class TestSplitPolicyAblation:
    """Paper §6 future work: time-based vs gap-based splitting."""

    def test_fixed_time_policy(self, benchmark, ctx):
        trace = ctx.test.traces()[0]
        chunks = benchmark(lambda: split_fixed_time(trace, 86_400.0))
        assert sum(len(c) for c in chunks) == len(trace)

    def test_gap_policy(self, benchmark, ctx):
        trace = ctx.test.traces()[0]
        pieces = benchmark(lambda: split_on_gaps(trace, 3 * 3600.0))
        assert sum(len(p) for p in pieces) == len(trace)
