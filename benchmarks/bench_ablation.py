"""Ablation benches for the §6 extensions.

Compares the paper's exhaustive composition search against the greedy
success-ordered heuristic (protection outcome, attack-evaluation count),
the n = 3 vs n = 5 LPPM suites, and the three fine-grained split
policies — the design choices DESIGN.md §5 calls out.
"""

import pytest

from benchmarks.conftest import get_context, run_once
from repro.core.engine import ProtectionEngine
from repro.core.search import GreedySuccessSearch
from repro.lppm import Promesse, SpatialCloaking


@pytest.fixture(scope="module")
def ctx():
    return get_context("privamov")


class TestSearchStrategyAblation:
    def test_exhaustive_baseline(self, benchmark, ctx):
        mood = ctx.engine()
        ev = run_once(
            benchmark,
            lambda: mood.evaluate("mood", ctx.test, composition_only=True).result,
        )
        print(f"\nexhaustive: {len(ev.composition_survivors())} survivors, "
              f"{mood.evaluations} candidate evaluations")
        assert mood.evaluations > 0

    def test_greedy_heuristic(self, benchmark, ctx):
        exhaustive = ctx.engine()
        exhaustive.evaluate("mood", ctx.test, composition_only=True)
        greedy = ProtectionEngine(
            ctx.lppms, ctx.attacks, seed=ctx.seed,
            search_strategy=GreedySuccessSearch(),
        )
        ev = run_once(
            benchmark,
            lambda: greedy.evaluate("mood", ctx.test, composition_only=True).result,
        )
        print(f"\ngreedy: {len(ev.composition_survivors())} survivors, "
              f"{greedy.evaluations} evaluations "
              f"(exhaustive: {exhaustive.evaluations})")
        # The heuristic must not protect fewer users...
        base = ctx.engine().evaluate("mood", ctx.test, composition_only=True).result
        assert len(ev.composition_survivors()) <= len(base.composition_survivors()) + 1
        # ...while spending fewer attack evaluations.
        assert greedy.evaluations <= exhaustive.evaluations


class TestSuiteSizeAblation:
    def test_five_lppm_suite(self, benchmark, ctx):
        extended = ctx.lppms + [
            Promesse(epsilon_m=200.0),
            SpatialCloaking(cell_size_m=400.0, ref_lat=45.76),
        ]
        # Cap chains at length 2 to keep the 325-candidate space tractable
        # at bench scale while still exercising the extended suite.
        mood = ProtectionEngine(
            extended, ctx.attacks, seed=ctx.seed,
            max_composition_length=2,
            search_strategy=GreedySuccessSearch(),
        )
        ev = run_once(
            benchmark,
            lambda: mood.evaluate("mood", ctx.test, composition_only=True).result,
        )
        base = ctx.engine().evaluate("mood", ctx.test, composition_only=True).result
        print(f"\nn=5 (len≤2, greedy): {len(ev.composition_survivors())} survivors "
              f"vs n=3 exhaustive: {len(base.composition_survivors())}")
        assert len(ev.composition_survivors()) <= len(ctx.test)


class TestSplitPolicyAblation:
    @pytest.mark.parametrize("policy", ["half", "gap", "inter-poi"])
    def test_policy_loss(self, benchmark, ctx, policy):
        mood = ProtectionEngine(ctx.lppms, ctx.attacks, seed=ctx.seed, split_policy=policy)
        ev = run_once(benchmark, lambda: mood.evaluate("mood", ctx.test).result)
        print(f"\nsplit={policy}: data loss {100 * ev.data_loss():.2f}%")
        assert 0.0 <= ev.data_loss() <= 1.0
