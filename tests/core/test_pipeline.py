"""Tests for the dataset-level evaluation runs of ``ProtectionEngine.evaluate``."""

import pytest

from repro.core.engine import ProtectionEngine
from repro.lppm.identity import Identity


def lppm_evaluation(lppm, test, attacks, seed=0):
    """Obfuscate every trace of *test* with *lppm* and score every attack."""
    engine = ProtectionEngine([lppm], attacks, seed=seed)
    return engine.evaluate("lppm", test, lppm=lppm).result


def hybrid_evaluation(hybrid, test):
    """Run the hybrid baseline over every user of *test*."""
    engine = ProtectionEngine(hybrid.lppms, hybrid.attacks, seed=hybrid.seed)
    return engine.evaluate("hybrid", test, hybrid=hybrid).result


@pytest.fixture(scope="module")
def ctx(micro_ctx):
    return micro_ctx


class TestEvaluateLppm:
    def test_identity_is_attackable(self, ctx):
        ev = lppm_evaluation(Identity(), ctx.test, ctx.attacks, seed=1)
        # The synthetic corpora are built to be largely re-identifiable raw.
        assert len(ev.non_protected()) >= len(ctx.test) // 2

    def test_covers_every_user(self, ctx):
        ev = lppm_evaluation(Identity(), ctx.test, ctx.attacks, seed=1)
        assert set(ev.guesses) == set(ctx.test.user_ids())
        assert set(ev.distortions) == set(ctx.test.user_ids())

    def test_identity_distortion_zero(self, ctx):
        ev = lppm_evaluation(Identity(), ctx.test, ctx.attacks, seed=1)
        assert all(d == pytest.approx(0.0, abs=1e-9) for d in ev.distortions.values())

    def test_every_attack_scored(self, ctx):
        ev = lppm_evaluation(Identity(), ctx.test, ctx.attacks, seed=1)
        attack_names = {a.name for a in ctx.attacks}
        for per_attack in ev.guesses.values():
            assert set(per_attack) == attack_names

    def test_attack_subset_readout(self, ctx):
        ev = lppm_evaluation(Identity(), ctx.test, ctx.attacks, seed=1)
        ap_only = ev.non_protected(["AP-attack"])
        all_three = ev.non_protected()
        assert ap_only <= all_three

    def test_protected_is_complement(self, ctx):
        ev = lppm_evaluation(Identity(), ctx.test, ctx.attacks, seed=1)
        assert ev.protected() | ev.non_protected() == set(ev.guesses)
        assert not ev.protected() & ev.non_protected()

    def test_geoi_distortion_near_expected(self, ctx):
        geoi = ctx.lppm_by_name["Geo-I"]
        ev = lppm_evaluation(geoi, ctx.test, ctx.attacks, seed=1)
        # Planar Laplace with ε = 0.01 → mean displacement 200 m.
        mean_distortion = sum(ev.distortions.values()) / len(ev.distortions)
        assert 120.0 < mean_distortion < 320.0

    def test_deterministic_across_runs(self, ctx):
        geoi = ctx.lppm_by_name["Geo-I"]
        ev1 = lppm_evaluation(geoi, ctx.test, ctx.attacks, seed=3)
        ev2 = lppm_evaluation(geoi, ctx.test, ctx.attacks, seed=3)
        assert ev1.guesses == ev2.guesses
        assert ev1.distortions == ev2.distortions


class TestEvaluateHybrid:
    def test_runs_every_user(self, ctx):
        ev = hybrid_evaluation(ctx.hybrid(), ctx.test)
        assert set(ev.results) == set(ctx.test.user_ids())

    def test_protected_users_have_traces(self, ctx):
        ev = hybrid_evaluation(ctx.hybrid(), ctx.test)
        for user, result in ev.results.items():
            if result.protected:
                assert result.trace is not None
                assert result.mechanism in {"HMC", "Geo-I", "TRL"}
            else:
                assert result.trace is None

    def test_hybrid_no_worse_than_best_single(self, ctx):
        # Hybrid picks per user, so it protects at least as many users as
        # the best single LPPM.
        hybrid_np = len(hybrid_evaluation(ctx.hybrid(), ctx.test).non_protected())
        single_nps = []
        for lppm in ctx.lppms:
            ev = lppm_evaluation(lppm, ctx.test, ctx.attacks, seed=ctx.seed)
            single_nps.append(len(ev.non_protected()))
        assert hybrid_np <= min(single_nps) + 1  # +1 tolerance for RNG streams

    def test_data_loss_matches_non_protected(self, ctx):
        ev = hybrid_evaluation(ctx.hybrid(), ctx.test)
        loss = ev.data_loss(ctx.test)
        lost_records = sum(len(ctx.test[u]) for u in ev.non_protected())
        assert loss == pytest.approx(lost_records / ctx.test.record_count())


class TestEvaluateMood:
    def test_composition_only_mode(self, ctx):
        ev = ctx.engine().evaluate("mood", ctx.test, composition_only=True).result
        for user, result in ev.results.items():
            # Either the whole trace is protected as one piece, or the
            # trace was 'erased' (survivor marker).
            assert result.whole_trace_protected or result.erased_records == result.original_records

    def test_full_mode_beats_composition_only(self, ctx):
        comp = ctx.engine().evaluate("mood", ctx.test, composition_only=True).result
        full = ctx.engine().evaluate("mood", ctx.test, composition_only=False).result
        assert full.data_loss() <= comp.data_loss()

    def test_mood_protects_more_than_hybrid(self, ctx):
        hybrid_np = len(hybrid_evaluation(ctx.hybrid(), ctx.test).non_protected())
        mood_np = len(
            ctx.engine().evaluate("mood", ctx.test, composition_only=True).result
            .composition_survivors()
        )
        assert mood_np <= hybrid_np

    def test_data_loss_small(self, ctx):
        ev = ctx.engine().evaluate("mood", ctx.test).result
        # Paper: 0–2.5 %.  Allow some slack on the micro corpus.
        assert ev.data_loss() <= 0.15

    def test_published_dataset_pseudonymised(self, ctx):
        ev = ctx.engine().evaluate("mood", ctx.test).result
        published = ev.published_dataset()
        originals = set(ctx.test.user_ids())
        for trace in published:
            assert trace.user_id not in originals
            assert "#" in trace.user_id

    def test_published_pieces_resist_attacks(self, ctx):
        ev = ctx.engine().evaluate("mood", ctx.test).result
        for user, result in ev.results.items():
            for piece in result.pieces:
                for attack in ctx.attacks:
                    assert attack.reidentify(piece.published) != user
