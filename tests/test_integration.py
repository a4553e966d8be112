"""End-to-end integration tests reproducing the paper's core claims in miniature.

These are the repository's acceptance tests: on a small synthetic corpus
the full stack (generators → attacks → LPPMs → MooD → metrics) must
exhibit the paper's qualitative results.
"""

import pytest

from repro import ProtectionEngine, composition_count, data_loss
from repro.lppm import Identity


def lppm_evaluation(lppm, test, attacks, seed=0):
    """Obfuscate every trace of *test* with *lppm* and score every attack."""
    engine = ProtectionEngine([lppm], attacks, seed=seed)
    return engine.evaluate("lppm", test, lppm=lppm).result


def hybrid_evaluation(hybrid, test):
    """Run the hybrid baseline over every user of *test*."""
    engine = ProtectionEngine(hybrid.lppms, hybrid.attacks, seed=hybrid.seed)
    return engine.evaluate("hybrid", test, hybrid=hybrid).result


class TestPaperClaims:
    """Each test documents the claim it checks (paper section)."""

    def test_raw_traces_are_identifiable(self, micro_ctx):
        """§2.4: without protection, most users are re-identified."""
        ev = lppm_evaluation(Identity(), micro_ctx.test, micro_ctx.attacks)
        assert len(ev.non_protected()) >= 0.5 * len(micro_ctx.test)

    def test_single_lppms_leave_orphans(self, micro_ctx):
        """§2.4: every single LPPM leaves some users non-protected."""
        for lppm in micro_ctx.lppms:
            ev = lppm_evaluation(lppm, micro_ctx.test, micro_ctx.attacks, seed=0)
            assert len(ev.non_protected()) > 0

    def test_hmc_strongest_against_ap(self, micro_ctx):
        """§4.3: HMC is the strongest single LPPM against AP-attack."""
        counts = {}
        for lppm in micro_ctx.lppms:
            ev = lppm_evaluation(lppm, micro_ctx.test, micro_ctx.attacks, seed=0)
            counts[lppm.name] = len(ev.non_protected(["AP-attack"]))
        assert counts["HMC"] <= counts["Geo-I"]
        assert counts["HMC"] <= counts["TRL"]

    def test_geoi_barely_protects(self, micro_ctx):
        """§4.4: Geo-I at medium ε is not resilient to re-identification."""
        raw = lppm_evaluation(Identity(), micro_ctx.test, micro_ctx.attacks)
        geoi = lppm_evaluation(
            micro_ctx.lppm_by_name["Geo-I"], micro_ctx.test, micro_ctx.attacks, seed=0
        )
        assert len(geoi.non_protected()) >= len(raw.non_protected()) - 2

    def test_mood_beats_hybrid(self, micro_ctx):
        """§4.4: MooD's composition protects more users than HybridLPPM."""
        hybrid_np = len(hybrid_evaluation(micro_ctx.hybrid(), micro_ctx.test).non_protected())
        mood_np = len(
            micro_ctx.engine().evaluate("mood", micro_ctx.test, composition_only=True).result
            .composition_survivors()
        )
        assert mood_np <= hybrid_np

    def test_mood_data_loss_headline(self, micro_ctx):
        """§4.6: MooD's data loss is far below every competitor's."""
        mood_ev = micro_ctx.engine().evaluate("mood", micro_ctx.test).result
        mood_loss = mood_ev.data_loss()
        for lppm in micro_ctx.lppms:
            ev = lppm_evaluation(lppm, micro_ctx.test, micro_ctx.attacks, seed=0)
            single_loss = data_loss(micro_ctx.test, ev.non_protected())
            assert mood_loss <= single_loss

    def test_composition_count_for_three_lppms(self, micro_ctx):
        """§3.3: n = 3 gives |C| = 15 compositions."""
        assert composition_count(len(micro_ctx.lppms)) == 15
        mood = micro_ctx.engine()
        assert len(mood.singles) + len(mood.chains) == 15

    def test_published_data_resists_all_attacks(self, micro_ctx):
        """Eq. 5/6: every published piece defeats the whole attack suite."""
        ev = micro_ctx.engine().evaluate("mood", micro_ctx.test).result
        checked = 0
        for user, result in ev.results.items():
            for piece in result.pieces:
                for attack in micro_ctx.attacks:
                    assert attack.reidentify(piece.published) != user
                    checked += 1
        assert checked > 0

    def test_utility_ordering_geoi_best(self, micro_ctx):
        """Figure 9: Geo-I's distortion ≈ 200 m beats TRL's ≈ 667 m."""
        geoi = lppm_evaluation(
            micro_ctx.lppm_by_name["Geo-I"], micro_ctx.test, micro_ctx.attacks, seed=0
        )
        trl = lppm_evaluation(
            micro_ctx.lppm_by_name["TRL"], micro_ctx.test, micro_ctx.attacks, seed=0
        )
        med = lambda d: sorted(d.values())[len(d) // 2]
        assert med(geoi.distortions) < med(trl.distortions)

    def test_cab_fleet_partly_naturally_protected(self, micro_cab_ctx):
        """§4.3: a large share of Cabspotting is naturally insensitive."""
        ev = lppm_evaluation(Identity(), micro_cab_ctx.test, micro_cab_ctx.attacks)
        non_protected = len(ev.non_protected())
        assert non_protected < len(micro_cab_ctx.test)


class TestDeterminism:
    def test_full_pipeline_reproducible(self, micro_ctx):
        a = micro_ctx.engine().evaluate("mood", micro_ctx.test).result
        b = micro_ctx.engine().evaluate("mood", micro_ctx.test).result
        assert a.data_loss() == b.data_loss()
        for user in a.results:
            ra, rb = a.results[user], b.results[user]
            assert [p.mechanism for p in ra.pieces] == [p.mechanism for p in rb.pieces]
            assert ra.erased_records == rb.erased_records
