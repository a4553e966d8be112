"""Tests for repro.experiments.harness and paper_values consistency."""

import pytest

from repro.experiments import paper_values
from repro.experiments.harness import prepare_context


class TestPrepareContext:
    def test_context_wiring(self, micro_ctx):
        assert micro_ctx.name == "privamov"
        assert len(micro_ctx.attacks) == 3
        assert all(a.is_fitted for a in micro_ctx.attacks)
        assert {l.name for l in micro_ctx.lppms} == {"Geo-I", "TRL", "HMC"}

    def test_train_test_disjoint(self, micro_ctx):
        for user in micro_ctx.train.user_ids():
            assert micro_ctx.train[user].end_time() <= micro_ctx.test[user].start_time()

    def test_hmc_fitted_on_train(self, micro_ctx):
        hmc = micro_ctx.lppm_by_name["HMC"]
        assert hmc.is_fitted

    def test_hybrid_order_is_papers(self, micro_ctx):
        hybrid = micro_ctx.hybrid()
        assert [l.name for l in hybrid.lppms] == ["HMC", "Geo-I", "TRL"]

    def test_mood_attack_subset(self, micro_ctx):
        ap = [micro_ctx.attack_by_name["AP-attack"]]
        mood = micro_ctx.engine(ap)
        assert [a.name for a in mood.attacks] == ["AP-attack"]

    def test_default_split_even(self):
        ctx = prepare_context("privamov", seed=1, n_users=4, days=6)
        # 3/3 day split: both sides non-empty for every kept user.
        assert len(ctx.train) == len(ctx.test) > 0


class TestPaperValues:
    """The transcribed constants must be self-consistent with the paper."""

    def test_table1_totals(self):
        assert paper_values.TABLE1["cabspotting"]["users"] == 531
        assert paper_values.TABLE1["mdc"]["records"] == 904_282

    @pytest.mark.parametrize("dataset", ["mdc", "privamov", "geolife", "cabspotting"])
    def test_fig6_fig7_totals(self, dataset):
        f6 = paper_values.FIG6_NON_PROTECTED[dataset]
        f7 = paper_values.FIG7_NON_PROTECTED[dataset]
        assert f6["total"] == f7["total"]
        # Every bar fits under the dataset's user count.  (Note: the
        # paper's own Geolife numbers have fig6 TRL > fig7 TRL — separate
        # experiment runs — so no cross-figure monotonicity is asserted.)
        for mech in ["no-LPPM", "Geo-I", "TRL", "HMC", "HybridLPPM", "MooD"]:
            assert 0 <= f6[mech] <= f6["total"]
            assert 0 <= f7[mech] <= f7["total"]

    @pytest.mark.parametrize("dataset", ["mdc", "privamov", "geolife", "cabspotting"])
    def test_mood_always_best(self, dataset):
        f7 = paper_values.FIG7_NON_PROTECTED[dataset]
        assert f7["MooD"] <= f7["HybridLPPM"] <= f7["no-LPPM"]

    @pytest.mark.parametrize("dataset", ["mdc", "privamov", "geolife", "cabspotting"])
    def test_fig10_mood_loss_headline(self, dataset):
        # Paper headline: MooD data loss between 0 % and 2.5 %.
        loss = paper_values.FIG10_DATA_LOSS_PCT[dataset]["MooD"]
        assert 0.0 <= loss <= 2.5

    def test_fig9_mood_dominates_buckets(self):
        f9 = paper_values.FIG9_BUCKETS_PCT
        assert f9["MooD"]["low(<500m)"] >= max(
            f9[m]["low(<500m)"] for m in ["Geo-I", "TRL", "HMC", "HybridLPPM"]
        )
