"""Tests for repro.core.search — composition-search strategies (§6) —
and the engine's incumbent-bounded composition search."""

import functools

import numpy as np
import pytest

from repro.attacks.base import Attack
from repro.attacks.reference import best_protecting_reference
from repro.core.engine import ProtectionEngine
from repro.core.search import ExhaustiveSearch, GreedySuccessSearch
from repro.core.trace import Trace
from repro.lppm.base import LPPM


class _Shift(LPPM):
    def __init__(self, name, dlat):
        self.name = name
        self.dlat = dlat

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + self.dlat, trace.lngs)


class _ThresholdAttack:
    name = "atk"

    def __init__(self, threshold):
        self.threshold = threshold

    def reidentify(self, trace):
        if float(np.mean(trace.lats)) - 45.0 >= self.threshold:
            return "<confused>"
        return trace.user_id


def trace(user="u", n=30):
    return Trace(user, np.arange(n) * 600.0, np.full(n, 45.0), np.full(n, 4.0))


class TestExhaustiveSearch:
    def test_order_preserved(self):
        assert ExhaustiveSearch().order(["a", "b", "c"]) == ["a", "b", "c"]

    def test_no_early_stop(self):
        assert not ExhaustiveSearch().stop_at_first_success


class TestGreedySuccessSearch:
    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            GreedySuccessSearch(alpha=0.0)

    def test_unseen_start_at_half(self):
        s = GreedySuccessSearch()
        assert s.success_rate("new") == pytest.approx(0.5)

    def test_successful_mechanism_rises(self):
        s = GreedySuccessSearch()
        for _ in range(5):
            s.record_outcome("good", True)
            s.record_outcome("bad", False)
        assert s.order(["bad", "good"]) == ["good", "bad"]
        assert s.success_rate("good") > 0.5 > s.success_rate("bad")

    def test_stable_tiebreak(self):
        s = GreedySuccessSearch()
        assert s.order(["x", "y", "z"]) == ["x", "y", "z"]

    def test_snapshot(self):
        s = GreedySuccessSearch()
        s.record_outcome("a", True)
        snap = s.snapshot()
        assert set(snap) == {"a"}
        assert snap["a"] > 0.5


class TestMoodWithStrategy:
    def _mood(self, strategy):
        return ProtectionEngine(
            [_Shift("weak", 0.05), _Shift("strong", 0.3)],
            [_ThresholdAttack(0.2)],
            search_strategy=strategy,
            seed=1,
        )

    def test_greedy_protects_same_users(self):
        exhaustive = self._mood(None).protect(trace())
        greedy = self._mood(GreedySuccessSearch()).protect(trace())
        assert exhaustive.fully_protected == greedy.fully_protected

    def test_greedy_reduces_evaluations(self):
        # After warm-up on several users the greedy strategy should need
        # fewer candidate evaluations than the exhaustive baseline.
        exhaustive = self._mood(None)
        greedy = self._mood(GreedySuccessSearch())
        for i in range(6):
            exhaustive.protect(trace(f"u{i}"))
            greedy.protect(trace(f"u{i}"))
        assert greedy.evaluations < exhaustive.evaluations

    def test_greedy_learns_winner_first(self):
        strategy = GreedySuccessSearch()
        mood = self._mood(strategy)
        for i in range(4):
            mood.protect(trace(f"u{i}"))
        # 'strong' (and compositions containing it) protect; they must now
        # rank above the pure weak mechanism.
        assert strategy.success_rate("strong") > strategy.success_rate("weak")

    def test_evaluation_counter_monotone(self):
        mood = self._mood(None)
        before = mood.evaluations
        mood.protect(trace())
        assert mood.evaluations > before


class TestSplitPolicies:
    def _mood(self, policy):
        # An attack that always re-identifies forces full recursion.
        class _Always:
            name = "always"

            def reidentify(self, t):
                return t.user_id

        return ProtectionEngine(
            [_Shift("noop", 0.0)], [_Always()],
            delta_s=4 * 3600.0, split_policy=policy,
        )

    def _gappy_trace(self):
        a = np.arange(40) * 600.0                     # ~6.7 h
        b = 12 * 3600.0 + np.arange(40) * 600.0       # after a 5 h hole
        ts = np.concatenate([a, b])
        return Trace("u", ts, np.full(80, 45.0), np.full(80, 4.0))

    def test_invalid_policy(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProtectionEngine(
                [_Shift("s", 0.1)], [_ThresholdAttack(0.05)], split_policy="zigzag"
            )

    @pytest.mark.parametrize("policy", ["half", "gap", "inter-poi"])
    def test_policies_are_lossless(self, policy):
        mood = self._mood(policy)
        t = self._gappy_trace()
        result = mood.protect(t)
        assert result.erased_records + result.published_records == len(t)

    def test_gap_policy_cuts_at_hole(self):
        from repro.core.engine import _split_at_largest_gap

        left, right = _split_at_largest_gap(self._gappy_trace())
        assert len(left) == 40
        assert len(right) == 40

    def test_inter_poi_fallback_to_half(self):
        from repro.core.engine import _split_between_pois

        # No POIs in a fast-moving trace: behaves like halving.
        n = 60
        t = Trace("u", np.arange(n) * 60.0, 45.0 + np.arange(n) * 0.003, np.full(n, 4.0))
        left, right = _split_between_pois(t)
        assert len(left) + len(right) == n
        assert abs(len(left) - len(right)) <= n // 3


class _CountingAttack(Attack):
    """Confused once the latitude moved by at least *threshold*; records
    the mean latitude of every trace its ``top1`` is asked about."""

    name = "counting"

    def __init__(self, threshold):
        super().__init__()
        self.threshold = threshold
        self.calls = []
        self._fitted = True

    def _build_profiles(self, background):
        pass

    def rank(self, trace):
        top = self.top1(trace)
        return [] if top is None else [top]

    def top1(self, trace):
        shift = float(np.mean(trace.lats)) - 45.0
        self.calls.append(round(shift, 6))
        return ("<confused>" if shift >= self.threshold else trace.user_id, 0.0)


class _Erase(LPPM):
    name = "erase"

    def apply(self, trace, rng=None):
        return Trace.empty(trace.user_id)


class _RecordingGreedy(GreedySuccessSearch):
    def __init__(self):
        super().__init__()
        self.outcomes = []

    def record_outcome(self, candidate_name, protected):
        self.outcomes.append((candidate_name, protected))
        super().record_outcome(candidate_name, protected)


def _with_reference_search(engine):
    """*engine* searching with the exhaustive reference loop."""
    engine._best_protecting = functools.partial(best_protecting_reference, engine)
    return engine


def _same_winner(bounded, reference):
    if bounded is None or reference is None:
        return bounded is None and reference is None
    (b_trace, b_mech, b_std), (r_trace, r_mech, r_std) = bounded, reference
    return (
        b_trace.fingerprint == r_trace.fingerprint
        and b_trace.user_id == r_trace.user_id
        and (b_mech, b_std) == (r_mech, r_std)
    )


class TestBoundedSearch:
    """Only a candidate whose STD beats the incumbent's is attacked."""

    def _engine(self, attack):
        return ProtectionEngine(
            [
                _Erase(),                  # empty output: neither attacked nor counted
                _Shift("first", 0.25),     # protects: the first incumbent
                _Shift("farther", 0.5),    # protects, STD above the incumbent
                _Shift("as-far", 0.25),    # protects, STD equal to the incumbent
                _Shift("nearer", 0.22),    # protects, STD below: the winner
                _Shift("too-near", 0.1),   # STD below the winner, re-identified
            ],
            [attack],
            max_composition_length=1,
        )

    def test_candidate_at_or_above_the_incumbent_is_not_attacked(self):
        attack = _CountingAttack(0.2)
        engine = self._engine(attack)
        piece = engine.search_whole_trace(trace())
        assert (piece.mechanism, attack.calls) == ("nearer", [0.25, 0.22, 0.1])
        assert engine.evaluations == len(attack.calls) == 3

    def test_reference_attacks_every_candidate_for_the_same_winner(self):
        attack = _CountingAttack(0.2)
        engine = self._engine(attack)
        winner = best_protecting_reference(engine, trace(), engine.singles)
        assert winner[1] == "nearer"
        assert attack.calls == [0.25, 0.5, 0.25, 0.22, 0.1]
        assert engine.evaluations == 5

    @pytest.mark.parametrize("context", ["micro_ctx", "micro_cab_ctx"])
    def test_publishes_what_the_exhaustive_search_publishes(self, context, request):
        ctx = request.getfixturevalue(context)
        engine = ctx.engine()
        for t in ctx.test.traces():
            singles = best_protecting_reference(engine, t, engine.singles)
            chains = best_protecting_reference(engine, t, engine.chains)
            assert _same_winner(engine._best_protecting(t, engine.singles), singles)
            assert _same_winner(engine._best_protecting(t, engine.chains), chains)
            piece = engine.search_whole_trace(t)
            whole = (
                None
                if piece is None
                else (piece.published, piece.mechanism, piece.distortion_m)
            )
            assert _same_winner(whole, singles if singles is not None else chains)

    def test_greedy_hears_the_same_outcomes(self, micro_ctx):
        bounded = micro_ctx.engine(search_strategy=_RecordingGreedy())
        reference = _with_reference_search(
            micro_ctx.engine(search_strategy=_RecordingGreedy())
        )
        for t in micro_ctx.test.traces():
            ours, theirs = bounded.protect(t), reference.protect(t)
            assert [
                (p.published.fingerprint, p.mechanism, p.distortion_m) for p in ours.pieces
            ] == [
                (p.published.fingerprint, p.mechanism, p.distortion_m) for p in theirs.pieces
            ]
        outcomes = bounded.search_strategy.outcomes
        assert outcomes and outcomes == reference.search_strategy.outcomes
        assert bounded.evaluations == reference.evaluations == len(outcomes)


class TestPrefixReuse:
    """A search computes each leading run of deterministic stages once."""

    def test_reused_prefixes_publish_the_fresh_bytes(self, micro_ctx):
        engine = micro_ctx.engine()
        hmc = micro_ctx.lppm_by_name["HMC"]
        for t in micro_ctx.test.traces()[:3]:
            prefixes = {}
            for mech in engine.singles + engine.chains:
                fresh = engine._candidate(t, mech)
                assert engine._candidate(t, mech, prefixes).fingerprint == fresh.fingerprint
            assert list(prefixes) == [(hmc,)]

    def test_a_chain_search_applies_hmc_once_per_input(self, micro_ctx, monkeypatch):
        engine = micro_ctx.engine()
        hmc = micro_ctx.lppm_by_name["HMC"]
        calls = []
        apply = hmc.apply

        def counted(trace, rng=None):
            calls.append(trace)
            return apply(trace, rng)

        monkeypatch.setattr(hmc, "apply", counted)
        searched_chains = 0
        for t in micro_ctx.test.traces():
            calls.clear()
            piece = engine.search_whole_trace(t)
            if piece is None or "+" in piece.mechanism:
                # The single plus the 6 chains with HMC after another
                # stage; the 4 HMC+* chains reuse the single's output.
                searched_chains += 1
                assert len(calls) == 7
            else:
                assert len(calls) == 1
        assert searched_chains > 0
