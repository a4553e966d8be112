"""Tests for Algorithm 1 — :meth:`ProtectionEngine.protect` and friends.

Uses stub LPPMs and attacks so each branch of the cascade (single,
composition, fine-grained, erasure) can be forced deterministically.
"""

import numpy as np
import pytest

from repro.core.dataset import MobilityDataset
from repro.core.engine import DEFAULT_DELTA_S, MoodResult, ProtectionEngine
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.lppm.base import LPPM


class _ShiftLppm(LPPM):
    """Moves every record north by *dlat* degrees."""

    def __init__(self, name, dlat):
        self.name = name
        self.dlat = dlat

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + self.dlat, trace.lngs)


class _ThresholdAttack:
    """Re-identifies unless the trace moved at least *threshold* degrees north.

    Mimics a real attack's contract: ``reidentify`` returns the guessed
    user id; moving far enough 'protects'.
    """

    def __init__(self, name, threshold, baseline=45.0):
        self.name = name
        self.threshold = threshold
        self.baseline = baseline

    def reidentify(self, trace):
        if float(np.mean(trace.lats)) - self.baseline >= self.threshold:
            return "<confused>"
        return trace.user_id


class _TimeWindowAttack:
    """Re-identifies only records inside a fixed time window.

    Lets tests force the fine-grained stage: the whole trace is caught,
    but sub-traces outside the window escape.
    """

    name = "window"

    def __init__(self, t_from, t_to):
        self.t_from = t_from
        self.t_to = t_to

    def reidentify(self, trace):
        inside = np.any(
            (trace.timestamps >= self.t_from) & (trace.timestamps < self.t_to)
        )
        return trace.user_id if inside else "<miss>"


def hours_trace(user="u", hours=24, period_s=600.0):
    n = int(hours * 3600 / period_s)
    ts = np.arange(n) * period_s
    return Trace(user, ts, np.full(n, 45.0), np.full(n, 4.0))


class TestConstruction:
    def test_requires_lppms(self):
        with pytest.raises(ConfigurationError):
            ProtectionEngine([], [_ThresholdAttack("a", 0.1)])

    def test_requires_attacks(self):
        with pytest.raises(ConfigurationError):
            ProtectionEngine([_ShiftLppm("s", 0.1)], [])

    def test_requires_positive_delta(self):
        with pytest.raises(ConfigurationError):
            ProtectionEngine(
                [_ShiftLppm("s", 0.1)], [_ThresholdAttack("a", 0.1)], delta_s=0.0
            )

    def test_composition_sets(self):
        lppms = [_ShiftLppm(n, 0.1) for n in "abc"]
        mood = ProtectionEngine(lppms, [_ThresholdAttack("atk", 99.0)])
        assert len(mood.singles) == 3
        assert len(mood.chains) == 12  # 15 − 3


class TestSingleLppmBranch:
    def test_single_lppm_protects(self):
        # One shift of 0.2° defeats the 0.15° threshold.
        mood = ProtectionEngine(
            [_ShiftLppm("small", 0.05), _ShiftLppm("big", 0.2)],
            [_ThresholdAttack("atk", 0.15)],
        )
        result = mood.protect(hours_trace())
        assert result.fully_protected
        assert result.whole_trace_protected
        assert result.pieces[0].mechanism == "big"

    def test_lowest_distortion_single_wins(self):
        # Both protect; the smaller displacement has lower STD.
        mood = ProtectionEngine(
            [_ShiftLppm("huge", 1.0), _ShiftLppm("okay", 0.2)],
            [_ThresholdAttack("atk", 0.15)],
        )
        result = mood.protect(hours_trace())
        assert result.pieces[0].mechanism == "okay"

    def test_distortion_recorded(self):
        mood = ProtectionEngine([_ShiftLppm("s", 0.2)], [_ThresholdAttack("atk", 0.1)])
        result = mood.protect(hours_trace())
        # 0.2° of latitude ≈ 22.2 km.
        assert result.pieces[0].distortion_m == pytest.approx(22_240, rel=0.01)


class TestCompositionBranch:
    def test_composition_needed(self):
        # Each LPPM shifts 0.1°; only a chain of two reaches the 0.15° bar.
        mood = ProtectionEngine(
            [_ShiftLppm("a", 0.1), _ShiftLppm("b", 0.1)],
            [_ThresholdAttack("atk", 0.15)],
        )
        result = mood.protect(hours_trace())
        assert result.whole_trace_protected
        assert "+" in result.pieces[0].mechanism

    def test_max_composition_length_respected(self):
        lppms = [_ShiftLppm(n, 0.05) for n in "abc"]
        # Need 3 chained shifts (0.15°) but chains are capped at 2.
        mood = ProtectionEngine(
            lppms, [_ThresholdAttack("atk", 0.14)], max_composition_length=2
        )
        result = mood.protect(hours_trace(hours=2))
        assert not result.fully_protected


class TestFineGrainedBranch:
    def test_split_rescues_partial_trace(self):
        # Attack catches only the first 6 h; halving isolates it.
        trace = hours_trace(hours=24)
        attack = _TimeWindowAttack(0.0, 6 * 3600.0)
        mood = ProtectionEngine([_ShiftLppm("noop", 0.0)], [attack], delta_s=4 * 3600.0)
        result = mood.protect(trace)
        assert 0 < result.published_records < len(trace)
        assert result.erased_records > 0
        assert result.erased_records + result.published_records == len(trace)

    def test_erased_subtrace_shorter_than_delta(self):
        trace = hours_trace(hours=24)
        attack = _TimeWindowAttack(0.0, 6 * 3600.0)
        mood = ProtectionEngine([_ShiftLppm("noop", 0.0)], [attack], delta_s=4 * 3600.0)
        result = mood.protect(trace)
        for erased in result.erased:
            assert erased.duration_s() < 2 * 4 * 3600.0

    def test_hopeless_trace_fully_erased(self):
        attack = _TimeWindowAttack(-1.0, 1e12)  # catches everything
        mood = ProtectionEngine([_ShiftLppm("noop", 0.0)], [attack])
        result = mood.protect(hours_trace(hours=24))
        assert result.erased_records == result.original_records
        assert not result.fully_protected
        assert result.data_loss == 1.0

    def test_short_trace_not_split(self):
        # Below δ the trace is erased without recursion.
        attack = _TimeWindowAttack(-1.0, 1e12)
        mood = ProtectionEngine([_ShiftLppm("noop", 0.0)], [attack], delta_s=DEFAULT_DELTA_S)
        trace = hours_trace(hours=2)
        result = mood.protect(trace)
        assert len(result.erased) == 1


class TestPseudonyms:
    def test_pieces_get_fresh_ids(self):
        trace = hours_trace(hours=24)
        attack = _TimeWindowAttack(0.0, 3600.0)
        mood = ProtectionEngine([_ShiftLppm("noop", 0.0)], [attack], delta_s=3600.0)
        result = mood.protect(trace)
        pseudonyms = [p.pseudonym for p in result.pieces]
        assert len(pseudonyms) == len(set(pseudonyms))
        assert all(p.startswith("u#") for p in pseudonyms)
        for piece in result.pieces:
            assert piece.published.user_id == piece.pseudonym
            assert piece.original_user == "u"

    def test_empty_trace(self):
        mood = ProtectionEngine([_ShiftLppm("s", 0.2)], [_ThresholdAttack("atk", 0.1)])
        result = mood.protect(Trace.empty("u"))
        assert result.original_records == 0
        assert not result.fully_protected


class TestProtectDaily:
    def test_chunks_protected_independently(self):
        trace = hours_trace(hours=72)
        attack = _TimeWindowAttack(0.0, 24 * 3600.0)  # catches day 1 only
        mood = ProtectionEngine([_ShiftLppm("noop", 0.0)], [attack], delta_s=4 * 3600.0)
        result = mood.protect_daily(trace, chunk_s=24 * 3600.0)
        # Days 2 and 3 publish as whole chunks; day 1 is shredded/erased.
        assert result.published_records >= 2 * 24 * 6 - 2
        assert result.erased_records > 0

    def test_determinism(self):
        trace = hours_trace(hours=48)
        def build():
            return ProtectionEngine(
                [_ShiftLppm("a", 0.1), _ShiftLppm("b", 0.1)],
                [_ThresholdAttack("atk", 0.15)],
                seed=99,
            )
        r1 = build().protect_daily(trace)
        r2 = build().protect_daily(trace)
        assert [p.mechanism for p in r1.pieces] == [p.mechanism for p in r2.pieces]
        assert r1.erased_records == r2.erased_records


class TestMoodResult:
    def test_mean_distortion_weighting(self):
        result = MoodResult(user_id="u", original_records=10)
        t1 = hours_trace(hours=1)
        from repro.core.engine import ProtectedPiece

        result.pieces.append(
            ProtectedPiece("u#0", "u", t1, t1, "m", distortion_m=100.0)
        )
        result.pieces.append(
            ProtectedPiece("u#1", "u", t1, t1, "m", distortion_m=300.0)
        )
        assert result.mean_distortion_m() == pytest.approx(200.0)

    def test_mean_distortion_empty(self):
        result = MoodResult(user_id="u", original_records=5)
        assert result.mean_distortion_m() == float("inf")
