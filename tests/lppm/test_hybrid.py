"""Tests for repro.lppm.hybrid — the user-centric single-LPPM baseline."""

import numpy as np
import pytest

from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.lppm.base import LPPM
from repro.lppm.hybrid import HybridLPPM, HybridResult, is_protected
from repro.lppm.identity import Identity


class _Shift(LPPM):
    def __init__(self, name, dlat):
        self.name = name
        self.dlat = dlat

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + self.dlat, trace.lngs)


class _ThresholdAttack:
    """Catches the user unless the trace moved ≥ threshold degrees north."""

    def __init__(self, name, threshold):
        self.name = name
        self.threshold = threshold
        self.calls = 0

    def reidentify(self, trace):
        self.calls += 1
        if float(np.mean(trace.lats)) - 45.0 >= self.threshold:
            return "<nobody>"
        return trace.user_id


def trace(user="u", n=20):
    return Trace(user, np.arange(n) * 600.0, np.full(n, 45.0), np.full(n, 4.0))


class TestIsProtected:
    def test_all_fail_means_protected(self):
        atk = _ThresholdAttack("a", 0.05)
        assert is_protected(trace().with_positions(
            trace().lats + 0.1, trace().lngs), "u", [atk])

    def test_any_success_means_vulnerable(self):
        confused = _ThresholdAttack("confused", 0.0)  # never re-identifies
        sharp = _ThresholdAttack("sharp", 10.0)  # catches unmoved traces
        assert not is_protected(trace(), "u", [confused, sharp])

    def test_short_circuits(self):
        first = _ThresholdAttack("first", 10.0)  # re-identifies immediately
        second = _ThresholdAttack("second", 10.0)
        is_protected(trace(), "u", [first, second])
        assert first.calls == 1
        assert second.calls == 0

    def test_wrong_guess_is_protection(self):
        atk = _ThresholdAttack("a", 10.0)
        # Another user's trace: guess == that trace's id, not ours.
        assert is_protected(trace("other"), "u", [atk])


class TestHybridLPPM:
    def test_requires_lppms_and_attacks(self):
        with pytest.raises(ConfigurationError):
            HybridLPPM([], [_ThresholdAttack("a", 0.1)])
        with pytest.raises(ConfigurationError):
            HybridLPPM([Identity()], [])
        # The seed is checked, never coerced: 2.7 would run as seed 2.
        for bad in (2.7, True, "5"):
            with pytest.raises(ConfigurationError, match="seed"):
                HybridLPPM([Identity()], [_ThresholdAttack("a", 0.1)], seed=bad)

    def test_picks_first_protecting(self):
        atk = _ThresholdAttack("a", 0.15)
        hybrid = HybridLPPM(
            [_Shift("tiny", 0.01), _Shift("mid", 0.2), _Shift("big", 1.0)], [atk]
        )
        result = hybrid.protect(trace())
        assert result.protected
        assert result.mechanism == "mid"  # first in order that works

    def test_order_is_respected_not_distortion(self):
        # Even though "big" distorts more, it is tried first and wins.
        atk = _ThresholdAttack("a", 0.15)
        hybrid = HybridLPPM([_Shift("big", 1.0), _Shift("mid", 0.2)], [atk])
        assert hybrid.protect(trace()).mechanism == "big"

    def test_none_protects(self):
        atk = _ThresholdAttack("a", 99.0)
        hybrid = HybridLPPM([_Shift("s", 0.1)], [atk])
        result = hybrid.protect(trace())
        assert not result.protected
        assert result.trace is None
        assert result.mechanism is None
        assert result.distortion_m == float("inf")

    def test_distortion_computed(self):
        atk = _ThresholdAttack("a", 0.05)
        hybrid = HybridLPPM([_Shift("s", 0.1)], [atk])
        result = hybrid.protect(trace())
        assert result.distortion_m == pytest.approx(11_120, rel=0.01)

    def test_protect_all(self):
        atk = _ThresholdAttack("a", 0.05)
        hybrid = HybridLPPM([_Shift("s", 0.1)], [atk])
        results = hybrid.protect_all([trace("a"), trace("b")])
        assert [r.user_id for r in results] == ["a", "b"]

    def test_deterministic_per_user(self, micro_ctx):
        hybrid1 = micro_ctx.hybrid()
        hybrid2 = micro_ctx.hybrid()
        t = micro_ctx.test.traces()[0]
        r1 = hybrid1.protect(t)
        r2 = hybrid2.protect(t)
        assert r1.mechanism == r2.mechanism
        assert r1.distortion_m == r2.distortion_m
