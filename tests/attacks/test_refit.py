"""Incremental re-fit pins: ``refit(delta)`` must equal a full re-fit.

The streaming path folds closed windows into the attacks' fitted state
without rebuilding it from the whole background.  These pins make the
shortcut safe: for the AP attack every Topsoe divergence (and therefore
every rank) is bit-identical to a fresh fit on the updated background,
and for the POI attack the packed CSR arrays themselves are equal.
Replace semantics throughout: a delta trace *replaces* the user's
profile; an empty delta trace removes the user.
"""

import numpy as np
import pytest

from repro.attacks.ap_attack import ApAttack
from repro.attacks.base import Attack
from repro.attacks.pit_attack import PitAttack
from repro.attacks.poi_attack import PoiAttack
from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.lppm.base import LPPM

HOUR = 3600.0


def dwell_trace(user, spots, seed=0, dwell_h=3.0, period=300.0):
    """A trace that sits at each spot for *dwell_h* hours (clear POIs)."""
    rng = np.random.default_rng(seed)
    ts, lats, lngs = [], [], []
    t = 0.0
    for lat, lng in spots:
        n = int(dwell_h * HOUR / period)
        for _ in range(n):
            ts.append(t)
            lats.append(lat + rng.normal(0, 2e-5))
            lngs.append(lng + rng.normal(0, 2e-5))
            t += period
        t += 5 * HOUR  # travel gap between dwells
    return Trace(user, ts, lats, lngs)


def spot(i, j=0):
    return (45.0 + 0.02 * i, 4.8 + 0.02 * j)


def background(n_users=8, seed=1):
    ds = MobilityDataset("refit-bg")
    for i in range(n_users):
        ds.add(dwell_trace(f"user{i}", [spot(i), spot(i, 1)], seed=seed + i))
    return ds


def delta_and_updated(base):
    """A delta (replace 2, add 1, remove 1) plus the equivalent full set."""
    delta = MobilityDataset("refit-delta")
    # user0 / user1 replaced with new mobility (moved home).
    delta.add(dwell_trace("user0", [spot(10), spot(10, 2)], seed=90))
    delta.add(dwell_trace("user1", [spot(11)], seed=91))
    # A brand-new user appears mid-stream.
    delta.add(dwell_trace("newcomer", [spot(12), spot(12, 1)], seed=92))
    # user2 is forgotten (empty delta trace = remove).
    delta.add(Trace.empty("user2"))
    updated = MobilityDataset("refit-updated")
    for trace in base.traces():
        if trace.user_id in ("user0", "user1", "user2"):
            continue
        updated.add(trace)
    for trace in delta.traces():
        if len(trace) > 0:
            updated.add(trace)
    return delta, updated


def probes():
    return [
        dwell_trace("probe-a", [spot(10)], seed=70),
        dwell_trace("probe-b", [spot(3), spot(3, 1)], seed=71),
        dwell_trace("probe-c", [spot(12, 1)], seed=72),
        dwell_trace("probe-d", [spot(6)], seed=73),
    ]


class TestApRefit:
    def test_ranks_bit_identical_to_full_refit(self):
        base = background()
        delta, updated = delta_and_updated(base)
        incremental = ApAttack().fit(base)
        incremental.refit(delta)
        fresh = ApAttack().fit(updated)
        assert incremental._users == fresh._users
        for probe in probes():
            inc = incremental.rank(probe)
            ful = fresh.rank(probe)
            assert [u for u, _ in inc] == [u for u, _ in ful]
            # Bit-identical divergences, not approximately equal ones:
            # the streaming path promises the same bytes as batch.
            assert [d for _, d in inc] == [d for _, d in ful]
            assert incremental.top1(probe) == fresh.top1(probe)

    def test_removed_user_is_gone(self):
        base = background()
        delta, _ = delta_and_updated(base)
        attack = ApAttack().fit(base)
        attack.refit(delta)
        assert "user2" not in attack._users
        assert attack.profile_matrix().shape[0] == len(attack.index.users)

    def test_refit_unfitted_raises(self):
        with pytest.raises(Exception):
            ApAttack().refit(MobilityDataset("d"))


class TestPoiRefit:
    def test_packed_state_exactly_equal_to_full_refit(self):
        base = background()
        delta, updated = delta_and_updated(base)
        incremental = PoiAttack().fit(base)
        incremental.refit(delta)
        fresh = PoiAttack().fit(updated)
        assert incremental.index.users == fresh.index.users
        for attr in ("lat", "lng", "mass", "starts", "mass_sum"):
            assert np.array_equal(
                getattr(incremental.index, attr), getattr(fresh.index, attr)
            ), attr

    def test_ranks_match_full_refit(self):
        base = background()
        delta, updated = delta_and_updated(base)
        incremental = PoiAttack().fit(base)
        incremental.refit(delta)
        fresh = PoiAttack().fit(updated)
        for probe in probes():
            assert incremental.rank(probe) == fresh.rank(probe)


class TestRefitContract:
    def test_base_attack_refuses(self):
        class _Plain(Attack):
            name = "plain"

            def _build_profiles(self, background):
                pass

            def rank(self, trace):
                return []

        attack = _Plain()
        assert attack.supports_refit is False
        with pytest.raises(ConfigurationError, match="does not support"):
            attack.refit(MobilityDataset("d"))

    def test_pit_attack_does_not_claim_refit(self):
        assert PitAttack.supports_refit is False


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace


class TestEngineRefit:
    def test_engine_refits_only_supporting_fitted_attacks(self):
        base = background(n_users=4)
        delta, _ = delta_and_updated(base)
        engine = ProtectionEngine(
            [_Noop()], [ApAttack(), PoiAttack(), PitAttack()]
        )
        engine.fit(base)
        refitted = engine.refit(delta)
        assert sorted(refitted) == ["AP-attack", "POI-attack"]

    def test_engine_refit_skips_unfitted(self):
        engine = ProtectionEngine([_Noop()], [ApAttack()])
        assert engine.refit(MobilityDataset("d")) == []
