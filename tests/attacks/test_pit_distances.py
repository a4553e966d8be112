"""Tests for the selectable PIT-attack distances ([16] variants)."""

import math

import pytest

from repro.attacks.pit_attack import (
    PIT_DISTANCES,
    PitAttack,
    proximity_distance,
    stationary_distance,
    stats_prox_distance,
)
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace, merge_traces
from repro.poi.mmc import build_mmc

from tests.conftest import dwell_trace


def commuter(user, home, work, days=3, seed=0):
    pieces = []
    for day in range(days):
        t0 = day * 86_400.0
        pieces.append(dwell_trace(user, home[0], home[1], t0=t0, hours=4.0, seed=seed + day))
        pieces.append(
            dwell_trace(user, work[0], work[1], t0=t0 + 6 * 3600, hours=4.0, seed=seed + day + 50)
        )
    return merge_traces(user, pieces)


class TestDistanceVariants:
    def test_registry_complete(self):
        assert set(PIT_DISTANCES) == {"stats-prox", "proximity", "stationary"}

    def test_proximity_is_geographic_only(self):
        a = build_mmc(commuter("a", (45.0, 4.0), (45.03, 4.03)))
        b = build_mmc(commuter("b", (45.0, 4.0), (45.03, 4.03), seed=9))
        # Same places: proximity nearly zero regardless of time budgets.
        assert proximity_distance(a, b) < 50.0

    def test_stationary_bounded(self):
        a = build_mmc(commuter("a", (45.0, 4.0), (45.03, 4.03)))
        b = build_mmc(commuter("b", (45.5, 4.5), (45.53, 4.53)))
        assert 0.0 <= stationary_distance(a, b) <= 2.0

    def test_stats_prox_combines(self):
        a = build_mmc(commuter("a", (45.0, 4.0), (45.03, 4.03)))
        b = build_mmc(commuter("b", (45.1, 4.1), (45.13, 4.13)))
        prox = proximity_distance(a, b)
        stat = stationary_distance(a, b)
        assert stats_prox_distance(a, b) == pytest.approx(prox * (1 + stat))

    def test_empty_chains_inf_for_all(self):
        full = build_mmc(commuter("a", (45.0, 4.0), (45.03, 4.03)))
        empty = build_mmc(Trace.empty("x"))
        for fn in PIT_DISTANCES.values():
            assert fn(empty, full) == math.inf


class TestPitAttackVariants:
    @pytest.fixture
    def background(self):
        ds = MobilityDataset("bg")
        ds.add(commuter("alice", (45.00, 4.00), (45.03, 4.03), seed=1))
        ds.add(commuter("bob", (45.10, 4.10), (45.13, 4.13), seed=2))
        return ds

    def test_unknown_distance_rejected(self):
        with pytest.raises(ValueError):
            PitAttack(distance="euclid")

    @pytest.mark.parametrize("distance", ["stats-prox", "proximity", "stationary"])
    def test_all_variants_run(self, background, distance):
        attack = PitAttack(distance=distance).fit(background)
        probe = commuter("alice", (45.00, 4.00), (45.03, 4.03), seed=7)
        ranked = attack.rank(probe)
        assert len(ranked) == 2
        assert attack.top1(probe) == ranked[0]

    @pytest.mark.parametrize("distance", ["stats-prox", "proximity"])
    def test_geographic_variants_reidentify(self, background, distance):
        attack = PitAttack(distance=distance).fit(background)
        probe = commuter("alice", (45.00, 4.00), (45.03, 4.03), seed=7)
        assert attack.reidentify(probe) == "alice"
