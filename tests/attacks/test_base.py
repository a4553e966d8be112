"""Tests for repro.attacks.base — the attack contract."""

import pytest

from repro.attacks import default_attack_suite
from repro.attacks.base import UNKNOWN_USER, Attack
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.errors import NotFittedError

from tests.conftest import make_trace


class _CentroidAttack(Attack):
    """Toy attack: match by nearest centroid latitude."""

    name = "centroid"

    def _build_profiles(self, background):
        self._profiles = {
            t.user_id: float(t.lats.mean()) for t in background.traces() if len(t)
        }

    def rank(self, trace):
        self._require_fitted()
        if len(trace) == 0:
            return []
        lat = float(trace.lats.mean())
        scored = [(u, abs(lat - p)) for u, p in self._profiles.items()]
        scored.sort(key=lambda ud: (ud[1], ud[0]))
        return scored


@pytest.fixture
def background():
    ds = MobilityDataset("bg")
    ds.add(make_trace("north", [(46.0, 4.0)] * 3))
    ds.add(make_trace("south", [(44.0, 4.0)] * 3))
    return ds


class TestAttackContract:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            _CentroidAttack().reidentify(make_trace())

    def test_fit_returns_self(self, background):
        attack = _CentroidAttack()
        assert attack.fit(background) is attack
        assert attack.is_fitted

    def test_reidentify_picks_rank_one(self, background):
        attack = _CentroidAttack().fit(background)
        assert attack.reidentify(make_trace("x", [(45.9, 4.0)])) == "north"
        assert attack.reidentify(make_trace("x", [(44.1, 4.0)])) == "south"

    def test_empty_rank_gives_unknown(self, background):
        attack = _CentroidAttack().fit(background)
        assert attack.reidentify(Trace.empty("x")) == UNKNOWN_USER

    def test_unknown_never_matches_a_user(self, background):
        assert UNKNOWN_USER not in background.user_ids()

    def test_reidentify_dataset(self, background):
        attack = _CentroidAttack().fit(background)
        guesses = attack.reidentify_dataset(background)
        assert guesses == {"north": "north", "south": "south"}

    def test_repr(self, background):
        attack = _CentroidAttack()
        assert "centroid" in repr(attack)


class TestDefaultSuite:
    def test_three_attacks(self):
        suite = default_attack_suite()
        assert [a.name for a in suite] == ["AP-attack", "PIT-attack", "POI-attack"]

    def test_paper_parameters(self):
        suite = {a.name: a for a in default_attack_suite()}
        assert suite["POI-attack"].diameter_m == 200.0
        assert suite["POI-attack"].min_dwell_s == 3600.0
        assert suite["AP-attack"].grid.cell_size_m == 800.0

    def test_unfitted(self):
        assert all(not a.is_fitted for a in default_attack_suite())
