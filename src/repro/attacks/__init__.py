"""User re-identification attacks (paper §2.2 and §4.1.1)."""

from repro.attacks.ap_attack import ApAttack
from repro.attacks.base import NO_GUESS, UNKNOWN_USER, Attack
from repro.attacks.pit_attack import PitAttack, stats_prox_distance
from repro.attacks.poi_attack import PoiAttack, poi_set_distance

__all__ = [
    "Attack",
    "NO_GUESS",
    "UNKNOWN_USER",
    "ApAttack",
    "PitAttack",
    "PoiAttack",
    "stats_prox_distance",
    "poi_set_distance",
]


def default_attack_suite(ref_lat: float = 45.0):
    """The paper's three attacks with their §4.1.1 parameters, in the
    screen order of :data:`repro.config.DEFAULT_ATTACK_SPECS` (AP, PIT,
    POI: the most decisive first)."""
    return [
        ApAttack(cell_size_m=800.0, ref_lat=ref_lat),
        PitAttack(diameter_m=200.0, min_dwell_s=3600.0),
        PoiAttack(diameter_m=200.0, min_dwell_s=3600.0),
    ]
