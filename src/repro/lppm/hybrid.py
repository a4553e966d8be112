"""HybridLPPM baseline [22] (paper §4.1.2).

The hybrid approach is user-centric but *single*-LPPM: for each user it
walks the available mechanisms in ascending order of the distortion they
typically generate (HMC → Geo-I → TRL in the paper) and keeps the first
one that defeats **all** considered attacks.  Users for whom no single
mechanism works remain non-protected — those are MooD's orphan users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.trace import Trace
from repro.errors import ConfigurationError, check_integer
from repro.lppm.base import LPPM
from repro.metrics.distortion import spatial_temporal_distortion
from repro.rng import SeedLike, make_rng, stable_user_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.attacks.base import Attack


@dataclass
class HybridResult:
    """Per-user outcome of the hybrid selection."""

    user_id: str
    #: The protected trace, or ``None`` when every mechanism failed.
    trace: Optional[Trace]
    #: Name of the winning mechanism (``None`` if non-protected).
    mechanism: Optional[str]
    #: STD of the winning trace against the original (``inf`` if none).
    distortion_m: float

    @property
    def protected(self) -> bool:
        return self.trace is not None


def is_protected(obfuscated: Trace, true_user: str, attacks: "Sequence[Attack]") -> bool:
    """``True`` iff **every** attack fails to re-identify *true_user* (Eq. 5).

    Attacks are evaluated lazily, in the order given: the first
    successful re-identification short-circuits, mirroring Algorithm 1's
    inner while loop.  Eq. 5 is a conjunction, so the order of *attacks*
    decides what a verdict costs, never the verdict: list the attack
    that re-identifies most candidates first (the default suite screens
    AP, PIT, then POI).  This is the composition-search hot loop —
    ``reidentify`` routes through each attack's
    :meth:`~repro.attacks.base.Attack.top1` fast path (a single argmin
    over the profile set), never a full ranking sort.
    """
    for attack in attacks:
        if attack.reidentify(obfuscated) == true_user:
            return False
    return True


class HybridLPPM:
    """Pick, per user, the least-distorting single LPPM that protects her."""

    name = "HybridLPPM"

    def __init__(
        self,
        lppms_by_distortion: Sequence[LPPM],
        attacks: "Sequence[Attack]",
        seed: int = 0,
    ) -> None:
        if not lppms_by_distortion:
            raise ConfigurationError("HybridLPPM needs at least one LPPM")
        if not attacks:
            raise ConfigurationError("HybridLPPM needs at least one attack")
        self.lppms = list(lppms_by_distortion)
        self.attacks = list(attacks)
        self.seed = check_integer("seed", seed)

    def protect(self, trace: Trace) -> HybridResult:
        """Apply the first protecting mechanism in the configured order."""
        for lppm in self.lppms:
            rng = make_rng(stable_user_seed(self.seed, f"{trace.user_id}|{lppm.name}"))
            candidate = lppm.apply(trace, rng)
            if len(candidate) == 0:
                continue
            if is_protected(candidate, trace.user_id, self.attacks):
                distortion = spatial_temporal_distortion(trace, candidate)
                return HybridResult(trace.user_id, candidate, lppm.name, distortion)
        return HybridResult(trace.user_id, None, None, float("inf"))

    def protect_all(self, traces: Sequence[Trace]) -> List[HybridResult]:
        """Protect a list of traces, in order."""
        return [self.protect(t) for t in traces]
