"""The identity (no-op) LPPM — the paper's "no-LPPM" baseline."""

from __future__ import annotations

from typing import Optional

from repro.core.trace import Trace
from repro.lppm.base import LPPM
from repro.registry import register_lppm
from repro.rng import SeedLike


@register_lppm("identity")
class Identity(LPPM):
    """Publishes the trace unmodified.

    Used as the "no-LPPM" bar of Figures 6 and 7 and as a neutral element
    in composition tests.
    """

    name = "no-LPPM"
    deterministic = True

    def apply(self, trace: Trace, rng: Optional[SeedLike] = None) -> Trace:
        return trace
