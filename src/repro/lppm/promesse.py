"""Promesse: time-distortion anonymisation (Primault et al. [28]).

Promesse erases *temporal* mobility patterns: the trace is resampled at
a fixed spatial interval ``epsilon_m`` (one output record every ε metres
along the path) and the timestamps are re-assigned **uniformly** between
the trace's start and end.  Dwells collapse to single points and speed
information disappears, which destroys POI dwell-time signatures while
keeping the travelled *route* intact at ε resolution.

Cited as related work in the MooD paper (§5, [28]); provided here as an
optional fourth mechanism for MooD's composition search (the paper's §6
notes MooD "can be extended by using state-of-the-art LPPMs").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.geo.geodesy import haversine_m
from repro.lppm.base import LPPM
from repro.registry import register_lppm
from repro.rng import SeedLike


@register_lppm("promesse")
class Promesse(LPPM):
    """Spatial resampling at a fixed ε with uniform timestamp smoothing."""

    name = "Promesse"
    deterministic = True

    def __init__(self, epsilon_m: float = 200.0) -> None:
        if epsilon_m <= 0:
            raise ConfigurationError(f"epsilon_m must be positive, got {epsilon_m}")
        self.epsilon_m = float(epsilon_m)

    def apply(self, trace: Trace, rng: Optional[SeedLike] = None) -> Trace:
        if len(trace) < 2:
            return trace
        lats: List[float] = [float(trace.lats[0])]
        lngs: List[float] = [float(trace.lngs[0])]
        # Walk the polyline, emitting a point every epsilon_m metres.
        acc = 0.0
        prev_lat = float(trace.lats[0])
        prev_lng = float(trace.lngs[0])
        for i in range(1, len(trace)):
            cur_lat = float(trace.lats[i])
            cur_lng = float(trace.lngs[i])
            step = haversine_m(prev_lat, prev_lng, cur_lat, cur_lng)
            while acc + step >= self.epsilon_m and step > 0:
                remain = self.epsilon_m - acc
                w = remain / step
                emit_lat = prev_lat + w * (cur_lat - prev_lat)
                emit_lng = prev_lng + w * (cur_lng - prev_lng)
                lats.append(emit_lat)
                lngs.append(emit_lng)
                prev_lat, prev_lng = emit_lat, emit_lng
                step = haversine_m(prev_lat, prev_lng, cur_lat, cur_lng)
                acc = 0.0
            acc += step
            prev_lat, prev_lng = cur_lat, cur_lng
        if len(lats) < 2:
            # The user never moved ε metres: publish endpoints only.
            lats = [float(trace.lats[0]), float(trace.lats[-1])]
            lngs = [float(trace.lngs[0]), float(trace.lngs[-1])]
        # Uniform timestamps over the original span — the time distortion.
        times = np.linspace(trace.start_time(), trace.end_time(), num=len(lats))
        return Trace(trace.user_id, times, lats, lngs)

    def __repr__(self) -> str:
        return f"Promesse(epsilon_m={self.epsilon_m})"
