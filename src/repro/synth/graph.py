"""City-derived zone/transport graphs for the synthetic corpus engine.

A :class:`ZoneGraph` discretises a :class:`repro.datasets.cities.City`
into concentric rings of zones around the centre (zone 0), in the spirit
of the SaiGon-Peninsula ABM's transport network: each zone carries
residential / employment / leisure attraction weights, and zones are
linked by a transport graph (ring and radial edges) over which agent
trips are routed.  Employment concentrates downtown, residences peak in
the middle rings, leisure follows a mix of both — the classic monocentric
city profile, with per-zone jitter keyed by zone id so the layout is
deterministic and order-independent.

Routing uses an all-pairs shortest-path table (Floyd–Warshall over the
few dozen zones) computed once at build time; :meth:`ZoneGraph.route`
then returns the zone-id path for any origin–destination pair in O(path
length).  Schedules snap their travel legs to these paths, which is what
makes synthetic commutes follow shared corridors instead of beelines —
the raw material of inter-user overlap that re-identification attacks
(and their confusion) feed on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.datasets.cities import City
from repro.errors import ConfigurationError
from repro.synth.seeding import substream

__all__ = ["Zone", "ZoneGraph"]

_M_PER_DEG = 111_320.0


def _distance_m(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Equirectangular distance between two (lat, lng) pairs, metres."""
    dy = (b[0] - a[0]) * _M_PER_DEG
    dx = (b[1] - a[1]) * _M_PER_DEG * math.cos(math.radians(0.5 * (a[0] + b[0])))
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class Zone:
    """One zone of the city graph: a place with attraction weights."""

    zone_id: int
    #: Ring index (0 = the centre zone).
    ring: int
    center: Tuple[float, float]
    #: Spatial spread of points sampled inside the zone, metres.
    radius_m: float
    #: Attraction weights (arbitrary positive units, compared zone-to-zone).
    residential: float
    employment: float
    leisure: float


class ZoneGraph:
    """Zones plus the transport edges that connect them.

    Built deterministically from a city and a seed via
    :meth:`ZoneGraph.build`; the constructor itself is layout-agnostic so
    tests can assemble tiny hand-made graphs.
    """

    def __init__(self, city: City, zones: Sequence[Zone], edges: Sequence[Tuple[int, int]]) -> None:
        if not zones:
            raise ConfigurationError("a zone graph needs at least one zone")
        self.city = city
        self.zones: List[Zone] = list(zones)
        n = len(self.zones)
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ConfigurationError(f"bad edge ({a}, {b}) for {n} zones")
        self._adjacency: Dict[int, Set[int]] = {z.zone_id: set() for z in self.zones}
        for a, b in edges:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self.residential = np.array([z.residential for z in self.zones])
        self.employment = np.array([z.employment for z in self.zones])
        self.leisure = np.array([z.leisure for z in self.zones])
        self._dist, self._next_hop = self._all_pairs(edges)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        city: City,
        rings: int = 4,
        sectors: int = 9,
        seed: int = 0,
    ) -> "ZoneGraph":
        """The deterministic ring/sector layout for *city*.

        Zone 0 sits at the centre; ring ``r`` (1‥rings) holds ``sectors``
        zones at radius ``r · city.radius_m / rings``, angularly offset by
        half a sector on odd rings so radial edges zig-zag like a real
        street grid.  Attraction weights follow the monocentric profile
        (employment decays from the CBD, residences peak mid-ring) with
        per-zone jitter from a zone-keyed substream — adding or reordering
        zones never perturbs another zone's weights.
        """
        if rings < 1:
            raise ConfigurationError(f"rings must be >= 1, got {rings}")
        if sectors < 3:
            raise ConfigurationError(f"sectors must be >= 3, got {sectors}")
        _, to_latlng = city.projector()
        spacing = city.radius_m / rings
        zones: List[Zone] = []

        def jitter(zone_id: int) -> Tuple[float, float, float]:
            rng = substream(seed, "graph", city.name, "zone", zone_id)
            return tuple(rng.uniform(0.7, 1.3, size=3))

        def weights(zone_id: int, rel: float) -> Tuple[float, float, float]:
            """Monocentric profile at relative radius ``rel`` ∈ [0, 1]."""
            j_res, j_emp, j_lei = jitter(zone_id)
            employment = math.exp(-2.2 * rel) * j_emp
            residential = (0.25 + rel) * math.exp(-1.1 * rel) * j_res
            leisure = (0.5 * math.exp(-1.8 * rel) + 0.2) * j_lei
            return residential, employment, leisure

        res, emp, lei = weights(0, 0.0)
        zones.append(
            Zone(0, 0, (city.center_lat, city.center_lng), spacing / 2.5, res, emp, lei)
        )
        for ring in range(1, rings + 1):
            radius = ring * spacing
            offset = 0.5 if ring % 2 else 0.0
            for s in range(sectors):
                zone_id = 1 + (ring - 1) * sectors + s
                angle = 2.0 * math.pi * (s + offset) / sectors
                center = to_latlng(radius * math.cos(angle), radius * math.sin(angle))
                res, emp, lei = weights(zone_id, ring / rings)
                zones.append(Zone(zone_id, ring, center, spacing / 2.5, res, emp, lei))

        edges: List[Tuple[int, int]] = []
        for ring in range(1, rings + 1):
            base = 1 + (ring - 1) * sectors
            for s in range(sectors):
                # Ring edge to the next sector neighbour.
                edges.append((base + s, base + (s + 1) % sectors))
                # Radial edge inward: ring 1 connects to the centre; deeper
                # rings connect to the same sector index one ring in.
                inward = 0 if ring == 1 else base - sectors + s
                edges.append((base + s, inward))
        return cls(city, zones, edges)

    # -- routing ----------------------------------------------------------

    def _all_pairs(
        self, edges: Sequence[Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Floyd–Warshall distance and next-hop tables over the zones."""
        n = len(self.zones)
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        nxt = np.tile(np.arange(n), (n, 1))
        for a, b in edges:
            w = _distance_m(self.zones[a].center, self.zones[b].center)
            if w < dist[a, b]:
                dist[a, b] = dist[b, a] = w
                nxt[a, b] = b
                nxt[b, a] = a
        for k in range(n):
            alt = dist[:, k : k + 1] + dist[k : k + 1, :]
            better = alt < dist
            dist = np.where(better, alt, dist)
            nxt = np.where(better, nxt[:, k : k + 1], nxt)
        if not np.all(np.isfinite(dist)):
            raise ConfigurationError("the zone graph is not connected")
        return dist, nxt

    def __len__(self) -> int:
        return len(self.zones)

    def is_edge(self, a: int, b: int) -> bool:
        """True iff zones *a* and *b* are directly linked."""
        return b in self._adjacency[a]

    def route(self, a: int, b: int) -> List[int]:
        """Shortest zone-id path from *a* to *b* (inclusive of both)."""
        path = [a]
        while path[-1] != b:
            path.append(int(self._next_hop[path[-1], b]))
        return path

    def route_length_m(self, a: int, b: int) -> float:
        """Length of the shortest path from *a* to *b*, metres."""
        return float(self._dist[a, b])

    def zone_distance_m(self, a: int, b: int) -> float:
        """Straight-line distance between two zone centres, metres."""
        return _distance_m(self.zones[a].center, self.zones[b].center)

    # -- geometry ---------------------------------------------------------

    def point_in(self, zone_id: int, rng: np.random.Generator) -> Tuple[float, float]:
        """A random point inside *zone_id* (Gaussian around the centre)."""
        zone = self.zones[zone_id]
        sigma = zone.radius_m / 2.0
        dx = float(np.clip(rng.normal(0.0, sigma), -zone.radius_m, zone.radius_m))
        dy = float(np.clip(rng.normal(0.0, sigma), -zone.radius_m, zone.radius_m))
        lat = zone.center[0] + dy / _M_PER_DEG
        lng = zone.center[1] + dx / (_M_PER_DEG * math.cos(math.radians(zone.center[0])))
        return (lat, lng)

    def __repr__(self) -> str:
        return (
            f"ZoneGraph(city={self.city.name!r}, zones={len(self.zones)}, "
            f"edges={sum(len(v) for v in self._adjacency.values()) // 2})"
        )
