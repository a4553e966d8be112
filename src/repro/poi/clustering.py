"""Point-of-Interest extraction by dwell-time clustering.

Implements the classic sequential clustering of Zhou et al. [36] as used
by the POI- and PIT-attacks: walk the trace chronologically, grow a
cluster while records stay within a *diameter* of the running centroid,
and emit the cluster as a POI when the user dwelt there at least
*min_dwell_s* seconds.  Paper parameters: diameter 200 m, dwell 1 h.

Performance notes.  The membership decision of record *i* depends on the
centroid of the records already absorbed, so the scan is sequential by
definition — but the hot-loop costs are not: :func:`extract_pois` pulls
the trace's numpy arrays into plain floats once and inlines the
equirectangular distance (bit-identical arithmetic to
:func:`repro.geo.geodesy.equirectangular_distance_m`), removing the
per-record numpy scalar indexing and call overhead that dominated the
original implementation, which is retained as
:func:`extract_pois_reference` for the equivalence property tests and
benchmarks.  It scans only where a stay can fit: a jump between
consecutive records of more than ``_CUT_MARGIN`` diameters always
closes the open cluster, so the trace is cut at each such jump and a
piece shorter in time than the dwell is skipped.  Fitting on a
background clusters many traces at once: :func:`extract_pois_many`
scans them in lockstep, one numpy step per record index across a block
of traces, with the same POIs bit for bit.
:func:`merge_nearby_pois` is a plain scalar anchor scan: a
trace has few visits to merge (7.8 on average and at most 10 per 3-day
trace of a 1,000-user synth Lyon background), and on lists that short a
vectorised distance test per visit cost ~6x the loop (0.09 s against
0.016 s for the 1,000 lists on a 2-vCPU VM).  The POI- and PIT-attacks
share one merged place list per trace through the feature cache.

:class:`PlaceIndex` packs the places of every fitted profile once; the
POI- and PIT-attacks both answer their nearest-place queries from it.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.geo.geodesy import (
    EARTH_RADIUS_M,
    equirectangular_distance_m,
    equirectangular_distance_m_vec,
)

_DEG = math.pi / 180.0

#: Traces per block of :func:`extract_pois_many`.
_LOCKSTEP_TRACES = 256
#: Padded records (steps × traces) per lockstep window.  A window holds
#: about nine float64 values per padded record, ~0.8 MB, whatever the
#: background size.  A fit's transient arrays add to the peak RSS of an
#: endpoint, which keeps its last engine while fitting the next: windows
#: of 32,768 records raised it by 2 MiB on the remote-bg1000 background.
_LOCKSTEP_RECORDS = 8_192
#: Fewest traces a lockstep step advances.  A step costs ~30 µs of numpy
#: call overhead against ~0.4 µs per record for the scalar loop (2-vCPU
#: VM), so narrower steps would be slower than the loop they replace.
_LOCKSTEP_MIN = 64
#: Relative half-width of the band around the radius in which a lockstep
#: absorption is re-decided with the scalar formula.
_BAND = 1e-9
#: Diameters a jump between consecutive records must exceed for
#: :func:`extract_pois` to cut the trace there (see :func:`_margin_holds`).
_CUT_MARGIN = 1.01
#: Fewest records :func:`extract_pois` looks for cuts in.  Finding them
#: costs ~20 µs of numpy calls, the scalar loop's time on ~60 records
#: (2-vCPU VM).  Over serve-upload-query's attacked candidates, whose
#: Geo-I and HMC day chunks hold ~60 records and mostly stays, every
#: bound from 64 to 128 read within 2% of the best total extraction
#: time, and looking in every trace read 30% more.
_CUT_MIN_RECORDS = 96


class POI(NamedTuple):
    """A meaningful place: centroid, support size, and dwell statistics.

    A named tuple: immutable, and built in a third of a frozen
    dataclass's time (whose ``__init__`` sets each field through
    ``object.__setattr__``); extraction builds one per stay.
    """

    lat: float
    lng: float
    #: Number of trace records inside the cluster.
    weight: int
    #: Total time spent in the cluster, seconds.
    dwell_s: float
    #: Timestamp of the first record of the cluster.
    t_enter: float
    #: Timestamp of the last record of the cluster.
    t_exit: float

    def distance_m(self, other: "POI") -> float:
        """Ground distance between two POI centroids, metres."""
        return equirectangular_distance_m(self.lat, self.lng, other.lat, other.lng)


class _ClusterAccumulator:
    """Running centroid of the records currently considered one stay."""

    __slots__ = ("lat_sum", "lng_sum", "count", "t_enter", "t_exit")

    def __init__(self) -> None:
        self.lat_sum = 0.0
        self.lng_sum = 0.0
        self.count = 0
        self.t_enter = 0.0
        self.t_exit = 0.0

    def add(self, lat: float, lng: float, t: float) -> None:
        if self.count == 0:
            self.t_enter = t
        self.lat_sum += lat
        self.lng_sum += lng
        self.count += 1
        self.t_exit = t

    def centroid(self) -> tuple:
        return (self.lat_sum / self.count, self.lng_sum / self.count)

    def to_poi(self) -> POI:
        lat, lng = self.centroid()
        return POI(
            lat=lat,
            lng=lng,
            weight=self.count,
            dwell_s=self.t_exit - self.t_enter,
            t_enter=self.t_enter,
            t_exit=self.t_exit,
        )


def _validate_extract_params(diameter_m: float, min_dwell_s: float) -> None:
    # Written so NaN fails too: a NaN diameter or dwell extracts no POI,
    # which would leave every profile empty without a word.
    if not (math.isfinite(diameter_m) and diameter_m > 0):
        raise ConfigurationError(f"diameter_m must be finite and > 0, got {diameter_m}")
    if not (math.isfinite(min_dwell_s) and min_dwell_s >= 0):
        raise ConfigurationError(f"min_dwell_s must be finite and >= 0, got {min_dwell_s}")


def _validate_merge_radius(merge_radius_m: float) -> None:
    if not (math.isfinite(merge_radius_m) and merge_radius_m >= 0):
        raise ConfigurationError(
            f"merge_radius_m must be finite and >= 0, got {merge_radius_m}"
        )


def validate_profile_params(
    diameter_m: Any, min_dwell_s: Any, max_places: Any, max_name: str
) -> Tuple[float, float, int]:
    """Check the place-profile parameters of the POI- and PIT-attacks.

    A parameter that lets no place through (a NaN or infinite clustering
    parameter, or a place cap below one) would make the attack profile
    nobody and answer "unknown" for every trace, so MooD would count
    every candidate as safe from it.  A bool or a numeric string is
    rejected, not coerced: ``True`` would cluster at 1 m.  Raises
    :class:`ConfigurationError`; returns ``(diameter_m, min_dwell_s,
    max_places)`` as ``(float, float, int)``, *max_places* named
    *max_name* in the message.
    """
    for name, value in (("diameter_m", diameter_m), ("min_dwell_s", min_dwell_s)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    _validate_extract_params(diameter_m, min_dwell_s)
    if (
        isinstance(max_places, bool)
        or not isinstance(max_places, numbers.Integral)
        or max_places < 1
    ):
        raise ConfigurationError(f"{max_name} must be an integer >= 1, got {max_places!r}")
    return float(diameter_m), float(min_dwell_s), int(max_places)


def extract_pois(
    trace: Trace,
    diameter_m: float = 200.0,
    min_dwell_s: float = 3600.0,
) -> List[POI]:
    """Extract the ordered list of POIs visited along *trace*.

    The returned POIs are in visit order (the order matters for the MMC
    builder, which derives transitions from consecutive visits).  A stay
    qualifies as a POI when the user remained within ``diameter_m`` of
    the running centroid for at least ``min_dwell_s`` seconds.

    Produces exactly the same POIs as :func:`extract_pois_reference`
    (asserted property-wise in the test suite); the loop body is the
    same arithmetic with the indexing and call overhead stripped out.
    One vectorised pass first cuts the trace at every jump the scan must
    break at and scans only the pieces long enough in time to hold a
    stay (:func:`_stay_pieces`).
    """
    _validate_extract_params(diameter_m, min_dwell_s)
    if len(trace) == 0:
        return []
    pois: List[POI] = []
    for lo, hi in _stay_pieces(trace, diameter_m, min_dwell_s):
        lats = trace.lats[lo:hi].tolist()
        lngs = trace.lngs[lo:hi].tolist()
        ts = trace.timestamps[lo:hi].tolist()
        first = (lats[0], lngs[0], 1, ts[0], ts[0])
        pois += _scan(ts[1:], lats[1:], lngs[1:], diameter_m / 2.0, min_dwell_s, first)
    return pois


def _stay_pieces(trace: Trace, diameter_m: float, min_dwell_s: float) -> List[Tuple[int, int]]:
    """The record ranges ``lo:hi`` of non-empty *trace* that can hold a POI.

    :func:`_scan` must close its open cluster at a record that lies more
    than ``_CUT_MARGIN`` diameters from the record before it (see
    :func:`_margin_holds`), so the POIs of the pieces between such jumps
    are those of scanning each piece from a fresh cluster.  A piece whose
    time span is below *min_dwell_s* holds no cluster that long and is
    left out.  A trace shorter than ``_CUT_MIN_RECORDS``, or one where
    the margin is not shown to hold, is one piece.
    """
    n = len(trace)
    ts, lats, lngs = trace.timestamps, trace.lats, trace.lngs
    if n < _CUT_MIN_RECORDS or not _margin_holds(ts, lats, lngs, diameter_m / 2.0):
        return [(0, n)]
    # equirectangular_distance_m_vec of consecutive records, in degrees.
    cos = lats[1:] + lats[:-1]
    cos *= 0.5 * _DEG
    np.cos(cos, out=cos)
    jumps = lngs[1:] - lngs[:-1]
    jumps *= cos
    np.hypot(jumps, lats[1:] - lats[:-1], out=jumps)
    # Piece k is records bounds[k]:bounds[k + 1].
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.greater(jumps, diameter_m * _CUT_MARGIN / (EARTH_RADIUS_M * _DEG), out=edge[1:n])
    bounds = np.flatnonzero(edge)
    keep = np.flatnonzero(ts[bounds[1:] - 1] - ts[bounds[:-1]] >= min_dwell_s).tolist()
    bounds = bounds.tolist()
    return [(bounds[k], bounds[k + 1]) for k in keep]


def _margin_holds(ts: np.ndarray, lats: np.ndarray, lngs: np.ndarray, radius_m: float) -> bool:
    """Whether every jump of more than ``_CUT_MARGIN`` diameters between
    consecutive records of this trace closes :func:`_scan`'s open cluster.

    Write ``f`` for the equirectangular distance in radians, ``u`` for
    the radius in radians, ``L`` for the largest ``|lat|``, ``a`` and
    ``b`` for the two records and ``c`` for the centroid ``b`` is tested
    against.  If ``a`` opened the cluster, ``c`` is ``a``.  If ``a``
    joined it, ``f(a, c_old) <= u``, and the new centroid moves toward
    ``a`` by ``1/(n+1)`` of the gap; that shifts the pair's mean latitude
    by at most ``u/4``, so ``f(a, c) <= u' = u (1 + k/4)`` with
    ``k = u / cos L``.  Every mean latitude lies within ``L`` and cos is
    1-Lipschitz, so weighting longitude by the cosine of the pair
    ``(b, c)`` and taking the triangle inequality of that fixed norm
    gives ``f(b, c) >= f(a, b) (1 - u'/cos L) - u'``.  With
    ``f(a, b) > 2 u m``, ``m = _CUT_MARGIN = 1.01`` and ``k <= 1/200``,
    ``f(b, c) > 1.0086 u``: the scan breaks at ``b``.

    The 0.86% slack covers the rounding of the scan and of the
    vectorised jumps while timestamps are finite (so sorted), every
    ``|lng| <= 360`` and the radius is at least a millimetre (the
    centroid's rounding then stays below 1e-4 of it).  ``k <= 1/200`` is
    ``cos L >= 200 u``: every ``|lat| <= 89.8`` for the paper's 100 m
    radius.  NaN and infinite values fail these checks.
    """
    if radius_m < 1e-3 or not math.isfinite(ts.sum()):
        return False
    lat_max = float(np.abs(lats).max())
    if not (lat_max < 90.0 and float(np.abs(lngs).max()) <= 360.0):
        return False
    return math.cos(lat_max * _DEG) * EARTH_RADIUS_M >= 200.0 * radius_m


def _scan(
    ts: List[float],
    lats: List[float],
    lngs: List[float],
    radius_m: float,
    min_dwell_s: float,
    cluster: Tuple[float, float, int, float, float],
) -> List[POI]:
    """The POIs of the records *ts*/*lats*/*lngs*, *cluster* being the
    open cluster the records before them left: ``(lat_sum, lng_sum,
    count, t_enter, t_exit)``.  The sequential scan behind
    :func:`extract_pois`, which also finishes the traces the lockstep of
    :func:`extract_pois_many` hands over."""
    lat_sum, lng_sum, count, t_enter, t_exit = cluster
    cos = math.cos
    hypot = math.hypot
    pois: List[POI] = []
    for t, lat, lng in zip(ts, lats, lngs):
        c_lat = lat_sum / count
        c_lng = lng_sum / count
        # equirectangular_distance_m(lat, lng, c_lat, c_lng), inlined.
        mean_phi = 0.5 * (lat + c_lat) * _DEG
        x = (c_lng - lng) * _DEG * cos(mean_phi)
        y = (c_lat - lat) * _DEG
        if EARTH_RADIUS_M * hypot(x, y) <= radius_m:
            lat_sum += lat
            lng_sum += lng
            count += 1
            t_exit = t
        else:
            if t_exit - t_enter >= min_dwell_s:
                pois.append(
                    POI(
                        lat=lat_sum / count,
                        lng=lng_sum / count,
                        weight=count,
                        dwell_s=t_exit - t_enter,
                        t_enter=t_enter,
                        t_exit=t_exit,
                    )
                )
            lat_sum = lat
            lng_sum = lng
            count = 1
            t_enter = t_exit = t
    if t_exit - t_enter >= min_dwell_s:
        pois.append(
            POI(
                lat=lat_sum / count,
                lng=lng_sum / count,
                weight=count,
                dwell_s=t_exit - t_enter,
                t_enter=t_enter,
                t_exit=t_exit,
            )
        )
    return pois


def extract_pois_many(
    traces: Sequence[Trace],
    diameter_m: float = 200.0,
    min_dwell_s: float = 3600.0,
) -> List[List[POI]]:
    """``[extract_pois(t, diameter_m, min_dwell_s) for t in traces]``, in bulk.

    The traces are sorted longest first and scanned in blocks of up to
    ``_LOCKSTEP_TRACES``: one numpy step per record index advances every
    trace still running, with the scalar loop's arithmetic in the same
    order, so centroids, weights and times are bit-identical.  Only the
    distance may differ, because ``np.cos``/``np.hypot`` can round the
    last ulp differently from :mod:`math`; an absorption decision whose
    distance lies within a relative ``_BAND`` of the radius is therefore
    re-decided with :func:`~repro.geo.geodesy.equirectangular_distance_m`,
    the scalar formula.  A step costs about as much as the scalar loop
    spends on ``_LOCKSTEP_MIN`` records, so a block narrower than that
    runs the scalar loop from the start, and once fewer traces of a
    block are left running they finish in it from their open cluster.
    A trace with an infinite latitude takes the scalar loop too, whose
    :func:`math.cos` rejects it.
    """
    _validate_extract_params(diameter_m, min_dwell_s)
    radius_m = diameter_m / 2.0
    out: List[List[POI]] = [[] for _ in traces]
    bulk: List[int] = []
    for i, trace in enumerate(traces):
        if len(trace) > 0 and np.isinf(trace.lats).any():
            out[i] = extract_pois(trace, diameter_m, min_dwell_s)
        elif len(trace) > 0:
            bulk.append(i)
    bulk.sort(key=lambda i: -len(traces[i]))
    blocks = -(-len(bulk) // _LOCKSTEP_TRACES)
    for b in range(blocks):
        block = bulk[len(bulk) * b // blocks : len(bulk) * (b + 1) // blocks]
        if len(block) < _LOCKSTEP_MIN:
            for i in block:
                out[i] = extract_pois(traces[i], diameter_m, min_dwell_s)
            continue
        found = _lockstep([traces[i] for i in block], radius_m, min_dwell_s)
        for i, pois in zip(block, found):
            out[i] = pois
    return out


def _emit(
    pois: List[List[POI]],
    cols: np.ndarray,
    clusters: np.ndarray,
    t_exit: np.ndarray,
    min_dwell_s: float,
) -> None:
    """Append each closed cluster that qualifies as a POI to
    ``pois[cols[k]]``, in order.  Column ``k`` of *clusters* holds the
    cluster's ``lat`` sum, ``lng`` sum, count and entry time."""
    dwell = t_exit - clusters[3]
    keep = dwell >= min_dwell_s
    if not keep.any():
        return
    lat_sum, lng_sum, count, t_enter = clusters[:, keep]
    for col, lat, lng, weight, dwell_s, enter, exit_ in zip(
        cols[keep].tolist(),
        (lat_sum / count).tolist(),
        (lng_sum / count).tolist(),
        count.astype(np.int64).tolist(),
        dwell[keep].tolist(),
        t_enter.tolist(),
        t_exit[keep].tolist(),
    ):
        pois[col].append(POI(lat, lng, weight, dwell_s, enter, exit_))


def _lockstep(traces: Sequence[Trace], radius_m: float, min_dwell_s: float) -> List[List[POI]]:
    """The POIs of non-empty *traces*, longest first and at least
    ``_LOCKSTEP_MIN`` of them, scanned in lockstep.

    Record index ``i`` is one step over the traces longer than ``i``,
    a prefix of the block.  Steps run in windows of at most
    ``_LOCKSTEP_RECORDS`` padded records.  A window keeps, per trace, the
    open cluster after every record — ``lat``/``lng`` sums, count and
    entry time — plus whether each record joined it, so after the window
    one vectorised pass finds the clusters it closed.  The steps stop
    where fewer than ``_LOCKSTEP_MIN`` traces are left; those finish in
    :func:`_scan` from their open cluster.
    """
    lengths = np.array([len(t) for t in traces])
    pois: List[List[POI]] = [[] for _ in traces]
    # The open cluster of each trace after its record 0: rows lat sum,
    # lng sum, count and entry time, beside its exit time.
    first = np.array([t.timestamps[0] for t in traces])
    cluster = np.array(
        [[t.lats[0] for t in traces], [t.lngs[0] for t in traces], np.ones(len(traces)), first]
    )
    t_exit = first
    # Traces of one record end before the first step.
    ended = np.flatnonzero(lengths == 1)
    _emit(pois, ended, cluster[:, ended], t_exit[ended], min_dwell_s)
    stop = int(lengths[_LOCKSTEP_MIN - 1])
    steps = max(1, _LOCKSTEP_RECORDS // len(traces))
    with np.errstate(invalid="ignore"):
        for lo in range(1, stop, steps):
            cluster, t_exit = _window(
                traces, lengths, lo, min(lo + steps, stop), cluster, t_exit, pois, radius_m, min_dwell_s
            )
    lat_sum, lng_sum, count, t_enter = cluster.tolist()
    t_exit = t_exit.tolist()
    for j in range(int(np.count_nonzero(lengths > stop))):
        trace = traces[j]
        pois[j] += _scan(
            trace.timestamps[stop:].tolist(),
            trace.lats[stop:].tolist(),
            trace.lngs[stop:].tolist(),
            radius_m,
            min_dwell_s,
            (lat_sum[j], lng_sum[j], int(count[j]), t_enter[j], t_exit[j]),
        )
    return pois


def _window(
    traces: Sequence[Trace],
    lengths: np.ndarray,
    lo: int,
    hi: int,
    cluster: np.ndarray,
    t_exit: np.ndarray,
    pois: List[List[POI]],
    radius_m: float,
    min_dwell_s: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lockstep steps ``lo..hi-1`` of :func:`_lockstep` from the open
    clusters *cluster* and their exit times (at least one column per
    trace still running at *lo*).  Emits the clusters closed by these
    records and the last ones of the traces that end here; returns the
    open clusters after *hi* in the same form."""
    cols = int(np.count_nonzero(lengths > lo))
    rows = hi - lo
    running = np.count_nonzero(lengths[None, :cols] > np.arange(lo, hi)[:, None], axis=1)
    # rec[k] is record lo + k as a cluster of one (lat, lng, 1, t), and
    # state[k + 1] the open cluster after it (state[0]: the one before lo).
    take = np.minimum(lengths[:cols], hi) - lo
    col = np.repeat(np.arange(cols), take)
    row = np.arange(col.size) - np.repeat(np.cumsum(take) - take, take)
    block = traces[:cols]
    rec = np.zeros((rows, 4, cols))
    rec[:, 2] = 1.0
    for field, values in ((0, "lats"), (1, "lngs"), (3, "timestamps")):
        rec[row, field, col] = np.concatenate([getattr(t, values)[lo:hi] for t in block])
    state = np.zeros((rows + 1, 4, cols))
    state[0] = cluster[:, :cols]
    joined = np.zeros((rows + 1, cols), dtype=bool)
    band = radius_m * _BAND
    for k, n in enumerate(running.tolist()):
        now = state[k, :, :n]
        record = rec[k, :, :n]
        centroid = now[:2] / now[2]
        # equirectangular_distance_m(lat, lng, c_lat, c_lng) minus the
        # radius, with the scalar loop's operations in the same order.
        y_x = (centroid - record[:2]) * _DEG
        # 0.5 * s * _DEG == s * (0.5 * _DEG): halving is exact.
        d = (record[0] + centroid[0]) * (0.5 * _DEG)
        np.cos(d, out=d)
        d *= y_x[1]
        d = np.hypot(d, y_x[0])
        d *= EARTH_RADIUS_M
        d -= radius_m
        absorb = joined[k + 1, :n]
        np.less_equal(d, 0.0, out=absorb)
        if np.abs(d, out=d).min() <= band:
            for j in np.flatnonzero(d <= band).tolist():
                lat, lng = record[:2, j].tolist()
                c_lat, c_lng = centroid[:, j].tolist()
                absorb[j] = equirectangular_distance_m(lat, lng, c_lat, c_lng) <= radius_m
        after = state[k + 1, :, :n]
        after[...] = record
        np.add(now[:3], record[:3], out=after[:3], where=absorb)
        np.copyto(after[3], now[3], where=absorb)
    exits = np.concatenate([t_exit[None, :cols], rec[:, 3]])
    # A record that did not join closes the cluster before it.
    closed = np.zeros((cols, rows), dtype=bool)
    closed[col, row] = ~joined[row + 1, col]
    tj, tk = np.nonzero(closed)
    _emit(pois, tj, state[tk, :, tj].T, exits[tk, tj], min_dwell_s)
    # A trace ending in this window closes its last cluster.
    ended = np.flatnonzero(lengths[:cols] <= hi)
    last = lengths[ended] - lo
    _emit(pois, ended, state[last, :, ended].T, exits[last, ended], min_dwell_s)
    return state[rows].copy(), exits[rows].copy()


def _place_order(poi: POI) -> Tuple[int, float]:
    """Heaviest first, ties by earliest entry."""
    return (-poi.weight, poi.t_enter)


def merge_nearby_pois(pois: Sequence[POI], merge_radius_m: float = 100.0) -> List[POI]:
    """Fuse POIs whose centroids lie within *merge_radius_m* of each other.

    Repeated visits to the same place yield one cluster per visit; the
    profile-building attacks fuse them into a single weighted place.  The
    merge is greedy in descending weight order, which is deterministic
    and keeps the heaviest places as anchors: each POI joins the first
    anchor within the radius, or becomes an anchor itself.  The places
    come back heaviest first, ties by earliest entry — the order in which
    the POI-attack keeps ``max_pois`` of them and the MMC ``max_states``.
    """
    _validate_merge_radius(merge_radius_m)
    merged: List[POI] = []
    for poi in sorted(pois, key=_place_order):
        for j, anchor in enumerate(merged):
            if poi.distance_m(anchor) <= merge_radius_m:
                total = anchor.weight + poi.weight
                merged[j] = POI(
                    lat=(anchor.lat * anchor.weight + poi.lat * poi.weight) / total,
                    lng=(anchor.lng * anchor.weight + poi.lng * poi.weight) / total,
                    weight=total,
                    dwell_s=anchor.dwell_s + poi.dwell_s,
                    t_enter=min(anchor.t_enter, poi.t_enter),
                    t_exit=max(anchor.t_exit, poi.t_exit),
                )
                break
        else:
            merged.append(poi)
    merged.sort(key=_place_order)
    return merged


class PlaceIndex:
    """The places of every fitted profile, packed once for nearest-place queries.

    Flat ``lat``/``lng``/``mass`` arrays hold every profile's places,
    users in sorted order and each user's places in profile order; user
    ``k`` owns the segment ``starts[k]:starts[k + 1]`` (CSR layout) and
    ``mass_sum[k]`` is its total mass.  The POI-attack's mass is the POI
    weight, the PIT-attack's the MMC stationary probability.  A query
    computes its ``(query places × packed places)`` distance matrix in
    one broadcast (:meth:`distances_m`) and reduces it per segment, so no
    Python loop runs over profiles.  Every profile holds at least one
    place; entries of a per-user result follow :attr:`users`, so a first
    minimum is the smallest user id.
    """

    __slots__ = ("users", "lat", "lng", "mass", "starts", "mass_sum")

    def __init__(
        self, profiles: Mapping[str, Tuple[Sequence[POI], Sequence[float]]]
    ) -> None:
        """*profiles* maps each user to its places and their masses."""
        self.users: Tuple[str, ...] = tuple(sorted(profiles))
        lats: List[float] = []
        lngs: List[float] = []
        masses: List[float] = []
        starts = [0]
        for user in self.users:
            places, mass = profiles[user]
            lats.extend(p.lat for p in places)
            lngs.extend(p.lng for p in places)
            masses.extend(float(m) for m in mass)
            starts.append(len(lats))
        self.lat = np.asarray(lats, dtype=np.float64)
        self.lng = np.asarray(lngs, dtype=np.float64)
        self.mass = np.asarray(masses, dtype=np.float64)
        self.starts = np.asarray(starts, dtype=np.intp)
        self.mass_sum = np.add.reduceat(self.mass, self.starts[:-1])

    def distances_m(self, lat: np.ndarray, lng: np.ndarray) -> np.ndarray:
        """Ground distance from each query place to each packed place,
        metres, shape ``(len(lat), len(self.lat))`` — the operand order
        of :meth:`POI.distance_m` called on the query place."""
        return equirectangular_distance_m_vec(
            lat[:, None], lng[:, None], self.lat[None, :], self.lng[None, :]
        )

    def segment_min(self, d: np.ndarray) -> np.ndarray:
        """Each row's minimum over each user's places: shape ``(rows, users)``."""
        return np.minimum.reduceat(d, self.starts[:-1], axis=1)

    def nearest(self, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(segment_min(d), position)``, where *position* is the packed
        index of the **first** place of each user at that minimum — the
        place a scalar scan with a strict ``<`` keeps."""
        seg_min = self.segment_min(d)
        n = d.shape[1]
        at_min = d == np.repeat(seg_min, np.diff(self.starts), axis=1)
        first = np.minimum.reduceat(
            np.where(at_min, np.arange(n), n), self.starts[:-1], axis=1
        )
        return seg_min, first

    def ranking(self, distances: np.ndarray) -> List[Tuple[str, float]]:
        """Users with a finite distance, ascending, ties by user id."""
        order = np.argsort(distances, kind="stable")
        return [
            (self.users[i], float(distances[i]))
            for i in order
            if math.isfinite(distances[i])
        ]

    def best(self, distances: np.ndarray) -> Optional[Tuple[str, float]]:
        """``ranking(distances)[0]`` without the sort: the first finite
        minimum, or ``None`` when no distance is finite."""
        finite = np.isfinite(distances)
        if not finite.any():
            return None
        i = int(np.argmin(np.where(finite, distances, np.inf)))
        return (self.users[i], float(distances[i]))


# ---------------------------------------------------------------------------
# Scalar reference implementations (equivalence tests and benchmarks)
# ---------------------------------------------------------------------------


def extract_pois_reference(
    trace: Trace,
    diameter_m: float = 200.0,
    min_dwell_s: float = 3600.0,
) -> List[POI]:
    """The original record-by-record implementation of :func:`extract_pois`."""
    _validate_extract_params(diameter_m, min_dwell_s)
    radius_m = diameter_m / 2.0
    pois: List[POI] = []
    cluster = _ClusterAccumulator()
    for i in range(len(trace)):
        lat = float(trace.lats[i])
        lng = float(trace.lngs[i])
        t = float(trace.timestamps[i])
        if cluster.count == 0:
            cluster.add(lat, lng, t)
            continue
        c_lat, c_lng = cluster.centroid()
        if equirectangular_distance_m(lat, lng, c_lat, c_lng) <= radius_m:
            cluster.add(lat, lng, t)
        else:
            if cluster.t_exit - cluster.t_enter >= min_dwell_s:
                pois.append(cluster.to_poi())
            cluster = _ClusterAccumulator()
            cluster.add(lat, lng, t)
    if cluster.count > 0 and cluster.t_exit - cluster.t_enter >= min_dwell_s:
        pois.append(cluster.to_poi())
    return pois
