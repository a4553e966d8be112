"""Kernel timing harness and perf snapshots (``python -m repro bench``).

Measures the composition-search hot-path kernels — attack ``rank()`` /
``top1()`` at N profiled users, POI extraction, POI-set distance —
against the retained scalar reference implementations
(:mod:`repro.attacks.reference`), plus an end-to-end engine smoke
(users/sec).  Speedups are *measured on the spot*, never remembered:
every snapshot times the reference and the fast kernel on the same data
in the same process.

Entry points:

* :func:`run_smoke` — a sub-minute sanity pass (100-user kernels, a
  tiny engine run, a 1000-user background fit through the bulk and
  the per-trace kernels, fitted states asserted bit-identical, and the
  1000-profile Topsoe kernel asserted byte-identical to the dense block
  kernel it replaced), wired
  into ``python -m repro bench smoke`` together with the tier-1 test
  suite; this is the CI job.
* :func:`run_micro` — the full micro suite at N ∈ {100, 1000} users,
  emitting the committed ``BENCH_<k>.json`` trajectory snapshots.
* :func:`run_service` — the service-path suite: requests/s through the
  loopback and TCP transports (same engine, same upload stream, replies
  asserted identical) and one ``protect_dataset`` per executor backend
  (serial vs process, published datasets asserted byte-identical; its
  wall time includes pool start-up, so it does not rank the backends).
  ``smoke=True`` is the <60 s CI variant; the full run emits
  ``BENCH_3.json``.
* :func:`run_remote` — the multi-host suite: ``protect_dataset`` through
  the ``remote`` executor against a loopback cluster of two freshly
  spawned ``ServiceServer`` instances, with the published dataset
  asserted byte-identical to the serial backend — once with both
  endpoints alive, once with one endpoint killed (failover onto the
  survivor), and once on the chaos leg: a flapping endpoint that is
  down at dispatch and rejoins mid-batch (endpoint rehabilitation,
  PR 5).  ``smoke=True`` is the <60 s CI variant; the full run emits
  ``BENCH_5.json`` (``BENCH_4.json`` predates the flap leg).
* :func:`run_cluster` — the elastic-cluster yardstick (PR 8): spawn a
  coordinator plus worker ``ServiceServer`` instances and drive
  ``protect_dataset`` through the elastic work-stealing dispatch
  (:mod:`repro.cluster`) three ways — membership-only discovery (no
  seed endpoints), a **churn leg** where a second worker
  ``cluster_join``s AND the original worker ``cluster_leave``s
  mid-batch (bytes must stay serial-identical and the joiner must
  serve work), and a ``metrics_request`` probe of the operator
  surface.  ``smoke=True`` is the <60 s CI variant; the full run
  emits ``BENCH_8.json``.
* :func:`run_scale` — the tiered load yardstick over the synthetic
  corpus engine (:mod:`repro.synth`): stream a full tier (10k/100k/1M
  users) one trace at a time recording users/s and peak RSS, assert the
  corpus digest is reproducible (full regeneration **and** as the head
  of the 10×-larger population — tier prefix-stability), then push a
  CI-capped head of the corpus through ``protect_dataset`` per executor
  with a fresh FeatureCache each (byte-identity asserted).  The 10k
  tier is the <60 s CI job; snapshots are committed as ``BENCH_6.json``.
* :func:`run_stream` — the streaming-ingestion yardstick (PR 7): replay
  a slice of the synthetic Saigon corpus through the ``stream_*`` verbs
  recording records/s (floor asserted), assert the flushed output is
  byte-identical to the batch ``protect`` path per user, then hit a
  small bounded buffer with a sustained 2× overload burst and assert
  shedding engages with visible reason codes while peak RSS growth
  stays bounded.  ``smoke=True`` is the <60 s CI variant; the full run
  emits ``BENCH_7.json``.

* :func:`run_codec` — the wire-codec yardstick (PR 10): encode+decode
  throughput of the v1 JSON-lines codec vs the negotiated v2 binary
  codec on a 10k-record-tier protect batch (the v2 leg must clear a
  3× floor, asserted on the spot), byte-identity of the upload
  receipts across a v1 loopback and a v2 loopback, and a
  **mixed-version cluster leg**: a v1-only ``ServiceServer``
  (``wire_versions=(1,)``) joined to a v2-speaking cluster client,
  with the published dataset asserted byte-identical to serial.
  ``smoke=True`` is the <60 s CI variant; the full run emits
  ``BENCH_9.json``.

Every ``run_*`` returns a JSON-serialisable snapshot dict;
``repro bench <mode> --out FILE`` writes it (the committed
``BENCH_<k>.json`` files), and :func:`format_snapshot` renders any of
them as one line per leaf.

The synthetic corpus is generated directly here (homes + commutes over
a city-sized box) so the benches do not depend on the experiment
harness and scale to thousands of users in seconds.
"""

from __future__ import annotations

import functools
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.ap_attack import ApAttack
from repro.attacks.pit_attack import PitAttack
from repro.attacks.poi_attack import PoiAttack, poi_set_distance
from repro.attacks.reference import (
    ap_rank_reference,
    best_protecting_reference,
    pit_rank_reference,
    poi_rank_reference,
    poi_set_distance_reference,
    rankings_equivalent,
    topsoe_divergences_reference,
)
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.poi.clustering import extract_pois, extract_pois_reference

#: Reference city (Lyon, the Privamov vintage).
CITY_LAT = 45.76
CITY_LNG = 4.84
_M_PER_DEG = 111_320.0


def synthetic_trace(
    user_id: str,
    seed: int,
    n_places: int = 4,
    visits_per_place: int = 3,
    dwell_s: float = 5400.0,
    period_s: float = 300.0,
    commute_points: int = 20,
    spread_deg: float = 0.15,
) -> Trace:
    """One user's trace: repeated dwells at a few home places, joined by
    commutes — yields stable POIs *and* a wide heatmap support."""
    rng = np.random.default_rng(seed)
    base_lat = CITY_LAT + rng.uniform(-spread_deg, spread_deg)
    base_lng = CITY_LNG + rng.uniform(-spread_deg, spread_deg)
    places = np.stack(
        [
            base_lat + rng.uniform(-0.02, 0.02, size=n_places),
            base_lng + rng.uniform(-0.02, 0.02, size=n_places),
        ],
        axis=1,
    )
    lats: List[np.ndarray] = []
    lngs: List[np.ndarray] = []
    ts: List[np.ndarray] = []
    t = 0.0
    n_dwell = max(2, int(dwell_s / period_s))
    jitter = 5.0 / _M_PER_DEG
    order = [places[i % n_places] for i in range(n_places * visits_per_place)]
    for k, (p_lat, p_lng) in enumerate(order):
        lats.append(p_lat + rng.normal(0.0, jitter, size=n_dwell))
        lngs.append(p_lng + rng.normal(0.0, jitter, size=n_dwell))
        ts.append(t + np.arange(n_dwell) * period_s)
        t += n_dwell * period_s
        if k + 1 < len(order):
            q_lat, q_lng = order[k + 1]
            frac = np.linspace(0.0, 1.0, commute_points + 2)[1:-1]
            lats.append(p_lat + (q_lat - p_lat) * frac)
            lngs.append(p_lng + (q_lng - p_lng) * frac)
            ts.append(t + np.arange(commute_points) * 60.0)
            t += commute_points * 60.0 + 1800.0
    return Trace(
        user_id,
        np.concatenate(ts),
        np.concatenate(lats),
        np.concatenate(lngs),
    )


def synthetic_background(n_users: int, seed: int = 7, **kwargs: Any) -> MobilityDataset:
    """A corpus of :func:`synthetic_trace` users (``user0000`` …)."""
    ds = MobilityDataset(f"bench-synth-{n_users}")
    for i in range(n_users):
        ds.add(synthetic_trace(f"user{i:04d}", seed=seed * 100_003 + i, **kwargs))
    return ds


def time_fn(fn: Callable[[], Any], repeat: int = 5, warmup: int = 1) -> float:
    """Best-of-*repeat* wall seconds for one call of *fn* (after warmup)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _speedup_entry(fast_s: float, reference_s: float) -> Dict[str, float]:
    return {
        "fast_s": fast_s,
        "reference_s": reference_s,
        "speedup": reference_s / fast_s if fast_s > 0 else float("inf"),
    }


def bench_rank_at_scale(
    n_users: int, seed: int = 7, repeat: int = 3
) -> Dict[str, Dict[str, float]]:
    """``rank()``/``top1()`` timings at *n_users* profiled users, fast vs
    scalar reference, for the AP-, POI- and PIT-attacks."""
    background = synthetic_background(n_users, seed=seed)
    probe = synthetic_trace("probe", seed=seed - 1)
    attacks = {
        "ap": (ApAttack(cell_size_m=800.0, ref_lat=CITY_LAT), ap_rank_reference),
        "poi": (PoiAttack(), poi_rank_reference),
        "pit": (PitAttack(), pit_rank_reference),
    }
    out: Dict[str, Dict[str, float]] = {}
    for name, (attack, reference) in attacks.items():
        attack.fit(background)
        # Sanity: fast and reference kernels must agree before timing them.
        if not rankings_equivalent(attack.rank(probe), reference(attack, probe)):
            raise AssertionError(
                f"{attack.name} fast ranking diverged from the scalar reference"
            )
        if attack.top1(probe) != attack.rank(probe)[0]:
            raise AssertionError(f"{attack.name} top1 fast path disagreed with rank()[0]")
        out[f"{name}_rank"] = _speedup_entry(
            time_fn(lambda: attack.rank(probe), repeat=repeat),
            time_fn(lambda: reference(attack, probe), repeat=repeat),
        )
        out[f"{name}_top1"] = {"fast_s": time_fn(lambda: attack.top1(probe), repeat=repeat)}
    ap, poi = attacks["ap"][0], attacks["poi"][0]
    out["meta"] = {
        "n_users": float(n_users),
        "profile_cells": float(len(ap.index.cells())),
        "profile_pois": float(len(poi.index.lat)),
        "probe_records": float(len(probe)),
    }
    return out


def bench_feature_kernels(seed: int = 7, repeat: int = 5) -> Dict[str, Dict[str, float]]:
    """POI extraction and set-distance timings, fast vs reference.

    Extraction runs on a :func:`synthetic_trace` with no long jump and on
    its Geo-I and TRL outputs, whose jumps the cut pre-pass of
    :func:`extract_pois` skips; any difference from
    :func:`extract_pois_reference` fails the bench."""
    from repro.lppm import GeoInd, Trilateration

    trace = synthetic_trace("kern", seed=seed, n_places=6, visits_per_place=4)
    probes = {
        "extract_pois": trace,
        "extract_pois_geoi": GeoInd(epsilon=0.01).apply(trace, seed),
        "extract_pois_trl": Trilateration(radius_m=1000.0).apply(trace, seed),
    }
    out: Dict[str, Dict[str, float]] = {}
    for name, probe in probes.items():
        if extract_pois(probe) != extract_pois_reference(probe):
            raise AssertionError(f"extract_pois differs from the reference on the {name} probe")
        out[name] = _speedup_entry(
            time_fn(lambda: extract_pois(probe), repeat=repeat),
            time_fn(lambda: extract_pois_reference(probe), repeat=repeat),
        )
    a = PoiAttack()._extract(trace)
    b = PoiAttack()._extract(synthetic_trace("kern2", seed=seed + 1, n_places=6))
    out["poi_set_distance"] = _speedup_entry(
        time_fn(lambda: poi_set_distance(a, b), repeat=repeat, warmup=2),
        time_fn(lambda: poi_set_distance_reference(a, b), repeat=repeat),
    )
    return out


def bench_engine_smoke(
    n_users: int = 8, days: int = 6, seed: int = 123
) -> Dict[str, Any]:
    """End-to-end ``protect_dataset`` users/sec on a tiny real context.

    The same context is then protected again with the exhaustive
    composition search (:func:`best_protecting_reference`): the published
    dataset, every piece's mechanism and distortion must match the
    incumbent-bounded search's, and both attack-suite run counts are
    reported.
    """
    from repro.datasets.io import to_csv_string
    from repro.experiments.harness import prepare_context

    ctx = prepare_context("privamov", seed=seed, n_users=n_users, days=days)
    engine = ctx.engine()
    report = engine.protect_dataset(ctx.test)
    exhaustive = ctx.engine()
    exhaustive._best_protecting = functools.partial(best_protecting_reference, exhaustive)
    reference = exhaustive.protect_dataset(ctx.test)

    def pieces(rep: Any) -> List[Tuple[str, str, float]]:
        return [
            (p.pseudonym, p.mechanism, p.distortion_m)
            for user in sorted(rep.results)
            for p in rep.results[user].pieces
        ]

    if pieces(report) != pieces(reference) or to_csv_string(
        report.published_dataset()
    ) != to_csv_string(reference.published_dataset()):
        raise AssertionError(
            "the bounded composition search published differently from the "
            "exhaustive reference search"
        )
    return {
        "dataset": ctx.name,
        "users": len(report.results),
        "wall_time_s": report.wall_time_s,
        "users_per_second": report.users_per_second,
        "evaluations": report.evaluations,
        "reference_evaluations": reference.evaluations,
        "data_loss": report.data_loss(),
        "feature_cache": engine.feature_cache.stats(),
    }


def fitted_state(engine: Any) -> Dict[str, Any]:
    """The fitted state of *engine*'s attacks and HMC in comparable form:
    every index array and profile (POI places, MMC states and matrices,
    heatmap arrays) as dtype, shape and bytes, keyed by component.  Two
    engines' states are equal exactly when they are bit-identical."""
    state: Dict[str, Any] = {}

    def array(value: Any) -> Tuple[str, Tuple[int, ...], bytes]:
        a = np.asarray(value)
        return (a.dtype.str, a.shape, a.tobytes())

    def places(pois: Sequence[Any]) -> Tuple[Any, ...]:
        return tuple(
            tuple((type(v).__name__, v.hex() if isinstance(v, float) else v) for v in p._asdict().values())
            for p in pois
        )

    for i, component in enumerate(list(engine.attacks) + list(engine.lppms)):
        name = f"{i}:{type(component).__name__}"
        index = getattr(component, "index", None)
        for slot in getattr(type(index), "__slots__", ()):
            state[f"{name}.index.{slot}"] = array(getattr(index, slot))
        for user, profile in getattr(component, "_profiles", {}).items():
            if isinstance(profile, list):  # POI places
                state[f"{name}.{user}"] = places(profile)
            elif hasattr(profile, "transitions"):  # MMC
                state[f"{name}.{user}"] = (
                    places(profile.states),
                    array(profile.transitions),
                    array(profile.stationary),
                )
            else:  # heatmap
                state[f"{name}.{user}"] = tuple(array(a) for a in profile.packed())
    return state


def bench_fit_smoke(n_users: int = 1000, seed: int = 7) -> Dict[str, Any]:
    """Fit the default engine on :func:`synthetic_background` twice: through
    the bulk kernels, and from per-trace features
    (:func:`~repro.attacks.reference.fit_per_trace`).  Any difference in
    the fitted state (:func:`fitted_state`) fails the bench."""
    from repro.attacks.reference import fit_per_trace
    from repro.config import ProtectionConfig
    from repro.core.engine import ProtectionEngine

    background = synthetic_background(n_users, seed=seed)
    bulk = ProtectionEngine.from_config(ProtectionConfig())
    t0 = time.perf_counter()
    bulk.fit(background)
    bulk_s = time.perf_counter() - t0
    per_trace = ProtectionEngine.from_config(ProtectionConfig())
    t0 = time.perf_counter()
    fit_per_trace(per_trace, background)
    per_trace_s = time.perf_counter() - t0
    if per_trace.feature_cache.evictions:
        raise AssertionError("the per-trace fit's features did not fit in its cache")
    if fitted_state(bulk) != fitted_state(per_trace):
        raise AssertionError(
            "the bulk background fit differs from the fit on per-trace features"
        )
    return {"users": n_users, "bulk_fit_s": bulk_s, "per_trace_fit_s": per_trace_s}


def bench_topsoe_smoke(n_users: int = 1000, seed: int = 7, repeat: int = 5) -> Dict[str, Any]:
    """:meth:`TopsoeIndex.divergences` against the dense block kernel it
    replaced (:func:`topsoe_divergences_reference`) on the profiles of
    :func:`synthetic_background`, queried with Geo-I, TRL and HMC
    outputs and with a Geo-I output ~550 km away, outside the cell
    vocabulary.  Any byte difference fails the bench; both kernels are
    timed on every probe."""
    from repro.lppm import GeoInd, HeatmapConfusion, Trilateration
    from repro.poi.heatmap import build_heatmap

    hmc = HeatmapConfusion(cell_size_m=800.0, ref_lat=CITY_LAT)
    hmc.fit(synthetic_background(n_users, seed=seed))
    probe = synthetic_trace("probe", seed=seed - 1)
    far = probe.with_positions(probe.lats + 5.0, probe.lngs)
    probes = {
        "geoi": GeoInd(epsilon=0.01).apply(probe, seed),
        "trl": Trilateration(radius_m=1000.0).apply(probe, seed),
        "hmc": hmc.apply(probe),
        "outside": GeoInd(epsilon=0.01).apply(far, seed),
    }
    index = hmc.index
    out: Dict[str, Any] = {"users": n_users, "cells": len(index.cells())}
    for name, trace in probes.items():
        query = build_heatmap(trace, hmc.grid)
        fast = index.divergences(query)
        if fast.tobytes() != topsoe_divergences_reference(index, query).tobytes():
            raise AssertionError(
                f"TopsoeIndex.divergences differs from the dense block kernel on the {name} probe"
            )
        out[name] = _speedup_entry(
            time_fn(lambda: index.divergences(query), repeat=repeat),
            time_fn(lambda: topsoe_divergences_reference(index, query), repeat=repeat),
        )
    return out


def _snapshot_header() -> Dict[str, Any]:
    return {
        "schema": "mood-bench",
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_smoke(seed: int = 7) -> Dict[str, Any]:
    """Sub-minute bench: 100-user kernels + feature kernels + tiny engine."""
    snapshot = _snapshot_header()
    snapshot["mode"] = "smoke"
    snapshot["rank_at_users"] = {"100": bench_rank_at_scale(100, seed=seed, repeat=2)}
    snapshot["feature_kernels"] = bench_feature_kernels(seed=seed, repeat=3)
    snapshot["engine"] = bench_engine_smoke()
    snapshot["fit"] = bench_fit_smoke()
    snapshot["topsoe"] = bench_topsoe_smoke()
    return snapshot


def run_micro(sizes: Sequence[int] = (100, 1000), seed: int = 7) -> Dict[str, Any]:
    """The full micro suite at the given profiled-user counts."""
    snapshot = _snapshot_header()
    snapshot["mode"] = "micro"
    snapshot["rank_at_users"] = {
        str(n): bench_rank_at_scale(n, seed=seed) for n in sizes
    }
    snapshot["feature_kernels"] = bench_feature_kernels(seed=seed)
    snapshot["engine"] = bench_engine_smoke()
    snapshot["fit"] = bench_fit_smoke()
    snapshot["topsoe"] = bench_topsoe_smoke()
    return snapshot


def run_service(seed: int = 7, smoke: bool = False) -> Dict[str, Any]:
    """Service-path throughput: transports, then executor backends.

    Every number is measured on the spot and every equivalence is
    asserted on the spot: the TCP transport must return byte-identical
    receipts to the loopback one, and every executor backend must
    publish the byte-identical dataset — a failed assertion fails the
    bench (and CI).  An executor entry's ``wall_s`` includes starting
    its worker pool, which on a handful of users outweighs the
    protection itself, so the entries carry no users/s.
    """
    from repro.core.split import split_fixed_time
    from repro.datasets.io import to_csv_string
    from repro.experiments.harness import prepare_context
    from repro.service.api import LoopbackClient, ProtectionService
    from repro.service.rpc import ServiceClient, ServiceServer

    n_users, days = (4, 4) if smoke else (8, 6)
    ctx = prepare_context("privamov", seed=seed, n_users=n_users, days=days)
    chunks = []
    for trace in ctx.test.traces():
        for day, chunk in enumerate(split_fixed_time(trace, 86_400.0)):
            if len(chunk):
                chunks.append((chunk, day))

    def drive(client: Any) -> Tuple[List[Dict[str, Any]], float]:
        """Replay the upload stream plus one query and one stats call."""
        t0 = time.perf_counter()
        receipts = [
            client.upload(chunk, day_index=day).to_body() for chunk, day in chunks
        ]
        receipts.append(client.query_count(CITY_LAT, CITY_LNG))
        stats_body = client.stats().to_body()
        # uptime_s is the one wall-clock field of stats_response (PR 8):
        # presence-checked, excluded from the cross-transport equality.
        if stats_body.pop("uptime_s") < 0.0:
            raise AssertionError("stats reported a negative uptime")
        receipts.append(stats_body)
        return receipts, time.perf_counter() - t0

    n_requests = len(chunks) + 2
    with LoopbackClient(ProtectionService(ctx.engine())) as client:
        loop_receipts, loop_wall = drive(client)
    with ServiceServer(ProtectionService(ctx.engine()), port=0) as server:
        host, port = server.address
        with ServiceClient(host=host, port=port) as client:
            tcp_receipts, tcp_wall = drive(client)
    if loop_receipts != tcp_receipts:
        raise AssertionError("loopback and TCP transports returned different replies")

    def transport_entry(wall: float) -> Dict[str, float]:
        return {
            "requests": float(n_requests),
            "wall_s": wall,
            "requests_per_s": n_requests / wall if wall > 0 else float("inf"),
        }

    executors = {}
    reference_csv: Optional[str] = None
    backends = [
        ("serial", "serial", 1),
        ("process", "process", 2),
    ]
    for label, spec, jobs in backends:
        engine = ctx.engine(executor=spec, jobs=jobs)
        report = engine.protect_dataset(ctx.test, daily=True)
        csv = to_csv_string(report.published_dataset())
        if reference_csv is None:
            reference_csv = csv
        elif csv != reference_csv:
            raise AssertionError(
                f"executor {label!r} published a different dataset than serial"
            )
        executors[label] = {
            "wall_s": report.wall_time_s,
            "evaluations": float(report.evaluations),
        }

    snapshot = _snapshot_header()
    snapshot["mode"] = "service"
    snapshot["corpus"] = {
        "dataset": ctx.name,
        "users": float(len(ctx.test)),
        "upload_chunks": float(len(chunks)),
    }
    snapshot["transports"] = {
        "loopback": transport_entry(loop_wall),
        "tcp": transport_entry(tcp_wall),
    }
    snapshot["transports_identical"] = True
    snapshot["executors"] = executors
    snapshot["executors_identical"] = True
    return snapshot


#: The v2 binary codec must beat the v1 JSON codec by at least this
#: factor on the 10k-record protect batch (encode+decode, same data,
#: same process) — the acceptance floor of the codec PR.
CODEC_SPEEDUP_FLOOR = 3.0


def run_codec(seed: int = 7, smoke: bool = False) -> Dict[str, Any]:
    """Wire-codec throughput and cross-framing byte-identity.

    Three legs, every assertion made on the spot:

    1. **Throughput** — encode+decode a 10k-record-tier batch of
       ``protect_request`` frames through the v1 JSON codec and the v2
       binary codec; the v2 leg must clear :data:`CODEC_SPEEDUP_FLOOR`.
    2. **Loopback identity** — replay the same upload stream through a
       ``LoopbackClient`` pinned to v1 and one pinned to v2; the
       receipt bodies (the published pieces) must compare equal.
    3. **Mixed-version cluster** — a v1-only ``ServiceServer``
       (``wire_versions=(1,)``) and a v2 server behind one ``remote``
       executor driven by a v2-speaking client; the published dataset
       must be byte-identical to the serial backend's.
    """
    from repro.core.split import split_fixed_time
    from repro.datasets.io import to_csv_string
    from repro.experiments.harness import prepare_context
    from repro.service.api import (
        LoopbackClient,
        ProtectRequest,
        ProtectionService,
        decode_frame_v2,
        decode_message,
        encode_message,
        encode_message_v2,
    )
    from repro.service.rpc import ServiceServer

    # -- leg 1: codec throughput on a 10k-record protect batch --------
    # The batch size is NOT shrunk in smoke mode: the floor is the
    # acceptance criterion and the whole leg runs in milliseconds.
    bench_traces: List[Trace] = []
    records = 0
    user = 0
    while records < 10_000:
        trace = synthetic_trace(f"codec-{user}", seed=seed + user)
        bench_traces.append(trace)
        records += len(trace)
        user += 1
    messages = [ProtectRequest(trace=t, daily=False) for t in bench_traces]

    def codec_wall(encode: Any, decode: Any, repeat: int) -> float:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            for message in messages:
                decode(encode(message))
            best = min(best, time.perf_counter() - t0)
        return best

    repeat = 3 if smoke else 7
    wall_v1 = codec_wall(encode_message, decode_message, repeat)
    wall_v2 = codec_wall(
        encode_message_v2, lambda frame: decode_frame_v2(frame)[1], repeat
    )
    speedup = wall_v1 / wall_v2 if wall_v2 > 0 else float("inf")
    if speedup < CODEC_SPEEDUP_FLOOR:
        raise AssertionError(
            f"v2 codec speedup {speedup:.2f}x is below the "
            f"{CODEC_SPEEDUP_FLOOR:.0f}x floor "
            f"(v1 {wall_v1 * 1e3:.2f} ms, v2 {wall_v2 * 1e3:.2f} ms)"
        )

    # -- leg 2: loopback receipts identical across framings -----------
    n_users, days = (4, 4) if smoke else (6, 5)
    ctx = prepare_context("privamov", seed=seed, n_users=n_users, days=days)
    chunks = []
    for trace in ctx.test.traces():
        for day, chunk in enumerate(split_fixed_time(trace, 86_400.0)):
            if len(chunk):
                chunks.append((chunk, day))

    def drive_loopback(wire_version: int) -> List[Dict[str, Any]]:
        with LoopbackClient(
            ProtectionService(ctx.engine()), wire_version=wire_version
        ) as client:
            return [
                client.upload(chunk, day_index=day).to_body()
                for chunk, day in chunks
            ]

    receipts_v1 = drive_loopback(1)
    receipts_v2 = drive_loopback(2)
    if receipts_v1 != receipts_v2:
        raise AssertionError(
            "v1 and v2 loopback clients returned different upload receipts"
        )

    # -- leg 3: mixed-version cluster, bytes identical to serial ------
    serial_report = ctx.engine().protect_dataset(ctx.test, daily=True)
    reference_csv = to_csv_string(serial_report.published_dataset())
    v1_only = ServiceServer(
        ProtectionService(ctx.engine()), port=0, wire_versions=(1,)
    )
    v2_server = ServiceServer(ProtectionService(ctx.engine()), port=0)
    endpoints = []
    try:
        for server in (v1_only, v2_server):
            host, port = server.start_background()
            endpoints.append(f"{host}:{port}")
        engine = ctx.engine(
            executor={"name": "remote", "endpoints": endpoints, "shards": 4},
            jobs=4,
        )
        mixed_report = engine.protect_dataset(ctx.test, daily=True)
    finally:
        v1_only.stop_background()
        v2_server.stop_background()
    mixed_csv = to_csv_string(mixed_report.published_dataset())
    if mixed_csv != reference_csv:
        raise AssertionError(
            "the mixed-version cluster published a different dataset "
            "than serial"
        )

    snapshot = _snapshot_header()
    snapshot["mode"] = "codec"
    snapshot["smoke"] = smoke
    snapshot["codec"] = {
        "records": float(records),
        "messages": float(len(messages)),
        "v1_encode_decode_s": wall_v1,
        "v2_encode_decode_s": wall_v2,
        "v1_records_per_s": records / wall_v1 if wall_v1 > 0 else float("inf"),
        "v2_records_per_s": records / wall_v2 if wall_v2 > 0 else float("inf"),
        "speedup": speedup,
        "floor": CODEC_SPEEDUP_FLOOR,
    }
    snapshot["loopback"] = {
        "upload_chunks": float(len(chunks)),
        "receipts_identical": True,
    }
    snapshot["mixed_cluster"] = {
        "requests": float(len(mixed_report.results)),
        "wall_s": mixed_report.wall_time_s,
        "users_per_s": mixed_report.users_per_second,
        "endpoint_wire_versions": [[1], [1, 2]],
        "byte_identical": True,
    }
    return snapshot


def run_remote(seed: int = 7, smoke: bool = False) -> Dict[str, Any]:
    """Remote-executor throughput over a loopback two-server cluster.

    Byte-identity is asserted on the spot, three times: the remote
    backend (one ``protect_request`` per user over the wire, positional
    merge) must publish the serial bytes with both
    endpoints alive; again with one endpoint killed before dispatch so
    every shard fails over to the survivor; and again on the **chaos
    leg** — a single-endpoint cluster whose endpoint is down when the
    batch starts and comes up mid-batch, so the run only completes if
    endpoint rehabilitation (probation + rejoin, PR 5) works.  Each leg
    spawns **fresh** servers — pseudonym counters are session-scoped,
    which is part of the byte-identity contract (docs/SERVICE.md).
    """
    import threading

    from repro.datasets.io import to_csv_string
    from repro.experiments.harness import prepare_context
    from repro.service.api import ProtectionService
    from repro.service.rpc import ServiceServer

    n_users, days = (4, 4) if smoke else (8, 6)
    ctx = prepare_context("privamov", seed=seed, n_users=n_users, days=days)

    serial_report = ctx.engine().protect_dataset(ctx.test, daily=True)
    reference_csv = to_csv_string(serial_report.published_dataset())

    def spawn_cluster() -> Tuple[List[Any], List[str]]:
        servers = [
            ServiceServer(ProtectionService(ctx.engine()), port=0) for _ in range(2)
        ]
        endpoints = []
        for server in servers:
            host, port = server.start_background()
            endpoints.append(f"{host}:{port}")
        return servers, endpoints

    def drive(kill_first: bool) -> Dict[str, float]:
        servers, endpoints = spawn_cluster()
        try:
            if kill_first:
                servers[0].stop_background()
            engine = ctx.engine(
                executor={"name": "remote", "endpoints": endpoints, "shards": 4},
                jobs=4,
            )
            report = engine.protect_dataset(ctx.test, daily=True)
        finally:
            for server in servers:
                server.stop_background()
        csv = to_csv_string(report.published_dataset())
        if csv != reference_csv:
            label = "failover" if kill_first else "remote"
            raise AssertionError(
                f"the {label} run published a different dataset than serial"
            )
        requests = float(len(report.results))
        return {
            "requests": requests,
            "wall_s": report.wall_time_s,
            "requests_per_s": (
                requests / report.wall_time_s
                if report.wall_time_s > 0
                else float("inf")
            ),
            "users_per_s": report.users_per_second,
        }

    def drive_flap(delay_s: float = 0.4) -> Dict[str, float]:
        """Chaos leg: the only endpoint rejoins *mid-batch*.

        The endpoint's port is reserved, nothing listens on it when
        dispatch starts (every dial refused → probation), and a timer
        brings a fresh server up on the same port ``delay_s`` later.
        Completing at all requires rehabilitation; completing with the
        serial bytes pins byte-identity across the rejoin path.
        """
        import socket as socket_mod

        probe = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
        probe.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        flap_service = ProtectionService(ctx.engine())
        flap_server = ServiceServer(flap_service, host=host, port=port)
        up_at: Dict[str, Any] = {}

        def bring_up() -> None:
            # The freed port could in principle be snatched between the
            # placeholder's release and this rebind (TOCTOU): retry a
            # few times and record any failure LOUDLY — a swallowed bind
            # error would otherwise surface as a baffling
            # "all 1 endpoints failed" from the dispatch side.
            for attempt in range(10):
                try:
                    flap_server.start_background()
                except OSError as exc:
                    up_at["error"] = exc
                    time.sleep(0.1)
                    continue
                up_at.pop("error", None)
                up_at["t"] = time.perf_counter() - t0
                return

        timer = threading.Timer(delay_s, bring_up)
        t0 = time.perf_counter()
        timer.start()
        try:
            engine = ctx.engine(
                executor={
                    "name": "remote",
                    "endpoints": [f"{host}:{port}"],
                    "shards": 4,
                    "retry_budget": 60,
                    "backoff": {"base": 0.1, "factor": 1.5, "max": 0.5},
                },
                jobs=4,
            )
            report = engine.protect_dataset(ctx.test, daily=True)
            chunks_served = flap_service.proxy.stats.chunks_processed
        except BaseException:
            if "error" in up_at:
                raise AssertionError(
                    f"flap leg could not re-bind {host}:{port}: {up_at['error']}"
                ) from up_at["error"]
            raise
        finally:
            timer.cancel()
            flap_server.stop_background()
        csv = to_csv_string(report.published_dataset())
        if csv != reference_csv:
            raise AssertionError(
                "the flap run published a different dataset than serial"
            )
        if chunks_served < len(report.results):
            raise AssertionError(
                "the rejoined endpoint did not serve the batch "
                f"({chunks_served} chunks for {len(report.results)} users)"
            )
        requests = float(len(report.results))
        return {
            "requests": requests,
            "wall_s": report.wall_time_s,
            "requests_per_s": (
                requests / report.wall_time_s
                if report.wall_time_s > 0
                else float("inf")
            ),
            "users_per_s": report.users_per_second,
            "endpoint_up_after_s": up_at.get("t", float("nan")),
            "chunks_served_after_rejoin": float(chunks_served),
        }

    snapshot = _snapshot_header()
    snapshot["mode"] = "remote"
    snapshot["corpus"] = {
        "dataset": ctx.name,
        "users": float(len(ctx.test)),
    }
    snapshot["serial"] = {
        "wall_s": serial_report.wall_time_s,
        "users_per_s": serial_report.users_per_second,
    }
    snapshot["remote"] = drive(kill_first=False)
    snapshot["failover"] = drive(kill_first=True)
    snapshot["flap"] = drive_flap()
    snapshot["byte_identical"] = True
    return snapshot


def run_cluster(seed: int = 7, smoke: bool = False) -> Dict[str, Any]:
    """Elastic-cluster yardstick: byte-identity under membership churn.

    Three legs, each against freshly spawned coordinator + worker
    ``ServiceServer`` instances (fresh sessions — pseudonym counters
    are session-scoped, part of the byte-identity contract):

    * ``static`` — two workers pre-joined in the coordinator's
      registry; dispatch discovers both purely through membership (no
      seed endpoints) and must publish the serial bytes.
    * ``churn`` — worker A alone in the registry; the moment A's proxy
      reports its first protected chunk (the batch is provably
      mid-dispatch), worker B ``cluster_join``s and A
      ``cluster_leave``s — a join AND a leave mid-batch.  The batch
      must finish, the joiner must serve at least one shard (work
      stealing), and the bytes must still match serial.
    * ``metrics`` — the operator surface behind ``repro top``:
      ``metrics_request`` against a worker must report uptime,
      versions, and moving transport counters, and the coordinator's
      registry must reflect the joined member.

    ``smoke=True`` is the <60 s CI variant; the full run emits
    ``BENCH_8.json``.
    """
    import threading

    from repro.datasets.io import to_csv_string
    from repro.experiments.harness import prepare_context
    from repro.service.api import ProtectionService
    from repro.service.rpc import ServiceClient, ServiceServer

    n_users, days = (4, 4) if smoke else (8, 6)
    ctx = prepare_context("privamov", seed=seed, n_users=n_users, days=days)

    serial_report = ctx.engine().protect_dataset(ctx.test, daily=True)
    reference_csv = to_csv_string(serial_report.published_dataset())

    def spawn(n_workers: int):
        """A fresh coordinator plus ``n_workers`` worker services."""
        coordinator = ServiceServer(ProtectionService(ctx.engine()), port=0)
        host, port = coordinator.start_background()
        services = [ProtectionService(ctx.engine()) for _ in range(n_workers)]
        workers = [ServiceServer(service, port=0) for service in services]
        endpoints = []
        for worker in workers:
            whost, wport = worker.start_background()
            endpoints.append(f"{whost}:{wport}")
        return coordinator, f"{host}:{port}", services, workers, endpoints

    def connect(endpoint: str) -> ServiceClient:
        host, _, port = endpoint.rpartition(":")
        return ServiceClient(host=host, port=int(port), timeout=10.0)

    def throughput(report: Any) -> Dict[str, float]:
        requests = float(len(report.results))
        return {
            "requests": requests,
            "wall_s": report.wall_time_s,
            "requests_per_s": (
                requests / report.wall_time_s
                if report.wall_time_s > 0
                else float("inf")
            ),
            "users_per_s": report.users_per_second,
        }

    def drive_static() -> Dict[str, Any]:
        coordinator, coord_ep, services, workers, endpoints = spawn(2)
        try:
            with connect(coord_ep) as client:
                for endpoint in endpoints:
                    client.cluster_join(endpoint)
            engine = ctx.engine(
                executor={
                    "name": "remote",
                    "coordinator": coord_ep,
                    "shards": 4,
                    "poll_s": 0.05,
                },
                jobs=4,
            )
            report = engine.protect_dataset(ctx.test, daily=True)
        finally:
            for server in workers + [coordinator]:
                server.stop_background()
        if to_csv_string(report.published_dataset()) != reference_csv:
            raise AssertionError(
                "the static cluster run published a different dataset than serial"
            )
        entry = throughput(report)
        entry["chunks_per_worker"] = [
            float(service.proxy.stats.chunks_processed) for service in services
        ]
        return entry

    class _GatedService(ProtectionService):
        """Worker A's service: the first protect request parks until
        released, pinning the batch provably mid-dispatch while the
        churn (B joins, A leaves) happens around it — no timing race,
        CI-deterministic."""

        def __init__(self, engine: Any) -> None:
            super().__init__(engine)
            self.entered = threading.Event()
            self.release = threading.Event()

        def _protect_sync(self, request: Any) -> Any:
            self.entered.set()
            self.release.wait(60.0)
            return super()._protect_sync(request)

    def drive_churn() -> Dict[str, Any]:
        coordinator = ServiceServer(ProtectionService(ctx.engine()), port=0)
        chost, cport = coordinator.start_background()
        coord_ep = f"{chost}:{cport}"
        service_a = _GatedService(ctx.engine())
        service_b = ProtectionService(ctx.engine())
        server_a = ServiceServer(service_a, port=0)
        server_b = ServiceServer(service_b, port=0)
        ahost, aport = server_a.start_background()
        bhost, bport = server_b.start_background()
        endpoint_a, endpoint_b = f"{ahost}:{aport}", f"{bhost}:{bport}"
        churned: Dict[str, float] = {}

        def churn() -> None:
            # A is parked on its first request (jobs=1: its only
            # in-flight slot), so everything else is still queued when
            # B joins and A leaves.  A is released only after B has
            # demonstrably served a chunk — the joiner taking work is
            # guaranteed, not raced.
            if not service_a.entered.wait(60.0):
                service_a.release.set()
                return
            with connect(coord_ep) as client:
                client.cluster_join(endpoint_b)
                client.cluster_leave(endpoint_a)
            churned["at_s"] = time.perf_counter() - t0
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                if service_b.proxy.stats.chunks_processed >= 1:
                    break
                time.sleep(0.005)
            service_a.release.set()

        with connect(coord_ep) as client:
            client.cluster_join(endpoint_a)
        watcher = threading.Thread(target=churn, daemon=True)
        t0 = time.perf_counter()
        watcher.start()
        try:
            engine = ctx.engine(
                executor={
                    "name": "remote",
                    "coordinator": coord_ep,
                    "shards": 4,
                    "poll_s": 0.05,
                },
                # One request in flight per worker: A's parked request
                # occupies its only slot, so the leave lands while the
                # rest of the batch is still queued.
                jobs=1,
            )
            report = engine.protect_dataset(ctx.test, daily=True)
        finally:
            service_a.release.set()
            watcher.join(5.0)
            for server in (server_a, server_b, coordinator):
                server.stop_background()
        if to_csv_string(report.published_dataset()) != reference_csv:
            raise AssertionError(
                "the churn run published a different dataset than serial"
            )
        if "at_s" not in churned:
            raise AssertionError(
                "the churn trigger never fired (the pre-joined worker "
                "served nothing?)"
            )
        leaver = service_a.proxy.stats.chunks_processed
        joiner = service_b.proxy.stats.chunks_processed
        if joiner < 1:
            raise AssertionError(
                "the mid-batch joiner served no shards "
                f"(leaver {leaver} chunks, joiner {joiner})"
            )
        entry = throughput(report)
        entry["churn_at_s"] = churned["at_s"]
        entry["leaver_chunks"] = float(leaver)
        entry["joiner_chunks"] = float(joiner)
        return entry

    def drive_metrics() -> Dict[str, Any]:
        coordinator, coord_ep, services, workers, endpoints = spawn(1)
        try:
            with connect(coord_ep) as client:
                client.cluster_join(endpoints[0], worker_id="bench-w0")
                membership = client.cluster_membership()
            with connect(endpoints[0]) as worker:
                worker.stats()
                metrics = worker.metrics()
        finally:
            for server in workers + [coordinator]:
                server.stop_background()
        if metrics.uptime_s is None or metrics.uptime_s <= 0:
            raise AssertionError("metrics reported a non-positive uptime")
        if metrics.versions.get("protocol") != 1:
            raise AssertionError(
                f"unexpected protocol version in metrics: {metrics.versions}"
            )
        if metrics.transport.get("requests_served", 0) < 1:
            raise AssertionError("metrics transport counters did not move")
        members = [m["endpoint"] for m in membership.members]
        if members != [endpoints[0]]:
            raise AssertionError(
                f"registry does not reflect the joined worker: {members}"
            )
        return {
            "uptime_s": metrics.uptime_s,
            "protocol": float(metrics.versions.get("protocol", -1)),
            "requests_served": float(metrics.transport.get("requests_served", 0)),
            "registry_epoch": float(membership.epoch),
            "registry_members": float(len(membership.members)),
        }

    snapshot = _snapshot_header()
    snapshot["mode"] = "cluster"
    snapshot["corpus"] = {
        "dataset": ctx.name,
        "users": float(len(ctx.test)),
    }
    snapshot["serial"] = {
        "wall_s": serial_report.wall_time_s,
        "users_per_s": serial_report.users_per_second,
    }
    snapshot["static"] = drive_static()
    snapshot["churn"] = drive_churn()
    snapshot["metrics"] = drive_metrics()
    snapshot["byte_identical"] = True
    return snapshot


#: Generation-throughput floor asserted by ``bench scale`` (users/s).
#: Local runs stream ~1000 users/s; the floor only catches order-of-
#: magnitude regressions (an accidental O(n²) or per-user re-build of
#: the zone graph), not machine-speed wobble.
SCALE_USERS_PER_S_FLOOR = 200.0


def run_scale(
    tier: str = "10k",
    city: str = "lyon",
    seed: int = 7,
    protect_users: int = 8,
) -> Dict[str, Any]:
    """The tiered corpus load yardstick (``BENCH_6.json``).

    Three legs, every guarantee asserted on the spot:

    1. **Generation** — stream the full tier through
       :meth:`~repro.synth.SynthCorpus.trace` one user at a time,
       folding each trace's array fingerprint into one corpus digest;
       records users/s (with a floor assertion) and the process peak RSS
       (``resource.getrusage``) before and after, which is how the
       constant-memory claim is checked at 10k/100k/1M.
    2. **Determinism** — regenerate the tier from a fresh corpus object
       (same digest required) and regenerate it again as the head of the
       10×-larger population (prefix-stability: tier size must not leak
       into any random stream).
    3. **Protection** — feed the first *protect_users* users through
       ``ProtectionEngine.protect_dataset`` on the serial and process
       executors with a fresh :class:`FeatureCache` per leg, recording
       wall time, attack-suite runs and the cache hit rate;
       published datasets are asserted byte-identical across executors.
       A few users take less time than a process pool takes to start,
       so ``wall_s`` (which includes that start-up) does not rank the
       backends and no users/s is reported.
    """
    import hashlib
    import resource

    from repro.attacks import default_attack_suite
    from repro.core.engine import ProtectionEngine
    from repro.core.featurecache import FeatureCache
    from repro.core.split import train_test_split
    from repro.datasets.cities import CITIES
    from repro.datasets.io import to_csv_string
    from repro.lppm import default_lppm_suite
    from repro.synth import CorpusSpec, SynthCorpus

    spec = CorpusSpec.for_tier(city, tier, seed=seed)
    corpus = SynthCorpus.from_spec(spec)

    def peak_rss_mib() -> float:
        # Linux ru_maxrss is KiB; this is a monotone high-water mark.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stream_pass(c: "SynthCorpus") -> Tuple[str, int, float]:
        """Stream every user once; return (digest, records, wall_s)."""
        digest = hashlib.blake2b(digest_size=16)
        records = 0
        t0 = time.perf_counter()
        for i in range(spec.n_users):
            trace = c.trace(i)
            digest.update(trace.fingerprint)
            records += len(trace)
        return digest.hexdigest(), records, time.perf_counter() - t0

    rss_before = peak_rss_mib()
    fingerprint, records, gen_wall = stream_pass(corpus)
    rss_after = peak_rss_mib()
    users_per_s = spec.n_users / gen_wall if gen_wall > 0 else float("inf")
    if users_per_s < SCALE_USERS_PER_S_FLOOR:
        raise AssertionError(
            f"generation throughput {users_per_s:.0f} users/s is below the "
            f"{SCALE_USERS_PER_S_FLOOR:.0f} users/s floor"
        )

    regen_fp, _, regen_wall = stream_pass(SynthCorpus.from_spec(spec))
    if regen_fp != fingerprint:
        raise AssertionError("regenerating the corpus changed its fingerprint")
    prefix_of = spec.n_users * 10
    prefix_fp, _, prefix_wall = stream_pass(
        SynthCorpus.from_spec(spec.with_users(prefix_of))
    )
    if prefix_fp != fingerprint:
        raise AssertionError(
            f"the first {spec.n_users} users of the {prefix_of}-user corpus "
            "differ from the standalone tier — tier size leaked into a stream"
        )

    head = MobilityDataset(f"{spec.name}-head")
    for i in range(min(protect_users, spec.n_users)):
        head.add(corpus.trace(i))
    train_days = max(1, spec.days // 2)
    train, test = train_test_split(
        head, train_days=train_days, test_days=spec.days - train_days
    )
    ref_lat = CITIES[city].center_lat
    attacks = default_attack_suite(ref_lat)
    for attack in attacks:
        attack.fit(train)
    lppms = default_lppm_suite(train, ref_lat)

    executors: Dict[str, Dict[str, Any]] = {}
    reference_csv: Optional[str] = None
    backends = [
        ("serial", "serial", 1),
        ("process", "process", 2),
    ]
    for label, exec_spec, jobs in backends:
        # A fresh cache per leg isolates this executor's hit rate; the
        # engine adopts the first cache already attached to an attack.
        cache = FeatureCache()
        for attack in attacks:
            attack.use_feature_cache(cache)
        engine = ProtectionEngine(
            lppms, attacks, seed=seed, executor=exec_spec, jobs=jobs
        )
        report = engine.protect_dataset(test, daily=True)
        csv = to_csv_string(report.published_dataset())
        if reference_csv is None:
            reference_csv = csv
        elif csv != reference_csv:
            raise AssertionError(
                f"executor {label!r} published a different dataset than serial"
            )
        stats = cache.stats()
        if exec_spec == "process":
            # The pool's workers held this leg's entries, and they died
            # with the pool; only the counters came back.
            del stats["entries"]
        lookups = stats["hits"] + stats["misses"]
        executors[label] = {
            "wall_s": report.wall_time_s,
            "evaluations": float(report.evaluations),
            "feature_cache": stats,
            "cache_hit_rate": stats["hits"] / lookups if lookups else 0.0,
        }

    snapshot = _snapshot_header()
    snapshot["mode"] = "scale"
    snapshot["corpus"] = {
        "provider": "synth",
        "city": city,
        "tier": tier,
        "users": float(spec.n_users),
        "records": float(records),
        "days": float(spec.days),
        "sample_period_s": spec.sample_period_s,
        "fingerprint": fingerprint,
    }
    snapshot["generation"] = {
        "wall_s": gen_wall,
        "users_per_s": users_per_s,
        "records_per_s": records / gen_wall if gen_wall > 0 else float("inf"),
        "peak_rss_mib_before": rss_before,
        "peak_rss_mib_after": rss_after,
    }
    snapshot["determinism"] = {
        "regenerate_identical": True,
        "regenerate_wall_s": regen_wall,
        "prefix_identical": True,
        "prefix_of_users": float(prefix_of),
        "prefix_wall_s": prefix_wall,
    }
    snapshot["protection"] = {
        "users": float(len(test)),
        "train_days": float(train_days),
        "executors": executors,
    }
    snapshot["executors_identical"] = True
    snapshot["peak_rss_mib"] = peak_rss_mib()
    return snapshot


#: Floor for streaming-replay throughput (records ingested, windowed,
#: protected and published per second) on the full MooD cascade.  The
#: dev box does ~3k records/s; the floor leaves ~10x headroom for slow
#: CI runners.
STREAM_RECORDS_PER_S_FLOOR = 250.0

#: Peak-RSS growth allowed across the 2x overload burst.  The buffer it
#: hammers holds a few thousand records (~100 KiB), so anything near
#: this bound means records are accumulating somewhere unbounded.
STREAM_OVERLOAD_RSS_GROWTH_MIB = 256.0


def run_stream(
    seed: int = 7,
    smoke: bool = False,
    city: str = "saigon",
    tier: str = "10k",
) -> Dict[str, Any]:
    """The streaming-ingestion yardstick (``BENCH_7.json``).

    Three legs, every guarantee asserted on the spot:

    1. **Replay** — stream the first users of the synth corpus through
       the ``stream_*`` verbs of a loopback service (open → batched
       records → flush/close), recording end-to-end records/s with a
       floor assertion.
    2. **Byte-identity** — the flushed pieces of every replayed user
       are digest-compared against a fresh batch ``protect(daily=True)``
       on an identically-built service: the streaming path must publish
       the same bytes as the batch path.
    3. **Overload** — a sustained 2x producer burst against a small
       bounded buffer under the ``shed`` policy: the open-window buffer
       must never exceed its declared bound, shedding must engage with
       a visible reason code, peak RSS growth must stay bounded, and
       after the burst the stream must ack ``ok`` again (recovery).
    """
    import hashlib
    import resource

    from repro.config import ProtectionConfig
    from repro.core.engine import ProtectionEngine
    from repro.service.api import LoopbackClient, ProtectionService
    from repro.stream import REASON_SHED, StreamConfig
    from repro.synth import CorpusSpec, SynthCorpus

    def peak_rss_mib() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def pieces_digest(pieces: Sequence[Any]) -> str:
        digest = hashlib.blake2b(digest_size=16)
        for piece in pieces:
            digest.update(piece.pseudonym.encode("utf-8"))
            digest.update(piece.mechanism.encode("utf-8"))
            digest.update(piece.trace.fingerprint)
        return digest.hexdigest()

    spec = CorpusSpec.for_tier(city, tier, seed=seed)
    corpus = SynthCorpus.from_spec(spec)
    n_users = 4 if smoke else 8
    traces = [corpus.trace(i) for i in range(n_users)]
    background = MobilityDataset(f"{spec.name}-bench")
    for trace in traces:
        background.add(trace)
    engine = ProtectionEngine.from_config(ProtectionConfig()).fit(background)

    # Leg 1 + 2: replay each user through the stream path, then check
    # byte-identity against a batch service built on the same engine
    # (separate services: each owns fresh per-user pseudonym counters).
    stream_client = LoopbackClient(ProtectionService(engine))
    batch_client = LoopbackClient(ProtectionService(engine))
    records_total = 0
    windows = 0
    stream_digests: List[str] = []
    batch_digests: List[str] = []
    t0 = time.perf_counter()
    for trace in traces:
        user = trace.user_id
        stream_client.stream_open(user)
        n = len(trace)
        ordinal = 0
        while ordinal < n:
            stop = min(ordinal + 256, n)
            batch = [
                (
                    i,
                    float(trace.timestamps[i]),
                    float(trace.lats[i]),
                    float(trace.lngs[i]),
                )
                for i in range(ordinal, stop)
            ]
            ack = stream_client.stream_record(user, batch)
            ordinal = ack.next_ordinal
        flushed = stream_client.stream_flush(user, close_window=True)
        closed = stream_client.stream_close(user)
        records_total += closed.records_in
        windows += closed.windows_closed
        stream_digests.append(pieces_digest(flushed.pieces))
    replay_wall = time.perf_counter() - t0
    records_per_s = (
        records_total / replay_wall if replay_wall > 0 else float("inf")
    )
    if records_per_s < STREAM_RECORDS_PER_S_FLOOR:
        raise AssertionError(
            f"stream replay throughput {records_per_s:.0f} records/s is "
            f"below the {STREAM_RECORDS_PER_S_FLOOR:.0f} records/s floor"
        )
    for trace in traces:
        batch_digests.append(
            pieces_digest(batch_client.protect(trace, daily=True).pieces)
        )
    if stream_digests != batch_digests:
        diverged = [
            traces[i].user_id
            for i in range(n_users)
            if stream_digests[i] != batch_digests[i]
        ]
        raise AssertionError(
            f"stream output diverged from the batch path for {diverged}"
        )

    # Leg 3: sustained 2x overload against a small bounded buffer.
    max_pending = 4096
    overload_client = LoopbackClient(
        ProtectionService(
            engine,
            stream=StreamConfig(
                overflow="shed", max_pending_records=max_pending, window_s=1e9
            ),
        )
    )
    overload_client.stream_open("overload")
    rss_before = peak_rss_mib()
    bursts = 10 if smoke else 40
    sent = 0
    shed_acks = 0
    max_pending_seen = 0
    offered = 0
    for _ in range(bursts):
        burst = [
            (sent + i, (sent + i) * 30.0, 10.7769, 106.7009)
            for i in range(2 * max_pending)
        ]
        offered += len(burst)
        ack = overload_client.stream_record("overload", burst)
        sent = ack.next_ordinal
        if ack.status == "shed":
            shed_acks += 1
        pending = overload_client.stats().stream["records_pending"]
        max_pending_seen = max(max_pending_seen, pending)
        if pending > max_pending:
            raise AssertionError(
                f"open-window buffer grew to {pending} records "
                f"(declared bound {max_pending})"
            )
    rss_growth = peak_rss_mib() - rss_before
    if shed_acks < 1:
        raise AssertionError("2x overload never engaged the shed policy")
    if rss_growth > STREAM_OVERLOAD_RSS_GROWTH_MIB:
        raise AssertionError(
            f"peak RSS grew {rss_growth:.1f} MiB across the overload burst "
            f"(bound {STREAM_OVERLOAD_RSS_GROWTH_MIB:.0f} MiB)"
        )
    overload_stats = overload_client.stats().stream
    overload_client.stream_flush("overload", close_window=True)
    recovery_ack = overload_client.stream_record(
        "overload", [(sent, sent * 30.0, 10.7769, 106.7009)]
    )
    if recovery_ack.status != "ok":
        raise AssertionError(
            f"stream did not recover after the burst: {recovery_ack.status}"
        )

    snapshot = _snapshot_header()
    snapshot["mode"] = "stream"
    snapshot["smoke"] = smoke
    snapshot["corpus"] = {
        "provider": "synth",
        "city": city,
        "tier": tier,
        "users_replayed": float(n_users),
        "records": float(records_total),
        "days": float(spec.days),
    }
    snapshot["replay"] = {
        "wall_s": replay_wall,
        "records_per_s": records_per_s,
        "floor_records_per_s": STREAM_RECORDS_PER_S_FLOOR,
        "windows_closed": float(windows),
    }
    snapshot["byte_identity"] = {
        "users": float(n_users),
        "identical": True,
        "digest": hashlib.blake2b(
            "".join(stream_digests).encode("ascii"), digest_size=16
        ).hexdigest(),
    }
    snapshot["overload"] = {
        "policy": "shed",
        "max_pending_records": float(max_pending),
        "bursts": float(bursts),
        "records_offered": float(offered),
        "shed_acks": float(shed_acks),
        "shed_events": float(
            overload_stats["overflow_events"].get(REASON_SHED, 0)
        ),
        "max_pending_seen": float(max_pending_seen),
        "peak_rss_growth_mib": rss_growth,
        "recovered_ok": True,
    }
    snapshot["peak_rss_mib"] = peak_rss_mib()
    return snapshot


#: The executor legs of ``bench service`` and ``bench scale`` protect a
#: handful of users, so their wall times are mostly pool start-up and
#: cannot rank the backends.
EXECUTOR_WALL_NOTE = "executor wall times include pool start-up; they do not rank backends"


def format_snapshot(snapshot: Dict[str, Any], prefix: str = "") -> str:
    """Human-readable digest of any bench snapshot: one ``path: value``
    line per leaf, under its dotted key path, in the snapshot's order."""
    lines = []
    for key, value in snapshot.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(format_snapshot(value, f"{path}."))
        elif isinstance(value, float):
            lines.append(f"{path}: {value:.6g}")
        else:
            lines.append(f"{path}: {value}")
    return "\n".join(lines)
