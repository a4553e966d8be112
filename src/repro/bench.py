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
  the per-trace kernels, fitted states asserted bit-identical, the
  1000-profile Topsoe kernel asserted byte-identical to the dense block
  kernel it replaced, the v2 codec's speedup floor over v1, and the
  streaming replay floor and overload memory bound), wired into
  ``python -m repro bench smoke`` together with the tier-1 test suite;
  this is the CI job.
* :func:`run_micro` — the full micro suite at N ∈ {100, 1000} users,
  emitting the committed ``BENCH_<k>.json`` trajectory snapshots.
* :func:`run_scale` — the tiered load yardstick over the synthetic
  corpus engine (:mod:`repro.synth`): stream a full tier (10k/100k/1M
  users) one trace at a time recording users/s and peak RSS, assert the
  corpus digest is reproducible (full regeneration **and** as the head
  of the 10×-larger population — tier prefix-stability), then push a
  CI-capped head of the corpus through ``protect_dataset`` per executor
  with a fresh FeatureCache each (byte-identity asserted).  The 10k
  tier is the <60 s CI job; snapshots are committed as ``BENCH_6.json``.

Every ``run_*`` returns a JSON-serialisable snapshot dict;
``repro bench <mode> --out FILE`` writes it (the committed
``BENCH_<k>.json`` files), and :func:`format_snapshot` renders any of
them as one line per leaf.  ``BENCH_3``, ``BENCH_5``, ``BENCH_7``,
``BENCH_8`` and ``BENCH_9.json`` are history: the ``service``,
``remote``, ``stream``, ``cluster`` and ``codec`` modes that wrote them
are gone.  Tier-1 tests make their equivalence assertions, and the
smoke pass keeps their floors and bounds.

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


#: The v2 binary codec must beat the v1 JSON codec by at least this
#: factor on a 10,000-record protect batch (encode+decode, same data,
#: same process): the acceptance floor of the v2 codec.
CODEC_SPEEDUP_FLOOR = 3.0


def bench_codec_smoke(seed: int = 7, repeat: int = 3) -> Dict[str, float]:
    """Encode and decode a batch of at least 10,000 records of
    ``protect_request`` messages through the v1 JSON codec and the v2
    binary codec, best of *repeat*.  A v2 speedup under
    :data:`CODEC_SPEEDUP_FLOOR` fails the bench."""
    from repro.service.api import (
        ProtectRequest,
        decode_frame_v2,
        decode_message,
        encode_message,
        encode_message_v2,
    )

    messages: List[Any] = []
    records = 0
    while records < 10_000:
        trace = synthetic_trace(f"codec-{len(messages)}", seed=seed + len(messages))
        messages.append(ProtectRequest(trace=trace, daily=False))
        records += len(trace)

    def round_trip(encode: Callable[[Any], bytes], decode: Callable[[bytes], Any]) -> None:
        for message in messages:
            decode(encode(message))

    v1_s = time_fn(lambda: round_trip(encode_message, decode_message), repeat, warmup=0)
    v2_s = time_fn(
        lambda: round_trip(encode_message_v2, lambda frame: decode_frame_v2(frame)[1]),
        repeat,
        warmup=0,
    )
    speedup = v1_s / v2_s if v2_s > 0 else float("inf")
    if speedup < CODEC_SPEEDUP_FLOOR:
        raise AssertionError(
            f"v2 codec speedup {speedup:.2f}x is below the {CODEC_SPEEDUP_FLOOR:.0f}x "
            f"floor (v1 {v1_s * 1e3:.2f} ms, v2 {v2_s * 1e3:.2f} ms)"
        )
    return {"records": float(records), "v1_s": v1_s, "v2_s": v2_s, "speedup": speedup}


def peak_rss_mib() -> float:
    """This process's peak RSS in MiB: a monotone high-water mark
    (Linux reports ``ru_maxrss`` in KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Floor for streaming-replay throughput (records ingested, windowed,
#: protected and published per second) on the full MooD cascade.  A
#: 2-vCPU host does ~15k records/s; the floor catches order-of-magnitude
#: regressions, not machine-speed wobble.
STREAM_RECORDS_PER_S_FLOOR = 250.0

#: Peak-RSS growth allowed across the overload bursts.  The buffer they
#: hit holds 4,096 records (~100 KiB), so anything near this bound means
#: records are accumulating somewhere unbounded.
STREAM_OVERLOAD_RSS_GROWTH_MIB = 256.0


def bench_stream_smoke(seed: int = 7, n_users: int = 4) -> Dict[str, float]:
    """Replay the first *n_users* users of the synthetic Saigon 10k corpus
    through the ``stream_*`` verbs of a loopback service, then send 10
    bursts of 2 x 4,096 records into a 4,096-record ``shed`` buffer.

    Fails under :data:`STREAM_RECORDS_PER_S_FLOOR` replayed records/s,
    when no burst was shed, or when peak RSS grew more than
    :data:`STREAM_OVERLOAD_RSS_GROWTH_MIB` across the bursts.
    """
    from repro.config import ProtectionConfig
    from repro.core.engine import ProtectionEngine
    from repro.service.api import LoopbackClient, ProtectionService
    from repro.stream import StreamConfig
    from repro.synth import CorpusSpec, SynthCorpus

    spec = CorpusSpec.for_tier("saigon", "10k", seed=seed)
    corpus = SynthCorpus.from_spec(spec)
    background = MobilityDataset(f"{spec.name}-bench")
    for i in range(n_users):
        background.add(corpus.trace(i))
    engine = ProtectionEngine.from_config(ProtectionConfig()).fit(background)

    records = 0
    t0 = time.perf_counter()
    with LoopbackClient(ProtectionService(engine)) as client:
        for trace in background.traces():
            user = trace.user_id
            client.stream_open(user)
            ordinal = 0
            while ordinal < len(trace):
                stop = min(ordinal + 256, len(trace))
                rows = [
                    (i, float(trace.timestamps[i]), float(trace.lats[i]), float(trace.lngs[i]))
                    for i in range(ordinal, stop)
                ]
                ordinal = client.stream_record(user, rows).next_ordinal
            client.stream_flush(user, close_window=True)
            records += client.stream_close(user).records_in
    replay_s = time.perf_counter() - t0
    records_per_s = records / replay_s if replay_s > 0 else float("inf")
    if records_per_s < STREAM_RECORDS_PER_S_FLOOR:
        raise AssertionError(
            f"stream replay throughput {records_per_s:.0f} records/s is below "
            f"the {STREAM_RECORDS_PER_S_FLOOR:.0f} records/s floor"
        )

    max_pending = 4096
    overload = StreamConfig(overflow="shed", max_pending_records=max_pending, window_s=1e9)
    shed_acks = 0
    with LoopbackClient(ProtectionService(engine, stream=overload)) as client:
        client.stream_open("overload")
        rss_before = peak_rss_mib()
        sent = 0
        for _ in range(10):
            burst = [
                (sent + i, (sent + i) * 30.0, 10.7769, 106.7009)
                for i in range(2 * max_pending)
            ]
            ack = client.stream_record("overload", burst)
            sent = ack.next_ordinal
            shed_acks += ack.status == "shed"
        rss_growth = peak_rss_mib() - rss_before
    if shed_acks < 1:
        raise AssertionError("the overload bursts never engaged the shed policy")
    if rss_growth > STREAM_OVERLOAD_RSS_GROWTH_MIB:
        raise AssertionError(
            f"peak RSS grew {rss_growth:.1f} MiB across the overload bursts "
            f"(bound {STREAM_OVERLOAD_RSS_GROWTH_MIB:.0f} MiB)"
        )
    return {
        "users": float(n_users),
        "records": float(records),
        "records_per_s": records_per_s,
        "overload_shed_acks": float(shed_acks),
        "overload_rss_growth_mib": rss_growth,
    }


def _snapshot_header() -> Dict[str, Any]:
    return {
        "schema": "mood-bench",
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_smoke(seed: int = 7) -> Dict[str, Any]:
    """Sub-minute bench: stream floor and bound, codec floor, 100-user
    kernels, feature kernels, tiny engine, background fit, Topsoe kernel.

    The stream leg runs first: peak RSS is a high-water mark, so after
    the 1000-user fits its overload bursts would be measured against the
    fits' peak and could grow unseen below it.
    """
    snapshot = _snapshot_header()
    snapshot["mode"] = "smoke"
    snapshot["stream"] = bench_stream_smoke(seed=seed)
    snapshot["codec"] = bench_codec_smoke(seed=seed)
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


#: The executor legs of ``bench scale`` protect a handful of users, so
#: their wall times are mostly pool start-up and cannot rank the
#: backends.
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
