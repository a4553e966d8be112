"""The two workloads: launch endpoints, drive traffic, check outputs.

A run is a few passes over the same fixed work, each on freshly built
and fitted engines (and fresh service sessions).  The first pass of
every run is a warm-up whose output is checked but not timed.
End-to-end metrics come from the untraced passes after it: throughput
is the users of every timed pass over the passes' summed wall time,
latency percentiles pool every timed pass's samples, ``setup_s`` is the
median build + fit.  With tracing on, the warm-up is followed by one
untraced pass and one traced pass, which gives the per-layer metrics
and the accounting of its wall time.  Every pass's output is checked.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from perfbench import checks
from perfbench.inputs import TOP_CELLS_K, Inputs
from perfbench.layers import instrument_client
from perfbench.tracer import END, NAME, REQUEST, START, Tracer, exclusive_times, self_times, union_length

ROOT = Path(__file__).resolve().parents[1]
#: Untraced passes before the timed ones.  The first pass in fresh
#: processes ran up to 20% slower than the rest (first touch of the
#: engine's memory, lazy imports), and by a different margin each run.
#: serve-upload-query's warm-up sends only the first day's uploads.
WARMUP = 1
#: Timed passes per run, and the tail percentile of the pooled
#: latencies (at least 10 samples beyond it).  The CPU speed of the
#: shared VM this was tuned on swings by a third within seconds, so a
#: run times about 30 s of work; the counts keep a full set of 48 runs
#: under an hour even while that VM runs slow.  4 of remote-bg1000's
#: 32 users need the 12-chain composition search and take ~10x longer
#: than the rest, so its tail sits well inside that group (p87.5 is the
#: boundary, where the percentile would flip between groups).
PASSES = {"serve-upload-query": 2, "remote-bg1000": 5}
TAIL_Q = {"serve-upload-query": 95.0, "remote-bg1000": 93.0}
#: ``setup_s`` is the median of at least this many builds + fits; the
#: 100-profile fit takes ~0.05 s, so the serve workload takes more.
SETUP_SAMPLES = {"serve-upload-query": 15, "remote-bg1000": 6}
#: Client-side timeout of one request; a timeout counts as a failure.
REQUEST_TIMEOUT_S = 60.0
#: Longest an endpoint may take to finish once told to.
ENDPOINT_TIMEOUT_S = 60.0
#: remote-bg1000's fixed shard count over its two endpoints.
REMOTE_SHARDS = 4

ENGINE_LAYERS = (
    "core.search", "lppm.geoi", "lppm.trl", "lppm.hmc", "lppm.hmc.select_target",
    "attack.poi", "attack.pit", "attack.ap", "features", "distortion",
)


@dataclass
class Outcome:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    accounting: Dict[str, Any] = field(default_factory=dict)
    #: What the end-to-end medians and percentiles were taken over.
    samples: Dict[str, Any] = field(default_factory=dict)
    spans: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""


def pass_plan(workload: str, trace: bool) -> List[bool]:
    """Trace flag of each pass; the first ``WARMUP`` are not timed."""
    return [False] * WARMUP + ([False, True] if trace else [False] * PASSES[workload])


# ---------------------------------------------------------------------------
# Endpoint processes
# ---------------------------------------------------------------------------


class Endpoint:
    """One ``perfbench/endpoint.py`` process."""

    def __init__(self, workdir: Path, name: str, inputs_path: Path, passes: List[bool], setups: int) -> None:
        self.out = workdir / f"{name}.out"
        job = workdir / f"{name}.json"
        job.write_text(json.dumps({
            "inputs": str(inputs_path), "passes": passes,
            "extra_setups": max(0, setups - len(passes)), "out": str(self.out),
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "endpoint.py"), str(job)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), env=env,
        )

    def address(self) -> str:
        """The next pass's service address."""
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"endpoint exited with {self.proc.wait()} before serving")
        addr = json.loads(line)
        return f"{addr['host']}:{addr['port']}"

    def end_pass(self) -> None:
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()

    def result(self) -> Dict[str, Any]:
        self.proc.stdin.close()
        code = self.proc.wait(timeout=ENDPOINT_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"endpoint exited with {code}")
        with open(self.out, "rb") as f:
            return pickle.load(f)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


class Endpoints:
    """Starts endpoints and makes sure every one has ended on exit."""

    def __init__(self, workdir: Path, inputs: Inputs, setups: int) -> None:
        self.workdir = workdir
        self.setups = setups
        self.inputs_path = workdir / "inputs.pkl"
        with open(self.inputs_path, "wb") as f:
            pickle.dump(inputs, f, protocol=pickle.HIGHEST_PROTOCOL)
        self.started: List[Endpoint] = []

    def start(self, name: str, passes: List[bool]) -> Endpoint:
        endpoint = Endpoint(self.workdir, name, self.inputs_path, passes, self.setups)
        self.started.append(endpoint)
        return endpoint

    def __enter__(self) -> "Endpoints":
        return self

    def __exit__(self, *exc: Any) -> None:
        for endpoint in self.started:
            endpoint.kill()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def latency_metrics(latencies_s: Sequence[float], tail: float) -> Dict[str, float]:
    return {
        "latency_p50_ms": 1e3 * percentile(latencies_s, 50.0),
        "latency_tail_ms": 1e3 * percentile(latencies_s, tail),
    }


def account(wall: float, components: Dict[str, float]) -> Dict[str, Any]:
    """Wall time split into named layers plus what no layer covers."""
    return {
        "wall_s": wall,
        "components_s": dict(sorted(components.items())),
        "unattributed_s": wall - sum(components.values()),
    }


def sample_counts(walls: Sequence[float], setups: Sequence[float], latencies: Sequence[float],
                  tail: float) -> Dict[str, Any]:
    """What one run's end-to-end medians and percentiles were taken over."""
    return {
        "pass_wall_s": list(walls),
        "setup_s": list(setups),
        "latencies": len(latencies),
        "tail_percentile": tail,
        "beyond_tail": sum(1 for x in latencies if x > percentile(latencies, tail)) if latencies else 0,
    }


def trace_metrics(accounting: Dict[str, Any], untraced_wall: float) -> Dict[str, float]:
    wall = accounting["wall_s"]
    return {
        "unattributed_s": accounting["unattributed_s"],
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / untraced_wall - 1.0,
    }


def engine_layer_metrics(spans: Sequence[List[Any]], counters: Dict[str, float],
                         evaluations: int, cache: Dict[str, int], roots: int) -> Dict[str, float]:
    """Per-layer engine metrics from one process's (or merged) spans."""
    selfs = self_times(spans)
    names = [s[NAME] for s in spans]
    out: Dict[str, float] = {}
    for lppm in ("geoi", "trl", "hmc"):
        out[f"lppm.{lppm}.calls"] = names.count(f"lppm.{lppm}")
        out[f"lppm.{lppm}.self_s"] = selfs.get(f"lppm.{lppm}", 0.0)
    out["lppm.hmc.select_target_s"] = selfs.get("lppm.hmc.select_target", 0.0)
    for attack in ("poi", "pit", "ap"):
        calls = names.count(f"attack.{attack}")
        out[f"attack.{attack}.calls"] = calls
        out[f"attack.{attack}.self_s"] = selfs.get(f"attack.{attack}", 0.0)
        out[f"attack.{attack}.reid_ratio"] = counters.get(f"attack.{attack}.reid", 0.0) / calls if calls else 0.0
    lookups = cache["hits"] + cache["misses"]
    out["features.hits"] = cache["hits"]
    out["features.misses"] = cache["misses"]
    out["features.evictions"] = cache["evictions"]
    out["features.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    out["features.build_s"] = counters.get("features.build_s", 0.0)
    searches = names.count("core.search")
    out["core.search.calls"] = searches
    out["core.search.self_s"] = selfs.get("core.search", 0.0)
    out["core.evaluations"] = evaluations
    # Each split turns one searched trace into two searched halves.
    out["core.splits"] = (searches - roots) / 2.0
    out["core.win_ratio"] = counters.get("core.search.wins", 0.0) / searches if searches else 0.0
    out["distortion.calls"] = names.count("distortion")
    out["distortion.self_s"] = selfs.get("distortion", 0.0)
    return out


def service_metrics(spans: Sequence[List[Any]], counters: Dict[str, float]) -> Dict[str, float]:
    selfs = self_times(spans)

    def total(prefix: str) -> float:
        return sum(v for k, v in selfs.items() if k.startswith(prefix + "."))

    return {
        "service.frames": sum(1 for s in spans if s[NAME].startswith("service.encode.")),
        "service.decode_s": total("service.decode"),
        "service.encode_s": total("service.encode"),
        "service.wait_s.upload": selfs.get("service.handle.upload", 0.0),
        "service.wait_s.query": selfs.get("service.handle.query", 0.0),
        "service.proxy_s": selfs.get("service.proxy", 0.0),
        "service.ingest_s": selfs.get("service.ingest", 0.0),
        "service.ingest_records": counters.get("service.ingest_records", 0.0),
        "service.query_s": selfs.get("service.query", 0.0),
        "service.errors": counters.get("service.errors", 0.0),
    }


def facade_s(spans: Sequence[List[Any]], verbs: Sequence[str], sides: Sequence[str]) -> float:
    """Summed duration of the spans named ``<side>.<verb>``."""
    names = {f"{side}.{verb}" for side in sides for verb in verbs}
    return sum(s[END] - s[START] for s in spans if s[NAME] in names)


def transport_s(round_trips_s: float, client_spans: Sequence[List[Any]],
                server_spans: Sequence[List[Any]], verbs: Sequence[str]) -> float:
    """Client round trips minus client codec and server decode/handle/encode time."""
    client = facade_s(client_spans, verbs, ("client.encode", "client.decode"))
    server = facade_s(server_spans, verbs, ("service.decode", "service.handle", "service.encode"))
    return round_trips_s - client - server


# ---------------------------------------------------------------------------
# remote-bg1000
# ---------------------------------------------------------------------------


def check_users(results: Sequence[Dict[str, Any]], inputs: Inputs,
                attacks: Sequence[Any]) -> Tuple[List[str], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Accounting and audit of per-user results; returns failures, units, pieces."""
    units = [
        {
            "key": r["user_id"],
            "records": r["original_records"],
            "erased_records": r["erased_records"],
            "published_records": sum(p["original_records"] for p in r["pieces"]),
        }
        for r in results
    ]
    pieces = [p for r in results for p in r["pieces"]]
    expected = {t.user_id: len(t) for t in inputs.protect}
    failures = checks.accounting_mismatches(units, expected) + checks.audit(pieces, attacks)
    return failures, units, pieces


class RequestClock:
    """Stopwatch on ``AsyncServiceClient.request`` for protect requests."""

    def __enter__(self) -> "RequestClock":
        from repro.service.api import ProtectRequest
        from repro.service.rpc import AsyncServiceClient

        self.samples: List[float] = []
        self.original = original = AsyncServiceClient.request
        samples = self.samples

        async def timed(client: Any, message: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return await original(client, message)
            finally:
                if isinstance(message, ProtectRequest):
                    samples.append(time.perf_counter() - t0)

        AsyncServiceClient.request = timed
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.service.rpc import AsyncServiceClient

        AsyncServiceClient.request = self.original


async def connect_probe(addresses: Sequence[str]) -> float:
    """Time one client connect + hello (and close) per address."""
    from repro.service.rpc import AsyncServiceClient, parse_endpoint

    t0 = time.perf_counter()
    for address in addresses:
        client = await AsyncServiceClient(parse_endpoint(address), timeout=REQUEST_TIMEOUT_S).connect()
        await client.close()
    return time.perf_counter() - t0


def remote_batch(inputs: Inputs, addresses: Sequence[str]) -> Dict[str, Any]:
    """protect_dataset on the remote executor; one client-side batch."""
    from repro import ProtectionConfig, ProtectionEngine
    from repro.core.dataset import MobilityDataset
    from repro.errors import ReproError

    engine = ProtectionEngine.from_config(ProtectionConfig(
        executor={"name": "remote", "endpoints": list(addresses), "shards": REMOTE_SHARDS,
                  "timeout": REQUEST_TIMEOUT_S},
    ))
    error = None
    report = None
    with RequestClock() as clock:
        t0 = time.perf_counter()
        try:
            report = engine.protect_dataset(MobilityDataset("protect", inputs.protect))
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    results = []
    if report is not None:
        for user, r in report.results.items():
            results.append({
                "user_id": user,
                "original_records": r.original_records,
                "erased_records": r.erased_records,
                "pieces": [
                    {
                        "pseudonym": p.pseudonym, "original_user": p.original_user,
                        "published": p.published, "mechanism": p.mechanism,
                        "distortion_m": p.distortion_m, "original_records": p.original_records,
                    }
                    for p in r.pieces
                ],
            })
    return {"results": results, "error": error, "window": (t0, t1), "latencies_s": clock.samples}


def serial_digest(inputs: Inputs) -> str:
    """The digest the serial executor publishes for the same inputs."""
    from repro import ProtectionConfig, ProtectionEngine
    from repro.core.dataset import MobilityDataset

    engine = ProtectionEngine.from_config(ProtectionConfig()).fit(inputs.background_dataset())
    report = engine.protect_dataset(MobilityDataset("protect", inputs.protect))
    return checks.published_digest(
        {"pseudonym": p.pseudonym, "published": p.published}
        for r in report.results.values() for p in r.pieces
    )


def check_remote(batch: Dict[str, Any], captured: Sequence[Dict[str, Any]], inputs: Inputs,
                 attacks: Sequence[Any], reference: str) -> Tuple[List[str], Dict[str, float]]:
    if batch["error"] is not None:
        return [f"remote batch failed: {batch['error']}"], {}
    failures, units, pieces = check_users(batch["results"], inputs, attacks)
    # No raw sub-trace crosses the wire: recompute each piece's STD from
    # the original its endpoint kept, against the bytes the client got.
    originals = {p["pseudonym"]: p["original"] for unit in captured for p in unit["pieces"]}
    for piece in pieces:
        if piece["pseudonym"] not in originals:
            failures.append(f"{piece['pseudonym']}: no endpoint published it")
            continue
        failures += checks.distortion_mismatches([dict(piece, original=originals[piece["pseudonym"]])])
    digest = checks.published_digest(pieces)
    if digest != reference:
        failures.append(f"remote published digest {digest} != serial {reference}")
    return failures, checks.output_summary(units, pieces)


def run_remote(inputs: Inputs, workdir: Path, trace: bool) -> Outcome:
    plan = pass_plan("remote-bg1000", trace)
    batches: List[Dict[str, Any]] = []
    connect: List[float] = []
    with Endpoints(workdir, inputs, SETUP_SAMPLES["remote-bg1000"]) as endpoints, \
            ThreadPoolExecutor(1) as pool:
        servers = [endpoints.start(f"endpoint{i}", plan) for i in range(2)]
        reference = ""
        for k, traced in enumerate(plan):
            addresses = [s.address() for s in servers]
            connect.append(asyncio.run(connect_probe(addresses)))
            tracer = None
            if traced:
                tracer = Tracer()
                instrument_client(tracer)
            if k == 0:
                # The serial reference runs beside the untimed warm-up
                # and ends before the endpoints start the next pass's fit.
                serial = pool.submit(serial_digest, inputs)
                batch = remote_batch(inputs, addresses)
                reference = serial.result()
            else:
                batch = remote_batch(inputs, addresses)
            batch["tracer"] = tracer
            batches.append(batch)
            for server in servers:
                server.end_pass()
        results = [s.result() for s in servers]
    attacks = checks.audit_suite(inputs.background_dataset())
    out = Outcome(attempted=len(plan) * len(inputs.protect), digest=reference)
    summary: Dict[str, float] = {}
    for k, batch in enumerate(batches):
        captured = [unit for r in results for unit in r["passes"][k]["captured"]]
        failures, summary_k = check_remote(batch, captured, inputs, attacks, reference)
        out.failures += failures
        summary = summary_k or summary
        if batch["error"] is not None:
            out.failed += len(inputs.protect)
    untraced = [b for b, traced in zip(batches[WARMUP:], plan[WARMUP:]) if not traced]
    walls = [b["window"][1] - b["window"][0] for b in untraced]
    # Endpoints fit side by side: each sample is the slower of the two.
    fits = [max(pair) for pair in zip(*(r["setup_s"] for r in results))]
    binds = [max(pair) for pair in zip(*(r["bind_s"] for r in results))]
    out.samples = sample_counts(walls, fits, [x for b in untraced for x in b["latencies_s"]],
                                TAIL_Q["remote-bg1000"])
    out.end_to_end = {
        "setup_s": statistics.median(fits) + statistics.median(binds) + statistics.median(connect),
        "users_per_s": len(inputs.protect) * len(walls) / sum(walls),
        **latency_metrics([x for b in untraced for x in b["latencies_s"]] or [float("inf")],
                          TAIL_Q["remote-bg1000"]),
        **(summary or {"published_share": 0.0, "mean_distortion_m": 0.0}),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in results),
    }
    if trace:
        traced_passes = [r["passes"][-1] for r in results]
        out.per_layer, out.accounting, out.spans = remote_layers(
            batches[-1], traced_passes, len(inputs.protect), statistics.median(walls)
        )
    return out


def busy_s(spans: Sequence[List[Any]]) -> float:
    """Union of each request's extent, from its first decode to its reply."""
    extent: Dict[Any, List[float]] = {}
    for span in spans:
        if not span[NAME].startswith(("service.decode.", "service.handle.", "service.encode.")):
            continue
        key = (span[NAME].rsplit(".", 1)[1], span[REQUEST])
        lo_hi = extent.setdefault(key, [span[START], span[END]])
        lo_hi[0] = min(lo_hi[0], span[START])
        lo_hi[1] = max(lo_hi[1], span[END])
    return union_length((lo, hi) for lo, hi in extent.values())


def remote_layers(batch: Dict[str, Any], servers: Sequence[Dict[str, Any]], users: int,
                  untraced_wall: float) -> Tuple[Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    """Per-layer metrics summed over endpoints; wall accounted on the slowest."""
    t0, t1 = batch["window"]
    wall = t1 - t0
    merged: List[List[Any]] = []
    counters: Dict[str, float] = {}
    cache = {"hits": 0, "misses": 0, "evictions": 0}
    evaluations = 0
    busy = []
    for server in servers:
        spans = server["spans"]
        # Parents index each process's own list; shift them into the merged one.
        base = len(merged)
        merged.extend([s[0], s[1], s[2], None if s[3] is None else s[3] + base, s[4], s[5]] for s in spans)
        for key, value in server["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        for key in cache:
            cache[key] += server["cache"][key]
        evaluations += server["evaluations"]
        busy.append(busy_s(spans))
    per_layer = engine_layer_metrics(merged, counters, evaluations, cache, users)
    per_layer.update(service_metrics(merged, counters))
    client_spans = batch["tracer"].spans
    # The slowest endpoint sets the wall time: split it by layer (the
    # deepest span active at each instant), and call the rest dispatch.
    slowest = int(np.argmax(busy))
    components, _ = exclusive_times(servers[slowest]["spans"], (t0, t1))
    components = {f"endpoint.{name}": v for name, v in components.items()}
    components["cluster.dispatch"] = wall - busy[slowest]
    accounting = account(wall, components)
    accounting["slowest_endpoint"] = slowest
    for i, server in enumerate(servers):
        per_layer[f"cluster.endpoint{i}.busy_s"] = busy[i]
        per_layer[f"cluster.endpoint{i}.users"] = len(server["captured"])
    per_layer["cluster.skew"] = max(busy) / (sum(busy) / len(busy))
    per_layer["cluster.dispatch_s"] = wall - busy[slowest]
    per_layer["cluster.client_decode_s"] = facade_s(client_spans, ("protect",), ("client.decode",))
    per_layer["cluster.retries"] = sum(1 for s in client_spans if s[NAME] == "client.encode.protect") - users
    per_layer["transport_s"] = transport_s(sum(batch["latencies_s"]), client_spans, merged, ("protect",))
    per_layer.update(trace_metrics(accounting, untraced_wall))
    return per_layer, accounting, {"client": client_spans, "endpoints": [s["spans"] for s in servers]}


# ---------------------------------------------------------------------------
# serve-upload-query
# ---------------------------------------------------------------------------


async def drive_serve(address: str, inputs: Inputs) -> Dict[str, Any]:
    """One thread, two connections: closed-loop uploads, open-loop queries."""
    from repro.errors import TransportError
    from repro.service.api import ErrorEnvelope, QueryRequest, UploadRequest
    from repro.service.rpc import AsyncServiceClient, parse_endpoint

    endpoint = parse_endpoint(address)
    t0 = time.perf_counter()
    uploader = await AsyncServiceClient(endpoint, timeout=REQUEST_TIMEOUT_S).connect()
    querier = await AsyncServiceClient(endpoint, timeout=REQUEST_TIMEOUT_S).connect()
    connect = time.perf_counter() - t0

    uploads: List[Tuple[float, float, Any]] = []
    queries: List[Tuple[float, float, float, bool]] = []

    async def ask(client: Any, message: Any) -> Any:
        try:
            reply = await client.request(message)
        except TransportError:
            return None
        return None if isinstance(reply, ErrorEnvelope) else reply

    async def upload_loop() -> None:
        for day, chunk in inputs.uploads:
            sent = time.perf_counter()
            reply = await ask(uploader, UploadRequest(trace=chunk, day_index=day))
            uploads.append((sent, time.perf_counter(), reply))

    async def one_query(due: float, message: Any) -> None:
        sent = time.perf_counter()
        reply = await ask(querier, message)
        queries.append((due, sent, time.perf_counter(), reply is not None))

    async def query_loop(start: float) -> None:
        tasks = []
        for due_s, kind, lat, lng in inputs.queries:
            due = start + due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if kind == "count":
                message = QueryRequest(kind="count", lat=lat, lng=lng)
            else:
                message = QueryRequest(kind="top_cells", k=TOP_CELLS_K)
            tasks.append(asyncio.ensure_future(one_query(due, message)))
        await asyncio.gather(*tasks)

    await asyncio.gather(upload_loop(), query_loop(time.perf_counter()))
    await uploader.close()
    await querier.close()
    return {
        "connect_s": connect, "uploads": uploads, "queries": queries,
        "upload_wall_s": uploads[-1][1] - uploads[0][0],
    }


def check_serve(run: Dict[str, Any], captured: Sequence[Dict[str, Any]], inputs: Inputs,
                attacks: Sequence[Any]) -> Tuple[List[str], Dict[str, float]]:
    units = [
        {
            "key": (c["user_id"], c["day_index"]),
            "records": c["records"],
            "erased_records": c["erased_records"],
            "published_records": sum(p["original_records"] for p in c["pieces"]),
        }
        for c in captured
    ]
    pieces = [p for c in captured for p in c["pieces"]]
    expected = {(chunk.user_id, day): len(chunk) for day, chunk in inputs.uploads}
    failures = checks.accounting_mismatches(units, expected)
    failures += checks.audit(pieces, attacks)
    failures += checks.distortion_mismatches(pieces)
    # Receipts must agree with what the server published and erased.
    by_key = {(c["user_id"], c["day_index"]): c for c in captured}
    for (_, _, reply), (day, chunk) in zip(run["uploads"], inputs.uploads):
        unit = by_key.get((chunk.user_id, day))
        if reply is not None and (
            unit is None
            or tuple(p["pseudonym"] for p in unit["pieces"]) != reply.pseudonyms
            or unit["erased_records"] != reply.erased_records
        ):
            failures.append(f"receipt for {chunk.user_id} day {day} disagrees with the server")
    return failures, checks.output_summary(units, pieces)


def upload_latencies(run: Dict[str, Any]) -> List[float]:
    # A failed request misses every latency limit.
    return [(end - sent) if reply is not None else float("inf") for sent, end, reply in run["uploads"]]


def query_latencies(run: Dict[str, Any]) -> List[float]:
    return [(end - due) if ok else float("inf") for due, _, end, ok in run["queries"]]


def run_serve(inputs: Inputs, workdir: Path, trace: bool) -> Outcome:
    plan = pass_plan("serve-upload-query", trace)
    first_day = inputs.uploads[0][0]
    warmup = replace(inputs, uploads=[u for u in inputs.uploads if u[0] == first_day], queries=[])
    sent = [warmup] * WARMUP + [inputs] * (len(plan) - WARMUP)
    runs: List[Dict[str, Any]] = []
    with Endpoints(workdir, inputs, SETUP_SAMPLES["serve-upload-query"]) as endpoints:
        server = endpoints.start("server", plan)
        for traced, pass_inputs in zip(plan, sent):
            address = server.address()
            tracer = None
            if traced:
                tracer = Tracer()
                instrument_client(tracer)
            run = asyncio.run(drive_serve(address, pass_inputs))
            run["tracer"] = tracer
            runs.append(run)
            server.end_pass()
        result = server.result()
    attacks = checks.audit_suite(inputs.background_dataset())
    out = Outcome(attempted=sum(len(i.uploads) + len(i.queries) for i in sent))
    summary: Dict[str, float] = {}
    for run, record, pass_inputs in zip(runs, result["passes"], sent):
        failures, summary = check_serve(run, record["captured"], pass_inputs, attacks)
        out.failures += failures
        out.failed += sum(1 for u in run["uploads"] if u[2] is None)
        out.failed += sum(1 for q in run["queries"] if not q[3])
    untraced = [run for run, traced in zip(runs[WARMUP:], plan[WARMUP:]) if not traced]
    users = len({chunk.user_id for _, chunk in inputs.uploads})
    walls = [run["upload_wall_s"] for run in untraced]
    out.samples = sample_counts(walls, result["setup_s"], [x for run in untraced for x in upload_latencies(run)],
                                TAIL_Q["serve-upload-query"])
    out.end_to_end = {
        "setup_s": statistics.median(result["setup_s"]) + statistics.median(result["bind_s"])
        + statistics.median(run["connect_s"] for run in runs),
        "users_per_s": users * len(walls) / sum(walls),
        **latency_metrics([x for run in untraced for x in upload_latencies(run)], TAIL_Q["serve-upload-query"]),
        **summary,
        "peak_rss_mib": result["peak_rss_mib"],
    }
    if trace:
        out.per_layer, out.accounting, out.spans = serve_layers(
            runs[-1], result["passes"][-1], len(inputs.uploads), untraced[0]
        )
    return out


def serve_layers(traced: Dict[str, Any], server: Dict[str, Any], chunks: int,
                 plain: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    spans = server["spans"]
    counters = server["counters"]
    client_spans = traced["tracer"].spans
    per_layer = engine_layer_metrics(spans, counters, server["evaluations"], server["cache"], chunks)
    per_layer.update(service_metrics(spans, counters))
    upload_rtt = sum(end - sent for sent, end, _ in traced["uploads"])
    query_rtt = sum(end - sent for _, sent, end, _ in traced["queries"])
    per_layer["transport_s"] = transport_s(upload_rtt + query_rtt, client_spans, spans, ("upload", "query"))
    queries = query_latencies(plain)
    per_layer.update({
        "loadgen.late_p99_ms": 1e3 * percentile([sent - due for due, sent, _, _ in plain["queries"]], 99.0),
        "loadgen.uploads_per_s": len(plain["uploads"]) / plain["upload_wall_s"],
        "loadgen.query_p50_ms": 1e3 * percentile(queries, 50.0),
        "loadgen.query_p99_ms": 1e3 * percentile(queries, 99.0),
    })
    # The upload connection's timeline: every upload round trip split
    # into client codec, transport, server codec, facade wait, and the
    # layers under the upload's handle span; what is left is the
    # client's own time between uploads.
    selfs = self_times(spans)
    components = {k: v for k, v in selfs.items() if k in ENGINE_LAYERS}
    for name in ("service.proxy", "service.ingest", "service.handle.upload",
                 "service.decode.upload", "service.encode.upload"):
        components[name] = selfs.get(name, 0.0)
    components["client.codec.upload"] = facade_s(client_spans, ("upload",), ("client.encode", "client.decode"))
    components["transport.upload"] = transport_s(upload_rtt, client_spans, spans, ("upload",))
    accounting = account(traced["upload_wall_s"], components)
    per_layer.update(trace_metrics(accounting, plain["upload_wall_s"]))
    return per_layer, accounting, {"client": client_spans, "server": spans}
