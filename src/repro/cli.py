"""Command-line interface: ``mood <command>`` (or ``python -m repro``).

Commands
--------
``mood generate <dataset> --out file.csv`` /
``mood generate --corpus synth:<city>:<tier> --out file.csv``
    Generate a corpus and save it as CSV.  ``--corpus`` routes through
    the corpus registry: ``synth:<city>:<tier>`` streams the city-scale
    activity-based corpus (tiers ``10k``/``100k``/``1m``, constant
    memory — users are generated and written one at a time), while
    ``classic:<dataset>`` (or a bare dataset name) uses the paper's four
    hand-tuned generators.  ``--config`` takes the spec from a
    ProtectionConfig's ``corpus`` field instead.
``mood protect --dataset privamov [--config run.json] [--jobs N]``
    Run the full MooD pipeline on one corpus and print the summary.
    With ``--config`` the engine (LPPMs, attacks, δ, split policy,
    search strategy, executor) is rebuilt declaratively from a JSON
    file; ``--jobs N`` fans the per-user work out over N processes.
``mood experiment <table1|fig2_3|fig6|fig7|fig8|fig9|fig10|all> [--dataset D]``
    Regenerate a paper table/figure as an ASCII table.
``mood campaign --dataset privamov``
    Run the crowdsensing deployment simulation.
``mood serve [--host H --port P | --unix PATH] [--auth-key-file F]``
    Run the protection service as a real middleware: fit an engine on
    the dataset's background split, then serve the versioned JSON-lines
    protocol (see docs/SERVICE.md) over TCP or a unix socket.  Each
    connection is served one request at a time, so a client that
    pipelines is pushed back by TCP.  With an auth key (``--auth-key``,
    ``--auth-key-file``, or ``service.auth_key_file`` in the config)
    every connection must complete the shared-secret handshake before
    any other request is served.  SIGTERM drains gracefully: stop
    accepting, finish the requests already read, flush open streaming
    windows (see docs/STREAMING.md), then exit.
``mood request <protect|upload|query|stats|metrics> [--csv FILE] [--lat --lng]``
    One-shot client against a running ``serve`` instance; prints the
    response body as JSON.  ``--auth-key`` / ``--auth-key-file`` match
    the server's key; ``--timeout`` bounds each request round-trip.
``mood top [--endpoints H:P,... | --coordinator COORD]``
    Live per-endpoint metrics board over a running cluster: queue
    depth, requests served, stream sessions, cache hit rate, and (with
    ``--coordinator``) the registry's view of each member.  ``--plain
    --iterations N`` prints N frames and exits (scriptable).  With
    ``serve --cluster-join COORD`` an endpoint announces itself to a
    coordinator and heartbeats until shutdown (see docs/CLUSTER.md).
``mood stream replay [--city saigon --tier 10k] [--users N] [--overflow P]``
    Live-loop exemplar: replay a slice of the synthetic corpus through
    the streaming ingestion path (``stream_open`` / ``stream_record`` /
    ``stream_flush`` / ``stream_close``) record by record, in timestamp
    order across users, and print watermark/overflow statistics.
``mood config validate <file>`` / ``mood config example``
    Lint a protection config file / print a template to adapt.
``mood lint [PATH ...] [--format text|ci|json] [--check-baseline]``
    Static analysis over ``src/``: determinism (DET0xx) and concurrency
    (CONC0xx) rules (see docs/LINT.md).
    Exits non-zero on any finding not recorded in the committed
    baseline (``.github/lint_baseline.json``); ``--write-baseline``
    re-pins it, ``--list-rules`` prints the catalogue.
``mood bench smoke`` / ``mood bench micro [--out BENCH.json]`` /
``mood bench scale [--tier 10k] [--city lyon] [--out BENCH.json]``
    Perf gate: ``smoke`` runs the tier-1 test suite plus a sub-minute
    kernel bench (the CI job), which also holds the v2 codec's speedup
    floor over v1 and the streaming replay floor and overload memory
    bound; ``micro`` runs the full micro suite at N ∈ {100, 1000}
    profiled users and writes a ``BENCH_*.json`` trajectory snapshot;
    ``scale`` streams a full synth tier recording users/s + peak RSS,
    asserts the corpus digest survives regeneration and tier-prefix
    extraction, and runs CI-capped protection legs per executor (writes
    ``BENCH_6.json``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.datasets.generators import DATASET_NAMES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--users", type=int, default=None, help="override the user count"
    )
    parser.add_argument("--days", type=int, default=30, help="campaign days")


def _add_auth(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--auth-key",
        default=None,
        metavar="SECRET",
        help="shared secret for the HMAC-blake2b handshake (prefer "
        "--auth-key-file: argv leaks into process listings)",
    )
    parser.add_argument(
        "--auth-key-file",
        default=None,
        metavar="FILE",
        help="file whose (stripped) bytes are the shared auth secret",
    )


def _resolve_auth_key(args: argparse.Namespace, cfg: Optional[object] = None):
    """The handshake key from CLI flags, falling back to config.service."""
    from repro.service.api import resolve_auth_key

    key = resolve_auth_key(args.auth_key, args.auth_key_file)
    if key is not None:
        return key
    service = getattr(cfg, "service", None)
    if service:
        return resolve_auth_key(service.get("auth_key"), service.get("auth_key_file"))
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mood",
        description="MooD: user-centric multi-LPPM mobility data protection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus as CSV")
    gen.add_argument(
        "dataset",
        nargs="?",
        choices=DATASET_NAMES,
        default=None,
        help="classic corpus name (or use --corpus)",
    )
    gen.add_argument(
        "--corpus",
        default=None,
        metavar="SPEC",
        help="corpus spec: 'synth:<city>:<tier>' (tiers 10k/100k/1m), "
        "'synth:<city>', or 'classic:<dataset>'; streams users to --out "
        "one at a time (constant memory at any tier)",
    )
    gen.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON ProtectionConfig file; its 'corpus' spec names the input",
    )
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--seed", type=int, default=0, help="base random seed")
    gen.add_argument("--users", type=int, default=None, help="override the user count")
    gen.add_argument(
        "--days", type=int, default=None, help="campaign days (default: corpus default)"
    )

    prot = sub.add_parser("protect", help="run the full MooD pipeline on a corpus")
    prot.add_argument("--dataset", choices=DATASET_NAMES, default="privamov")
    prot.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON ProtectionConfig file; overrides the built-in engine set-up",
    )
    prot.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker processes (default: config value or 1)",
    )
    _add_common(prot)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument(
        "which",
        choices=["table1", "fig2_3", "fig6", "fig7", "fig8", "fig9", "fig10", "all"],
    )
    exp.add_argument("--dataset", choices=DATASET_NAMES, default=None)
    _add_common(exp)

    camp = sub.add_parser("campaign", help="run the crowdsensing deployment simulation")
    camp.add_argument("--dataset", choices=DATASET_NAMES, default="privamov")
    _add_common(camp)

    serve = sub.add_parser(
        "serve", help="run the protection service over TCP or a unix socket"
    )
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="privamov")
    serve.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON ProtectionConfig file for the served engine",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument(
        "--port", type=int, default=7464, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--unix", default=None, metavar="PATH", help="serve on a unix socket instead"
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="S",
        help="evict a client whose socket stays unwritable this long "
        "(slow consumer; default 30 s)",
    )
    serve.add_argument(
        "--cluster-join",
        default=None,
        metavar="COORD",
        help="join this coordinator endpoint (host:port or unix:PATH) "
        "and keep a heartbeat going (see docs/CLUSTER.md)",
    )
    serve.add_argument(
        "--advertise",
        default=None,
        metavar="ADDR",
        help="endpoint to register with the coordinator "
        "(default: the bound address)",
    )
    serve.add_argument(
        "--heartbeat-s",
        type=float,
        default=None,
        metavar="S",
        help="cluster heartbeat interval (default 5 s)",
    )
    _add_auth(serve)
    _add_common(serve)

    req = sub.add_parser(
        "request", help="send one request to a running protection service"
    )
    req.add_argument(
        "what", choices=["protect", "upload", "query", "stats", "metrics"]
    )
    req.add_argument("--host", default="127.0.0.1")
    req.add_argument("--port", type=int, default=7464)
    req.add_argument("--unix", default=None, metavar="PATH")
    req.add_argument(
        "--csv", default=None, metavar="FILE", help="trace CSV for protect/upload"
    )
    req.add_argument(
        "--user", default=None, help="user id inside the CSV (default: first user)"
    )
    req.add_argument(
        "--daily", action="store_true", help="protect in daily chunks (§4.5 mode)"
    )
    req.add_argument("--day-index", type=int, default=0, help="upload day index")
    req.add_argument("--lat", type=float, default=None, help="query latitude")
    req.add_argument("--lng", type=float, default=None, help="query longitude")
    req.add_argument("--k", type=int, default=None, help="query: top-k busiest cells")
    req.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="per-request round-trip timeout in seconds (default 60)",
    )
    _add_auth(req)

    top = sub.add_parser(
        "top",
        help="live per-endpoint metrics view over a running cluster",
    )
    top.add_argument(
        "--endpoints",
        default=None,
        metavar="LIST",
        help="comma-separated endpoints to watch (host:port or unix:PATH)",
    )
    top.add_argument(
        "--coordinator",
        default=None,
        metavar="COORD",
        help="discover endpoints from this coordinator's membership "
        "instead of a static --endpoints list",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="refresh interval in seconds (default 2)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="render N frames then exit (0 = run until interrupted)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append frames instead of redrawing (logs, tests, dumb terminals)",
    )
    top.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="per-endpoint metrics round-trip timeout (default 5)",
    )
    _add_auth(top)

    stream = sub.add_parser(
        "stream", help="streaming-ingestion tools (see docs/STREAMING.md)"
    )
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)
    replay = stream_sub.add_parser(
        "replay",
        help="replay a synth corpus slice through the streaming path, live",
    )
    replay.add_argument("--city", default="saigon", help="synth corpus city")
    replay.add_argument(
        "--tier", choices=["10k", "100k", "1m"], default="10k", help="corpus tier"
    )
    replay.add_argument(
        "--users", type=int, default=8, help="how many corpus users to replay"
    )
    replay.add_argument(
        "--batch", type=int, default=32, help="records per stream_record frame"
    )
    replay.add_argument(
        "--window",
        choices=["tumbling", "session"],
        default="tumbling",
        help="window kind for every session",
    )
    replay.add_argument(
        "--window-s", type=float, default=None, help="tumbling window length (s)"
    )
    replay.add_argument(
        "--overflow",
        choices=["block", "shed", "degrade"],
        default="block",
        help="per-session overflow policy",
    )
    replay.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="per-session open-window record bound (overflow trips above it)",
    )
    replay.add_argument("--seed", type=int, default=0, help="corpus seed")

    conf = sub.add_parser("config", help="work with declarative protection configs")
    conf_sub = conf.add_subparsers(dest="config_command", required=True)
    validate = conf_sub.add_parser("validate", help="lint a protection config file")
    validate.add_argument("file", help="path to a JSON ProtectionConfig")
    conf_sub.add_parser("example", help="print a template config to adapt")

    bench = sub.add_parser("bench", help="run the perf gate / micro-benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    smoke = bench_sub.add_parser(
        "smoke", help="tier-1 test suite + a <60 s kernel bench (the CI job)"
    )
    smoke.add_argument(
        "--skip-tests",
        action="store_true",
        help="only run the kernel bench, skip the pytest pass",
    )
    micro = bench_sub.add_parser(
        "micro", help="full kernel micro suite; writes a BENCH snapshot"
    )
    micro.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="JSON snapshot path (default: print only)",
    )
    micro.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[100, 1000],
        help="profiled-user counts for the rank() benches",
    )
    scale = bench_sub.add_parser(
        "scale",
        help="tiered corpus load yardstick: generation throughput, "
        "determinism (regen + tier prefix), and executor protection legs",
    )
    scale.add_argument(
        "--tier",
        choices=["10k", "100k", "1m"],
        default="10k",
        help="corpus tier to stream (10k is the <60 s CI job)",
    )
    scale.add_argument("--city", default="lyon", help="synth corpus city")
    scale.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="JSON snapshot path (default: print only)",
    )
    for p in (smoke, micro, scale):
        p.add_argument("--seed", type=int, default=7, help="bench corpus seed")

    lint = sub.add_parser(
        "lint",
        help="AST lint: determinism and concurrency rules",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to sweep (default: src/)",
    )
    lint.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "ci", "json"],
        default="text",
        help="finding output: human text, GitHub workflow annotations, "
        "or a JSON report",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline file (default: .github/lint_baseline.json)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    lint.add_argument(
        "--check-baseline",
        action="store_true",
        help="also fail on stale baseline entries (CI shrink-only mode)",
    )
    lint.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the full JSON report here (the CI artifact)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    return parser


def _corpus_spec_from_arg(text: str) -> dict:
    """Parse a ``--corpus`` argument into a registry spec dict.

    Accepts ``synth:<city>:<tier>``, ``synth:<city>``, ``classic:<dataset>``,
    or a bare classic dataset name.
    """
    from repro.errors import ConfigurationError

    parts = text.split(":")
    if parts[0] == "synth":
        if len(parts) > 3:
            raise ConfigurationError(
                f"corpus spec {text!r} has too many parts; "
                "expected synth:<city>[:<tier>]"
            )
        spec = {"name": "synth"}
        if len(parts) > 1 and parts[1]:
            spec["city"] = parts[1]
        if len(parts) > 2 and parts[2]:
            spec["tier"] = parts[2].lower()
        return spec
    if parts[0] == "classic":
        if len(parts) > 2:
            raise ConfigurationError(
                f"corpus spec {text!r} has too many parts; "
                "expected classic:<dataset>"
            )
        spec = {"name": "classic"}
        if len(parts) > 1 and parts[1]:
            spec["dataset"] = parts[1]
        return spec
    if text in DATASET_NAMES:
        return {"name": "classic", "dataset": text}
    raise ConfigurationError(
        f"cannot parse corpus spec {text!r}; expected 'synth:<city>[:<tier>]', "
        f"'classic:<dataset>', or one of {list(DATASET_NAMES)}"
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import registry
    from repro.datasets.io import write_csv_stream
    from repro.errors import ConfigurationError

    if args.corpus:
        spec = _corpus_spec_from_arg(args.corpus)
    elif args.config:
        from repro.config import ProtectionConfig

        cfg = ProtectionConfig.from_file(args.config)
        if cfg.corpus is None:
            raise ConfigurationError(
                f"config {args.config} has no 'corpus' spec; add one or "
                "pass --corpus / a dataset name"
            )
        spec = dict(cfg.corpus)
    elif args.dataset:
        spec = {"name": "classic", "dataset": args.dataset}
    else:
        raise ConfigurationError(
            "generate needs a dataset name, --corpus SPEC, or --config FILE"
        )
    spec.setdefault("seed", args.seed)
    if args.users is not None:
        spec.pop("tier", None)  # an explicit count overrides the tier size
        spec["n_users"] = args.users
    if args.days is not None:
        spec["days"] = args.days
    corpus = registry.build("corpus", spec)
    rows = write_csv_stream(corpus.iter_traces(), args.out)
    print(f"wrote {rows} records for {corpus.n_users} users to {args.out}")
    return 0


def _cmd_protect(args: argparse.Namespace) -> int:
    from repro.config import ProtectionConfig
    from repro.core.engine import ProtectionEngine
    from repro.experiments.harness import prepare_context

    t0 = time.time()
    ctx = prepare_context(args.dataset, seed=args.seed, n_users=args.users, days=args.days)
    if args.config:
        cfg = ProtectionConfig.from_file(args.config)
        if args.jobs is not None:
            cfg.jobs = args.jobs
            if cfg.executor == "serial" and args.jobs > 1:
                cfg.executor = "process"
        engine = ProtectionEngine.from_config(cfg).fit(ctx.train)
    else:
        jobs = args.jobs if args.jobs is not None else 1
        engine = ctx.engine(executor="process" if jobs > 1 else "serial", jobs=jobs)
    report = engine.evaluate("mood", ctx.test)
    ev = report.result
    protected = len(ctx.test) - len(ev.non_protected())
    print(f"dataset            : {ctx.name}")
    print(f"users              : {len(ctx.test)}")
    print(f"fully protected    : {protected}")
    print(f"data loss          : {100.0 * ev.data_loss():.2f}%")
    finite = [d for d in ev.distortions().values() if d < float('inf')]
    if finite:
        print(f"median distortion  : {sorted(finite)[len(finite) // 2]:.0f} m")
    print(f"wall time          : {time.time() - t0:.1f}s")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        FigureBundle,
        fig2_3,
        fig6,
        fig7,
        fig8,
        fig9,
        fig10,
        prepare_context,
        table1,
    )

    which = args.which
    if which == "table1":
        table1.main(seed=args.seed)
        return 0
    names = [args.dataset] if args.dataset else list(DATASET_NAMES)
    per_dataset = {
        "fig2_3": fig2_3.main,
        "fig6": fig6.main,
        "fig7": fig7.main,
        "fig8": fig8.main,
        "fig9": fig9.main,
        "fig10": fig10.main,
    }
    targets = list(per_dataset) if which == "all" else [which]
    for name in names:
        ctx = prepare_context(name, seed=args.seed, n_users=args.users, days=args.days)
        for target in targets:
            per_dataset[target](ctx)
            print()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.harness import prepare_context
    from repro.service import CrowdsensingCampaign

    ctx = prepare_context(args.dataset, seed=args.seed, n_users=args.users, days=args.days)
    campaign = CrowdsensingCampaign(ctx.test, ctx.engine())
    report = campaign.run()
    print(f"dataset              : {ctx.name}")
    print(f"clients              : {report.clients}")
    print(f"campaign days        : {report.days:.0f}")
    print(f"chunks processed     : {report.proxy.chunks_processed}")
    print(f"pieces published     : {report.proxy.pieces_published}")
    print(f"records erased       : {report.proxy.records_erased} "
          f"({100.0 * report.data_loss:.2f}%)")
    print(f"pseudonyms on server : {report.server.distinct_pseudonyms}")
    print(f"count-query fidelity : {report.count_query_fidelity:.3f}")
    print("mechanism usage      :")
    for mech, count in sorted(report.proxy.mechanism_usage.items(), key=lambda kv: -kv[1]):
        print(f"  {mech:24s} {count}")
    return 0


def _build_served_engine(args: argparse.Namespace):
    """Context-fitted engine for ``serve`` (config-aware)."""
    from repro.config import ProtectionConfig
    from repro.core.engine import ProtectionEngine
    from repro.experiments.harness import prepare_context

    ctx = prepare_context(args.dataset, seed=args.seed, n_users=args.users, days=args.days)
    if args.config:
        cfg = ProtectionConfig.from_file(args.config)
        return ctx, ProtectionEngine.from_config(cfg).fit(ctx.train), cfg
    return ctx, ctx.engine(), None


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.api import ProtectionService
    from repro.stream import StreamConfig
    from repro.service.rpc import ServiceServer

    ctx, engine, cfg = _build_served_engine(args)
    stream_cfg = None
    if cfg is not None and getattr(cfg, "stream", None):
        stream_cfg = StreamConfig.from_dict(cfg.stream)
    service = ProtectionService(engine, stream=stream_cfg)
    kwargs = {}
    if args.drain_timeout is not None:
        kwargs["drain_timeout_s"] = args.drain_timeout
    server = ServiceServer(
        service,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        auth_key=_resolve_auth_key(args, cfg),
        **kwargs,
    )

    cluster_cfg = {}
    if cfg is not None and getattr(cfg, "service", None):
        cluster_cfg = cfg.service.get("cluster") or {}
    coordinator = args.cluster_join or cluster_cfg.get("coordinator")
    heartbeat_s = args.heartbeat_s or cluster_cfg.get("heartbeat_s")

    async def _serve() -> None:
        await server.start()
        where = (
            server.unix_path
            if server.unix_path is not None
            else f"{server.host}:{server.port}"
        )
        auth = "on (shared-secret handshake)" if server.auth_key else "off"
        announcer = None
        if coordinator:
            from repro.cluster import DEFAULT_HEARTBEAT_S, ClusterAnnouncer

            advertise = args.advertise or cluster_cfg.get("advertise") or (
                f"unix:{server.unix_path}"
                if server.unix_path is not None
                else where
            )
            announcer = ClusterAnnouncer(
                coordinator,
                advertise,
                heartbeat_s=heartbeat_s or DEFAULT_HEARTBEAT_S,
                auth_key=server.auth_key,
            ).start()
            print(
                f"cluster: announcing {advertise} to {coordinator}",
                flush=True,
            )
        print(
            f"serving {ctx.name} protection service on {where} (auth {auth})",
            flush=True,
        )
        # SIGTERM = graceful drain: stop accepting, answer the requests
        # already read, flush open streaming windows, then exit 0 —
        # an orchestrator's `kill` never loses an accepted record.
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stopping.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix event loops: ctrl-C still works
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_task.cancel()
            serve_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            if announcer is not None:
                # Graceful cluster_leave happens off-loop (the announcer
                # runs its own thread), so draining below is unaffected.
                await asyncio.get_running_loop().run_in_executor(
                    None, announcer.stop
                )
        if stopping.is_set():
            summary = await server.drain()
            print(
                "drained: {sessions} stream session(s), "
                "{windows_flushed} window(s), "
                "{records_flushed} record(s) flushed".format(**summary),
                flush=True,
            )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_request(args: argparse.Namespace) -> int:
    import json

    from repro.datasets.io import load_csv
    from repro.errors import ConfigurationError
    from repro.service.api import QueryRequest
    from repro.service.rpc import ServiceClient

    def pick_trace():
        if not args.csv:
            raise ConfigurationError(f"'{args.what}' needs --csv FILE with the trace")
        dataset = load_csv(args.csv)
        user = args.user or dataset.user_ids()[0]
        return dataset[user]

    auth_key = _resolve_auth_key(args)
    if args.unix:
        client = ServiceClient(
            unix_path=args.unix, timeout=args.timeout, auth_key=auth_key
        )
    else:
        client = ServiceClient(
            host=args.host, port=args.port, timeout=args.timeout, auth_key=auth_key
        )
    with client:
        if args.what == "protect":
            reply = client.protect(pick_trace(), daily=args.daily)
        elif args.what == "upload":
            reply = client.upload(pick_trace(), day_index=args.day_index)
        elif args.what == "query":
            if args.k is not None:
                request = QueryRequest(kind="top_cells", k=args.k)
            elif args.lat is not None and args.lng is not None:
                request = QueryRequest(kind="count", lat=args.lat, lng=args.lng)
            else:
                raise ConfigurationError(
                    "'query' needs --lat and --lng (or --k for top cells)"
                )
            reply = client.query(request)
        elif args.what == "metrics":
            reply = client.metrics()
        else:
            reply = client.stats()
    print(json.dumps(reply.to_body(), indent=2, sort_keys=True))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``mood top``: live per-endpoint metrics over a running cluster.

    Each frame polls every watched endpoint's ``metrics`` verb and (with
    ``--coordinator``) the coordinator's membership, so the board shows
    both what an endpoint says about itself (queue depth, requests
    served, cache hit rate) and what the registry believes about it
    (alive / stale / left).  ``--plain --iterations N`` turns the board
    into a scriptable snapshot — that mode is what the acceptance test
    drives in a subprocess.
    """
    from repro.errors import ConfigurationError, ReproError
    from repro.service.rpc import ServiceClient, parse_endpoint

    static = [s.strip() for s in (args.endpoints or "").split(",") if s.strip()]
    if not static and not args.coordinator:
        raise ConfigurationError(
            "'top' needs --endpoints LIST and/or --coordinator COORD"
        )
    auth_key = _resolve_auth_key(args)

    def connect(spec: str) -> ServiceClient:
        ep = parse_endpoint(spec)
        return ServiceClient(
            host=ep.host,
            port=ep.port,
            unix_path=ep.unix_path,
            timeout=args.timeout,
            auth_key=auth_key,
        )

    def fetch(spec: str):
        try:
            with connect(spec) as client:
                return client.metrics()
        except (ReproError, OSError):
            return None

    def membership():
        """Registry states keyed by endpoint label, plus the epoch."""
        if not args.coordinator:
            return {}, None
        try:
            with connect(args.coordinator) as client:
                reply = client.cluster_membership()
        except (ReproError, OSError):
            return {}, None
        states = {
            str(m.get("endpoint")): str(m.get("state", "?")) for m in reply.members
        }
        return states, reply.epoch

    def cache_pct(cache: dict) -> str:
        total = cache.get("hits", 0) + cache.get("misses", 0)
        if not total:
            return "-"
        return f"{100.0 * cache.get('hits', 0) / total:.0f}%"

    header = (
        f"{'ENDPOINT':<28} {'STATE':<14} {'UP(S)':>7} {'INFL':>6} "
        f"{'SERVED':>8} {'CONNS':>6} {'CHUNKS':>7} {'STREAMS':>7} "
        f"{'CACHE':>5}"
    )
    frames = 0
    try:
        while True:
            states, epoch = membership()
            specs = list(static)
            labels = {spec: parse_endpoint(spec).label() for spec in specs}
            for endpoint in states:
                if endpoint not in labels.values():
                    specs.append(endpoint)
                    labels[endpoint] = endpoint
            rows = []
            for spec in specs:
                label = labels[spec]
                reply = fetch(spec)
                registry = states.get(label, "")
                if reply is None:
                    state = ("unreachable/" + registry) if registry else "unreachable"
                    rows.append(f"{label:<28} {state:<14} " + "-" * 7)
                    continue
                state = ("up/" + registry) if registry else "up"
                transport = reply.transport
                proxy = reply.service.get("proxy", {})
                rows.append(
                    f"{label:<28} {state:<14} {reply.uptime_s:>7.0f} "
                    f"{transport.get('inflight_requests', 0):>6} "
                    f"{transport.get('requests_served', 0):>8} "
                    f"{transport.get('connections_accepted', 0):>6} "
                    f"{proxy.get('chunks_processed', 0):>7} "
                    f"{reply.stream.get('sessions_open', 0):>7} "
                    f"{cache_pct(reply.feature_cache):>5}"
                )
            if not args.plain:
                print("\x1b[2J\x1b[H", end="")
            title = f"repro top — {len(specs)} endpoint(s)"
            if epoch is not None:
                title += f", cluster epoch {epoch}"
            print(title)
            print(header)
            for row in rows:
                print(row)
            sys.stdout.flush()
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """``mood stream replay``: the online path driven like a deployment.

    Users' records arrive interleaved in timestamp order — the shape a
    real gateway sees — not one user at a time.  Each user's session
    batches records into ``stream_record`` frames; a ``blocked`` ack is
    handled the way a well-behaved client should: flush the open window
    to make room, then resend the rejected tail.
    """
    from repro.config import ProtectionConfig
    from repro.core.dataset import MobilityDataset
    from repro.core.engine import ProtectionEngine
    from repro.service.api import LoopbackClient, ProtectionService
    from repro.stream import StreamConfig
    from repro.synth.corpus import CorpusSpec, SynthCorpus

    assert args.stream_command == "replay"
    t0 = time.time()
    spec = CorpusSpec.for_tier(args.city, args.tier, seed=args.seed)
    corpus = SynthCorpus.from_spec(spec)
    n_users = min(args.users, corpus.n_users)
    traces = [corpus.trace(i) for i in range(n_users)]
    background = MobilityDataset(f"{spec.name}-replay", traces)
    engine = ProtectionEngine.from_config(ProtectionConfig()).fit(background)
    overrides = {"window": args.window, "overflow": args.overflow}
    if args.window_s is not None:
        overrides["window_s"] = args.window_s
    if args.max_pending is not None:
        overrides["max_pending_records"] = args.max_pending
    service = ProtectionService(engine, stream=StreamConfig(**overrides))
    client = LoopbackClient(service)
    print(
        f"replaying {n_users} users from synth:{args.city}:{args.tier} "
        f"({args.window} windows, overflow={args.overflow})",
        flush=True,
    )
    for trace in traces:
        client.stream_open(trace.user_id)
    # Global timestamp-ordered merge of every user's records.
    rows = []
    ordinals = {trace.user_id: 0 for trace in traces}
    for trace in traces:
        for i in range(len(trace)):
            rows.append(
                (
                    float(trace.timestamps[i]),
                    trace.user_id,
                    float(trace.lats[i]),
                    float(trace.lngs[i]),
                )
            )
    rows.sort()
    pending = {trace.user_id: [] for trace in traces}
    sent = blocked_retries = 0

    def _send(user: str) -> None:
        nonlocal sent, blocked_retries
        batch = pending[user]
        pending[user] = []
        while batch:
            ack = client.stream_record(user, batch)
            sent += ack.accepted
            batch = batch[ack.accepted :]
            if batch and ack.status == "blocked":
                blocked_retries += 1
                client.stream_flush(user, acked=ack.watermark, close_window=True)

    for t, user, lat, lng in rows:
        pending[user].append((ordinals[user], t, lat, lng))
        ordinals[user] += 1
        if len(pending[user]) >= args.batch:
            _send(user)
    pieces = erased = 0
    for trace in traces:
        _send(trace.user_id)
        closed = client.stream_close(trace.user_id)
        pieces += closed.pieces_published
        erased += closed.erased_records
    wall = time.time() - t0
    stats = client.stats().stream
    client.close()
    print(f"records streamed   : {sent}")
    print(f"pieces published   : {pieces}")
    print(f"records erased     : {erased}")
    print(f"windows closed     : {stats['windows_closed']}")
    print(f"windows shed       : {stats['windows_shed']}")
    print(f"windows degraded   : {stats['windows_degraded']}")
    print(f"blocked retries    : {blocked_retries}")
    if stats["overflow_events"]:
        print("overflow events    :")
        for reason, count in sorted(stats["overflow_events"].items()):
            print(f"  {reason:32s} {count}")
    print(f"throughput         : {sent / max(wall, 1e-9):.0f} records/s")
    print(f"wall time          : {wall:.1f}s")
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    from repro.config import ProtectionConfig
    from repro.core.engine import ProtectionEngine
    from repro.errors import ReproError

    if args.config_command == "example":
        print(ProtectionConfig().to_json())
        return 0
    try:
        cfg = ProtectionConfig.from_file(args.file)
        # Building the components catches bad constructor kwargs, not
        # just bad names — full lint without running anything.
        ProtectionEngine.from_config(cfg)
    except (ReproError, ValueError) as exc:
        print(f"invalid config {args.file}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.file}: OK")
    print(cfg.describe())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import os

    from repro import bench

    modes = {
        "micro": lambda: bench.run_micro(sizes=tuple(args.sizes), seed=args.seed),
        "scale": lambda: bench.run_scale(
            tier=args.tier, city=args.city, seed=args.seed
        ),
    }
    if args.bench_command in modes:
        snapshot = modes[args.bench_command]()
        print(bench.format_snapshot(snapshot))
        if args.bench_command == "scale":
            print(bench.EXECUTOR_WALL_NOTE)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(snapshot, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"\nwrote snapshot to {args.out}")
        return 0
    # smoke: tier-1 suite first (when a tests/ tree is reachable), then
    # a sub-minute kernel pass.  Non-zero on any failure — CI-gateable.
    if not args.skip_tests:
        if not os.path.isdir("tests"):
            # The gate must never pass green without running the suite.
            print(
                "error: no tests/ directory under the current working "
                "directory — run `bench smoke` from the repo root, or pass "
                "--skip-tests to run only the kernel bench",
                file=sys.stderr,
            )
            return 1
        import subprocess

        env = dict(os.environ)
        src = os.path.abspath("src")
        if os.path.isdir(src):
            existing = env.get("PYTHONPATH")
            env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-x", "-q", "tests"], env=env
        )
        if code != 0:
            print("tier-1 test suite failed", file=sys.stderr)
            return code
    t0 = time.perf_counter()
    snapshot = bench.run_smoke(seed=args.seed)
    print(bench.format_snapshot(snapshot))
    print(f"bench smoke wall   : {time.perf_counter() - t0:.1f}s")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.lintkit import (
        Baseline,
        LintConfig,
        format_findings,
        gate,
        lint_project,
        rule_catalogue,
    )
    from repro.lintkit.report import DEFAULT_BASELINE

    if args.list_rules:
        for entry in rule_catalogue():
            print(f"{entry['id']}  {entry['severity']:<7}  {entry['title']}")
        return 0
    config = LintConfig(repo_root=".")
    if not os.path.isdir(config.abspath(config.src_root)):
        print(
            "error: run `mood lint` from the repository root "
            f"(no {config.src_root}/ directory here)",
            file=sys.stderr,
        )
        return 2
    findings = lint_project(config, paths=list(args.paths) or None)
    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.write_baseline:
        Baseline.write(baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0
    result = gate(findings, Baseline.load(baseline_path))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(format_findings(result.findings, "json"))
            f.write("\n")
    if args.fmt == "json":
        print(format_findings(result.findings, "json"))
    else:
        if result.new:
            print(format_findings(result.new, args.fmt))
        for key in result.stale_keys:
            print(f"stale baseline entry (finding no longer fires): {key}")
        print(
            f"lint: {len(result.findings)} finding(s) — {len(result.new)} new, "
            f"{len(result.baselined)} baselined, {len(result.stale_keys)} stale"
        )
    return 0 if result.ok(check_baseline=args.check_baseline) else 1


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "protect": _cmd_protect,
        "experiment": _cmd_experiment,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "request": _cmd_request,
        "top": _cmd_top,
        "stream": _cmd_stream,
        "config": _cmd_config,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
