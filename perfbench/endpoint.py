"""Engine process of a benchmark run: ``python3 perfbench/endpoint.py JOB.json``.

The launcher (``perfbench/run.py``) writes the generated inputs and a
job file, starts this process, and reads its result file once it ends.
The job lists passes; each pass builds and fits a fresh engine, and a
traced pass installs the layer wrappers on its engine first.  The job's
``extra_setups`` more builds are spread between the passes; every build
is timed, and their median is ``setup_s``.  Each pass serves a fresh
``ProtectionService`` over TCP on an ephemeral port, prints one JSON
line with its address, and ends when a line arrives on standard input.
Every published piece is kept so the launcher can check the output.

Peak RSS is read from ``getrusage`` before any traced pass.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import ProtectionConfig, ProtectionEngine  # noqa: E402
from repro.core.dataset import MobilityDataset  # noqa: E402

from perfbench.layers import instrument_engine, instrument_service  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_engine(background: MobilityDataset) -> Tuple[Any, float]:
    # Collect first, so no collection of the previous engine lands
    # inside a timed fit.
    gc.collect()
    t0 = time.perf_counter()
    engine = ProtectionEngine.from_config(ProtectionConfig()).fit(background)
    return engine, time.perf_counter() - t0


def piece_record(piece: Any) -> Dict[str, Any]:
    return {
        "pseudonym": piece.pseudonym,
        "original_user": piece.original_user,
        "original": piece.original,
        "original_records": len(piece.original),
        "published": piece.published,
        "mechanism": piece.mechanism,
        "distortion_m": piece.distortion_m,
    }


def cache_delta(engine: Any, before: Dict[str, int]) -> Dict[str, int]:
    stats = engine.feature_cache.stats()
    return {k: stats[k] - before[k] for k in ("hits", "misses", "evictions")}


class Passes:
    """Runs the job's passes, each on a freshly built and fitted engine."""

    def __init__(self, job: Dict[str, Any], background: MobilityDataset) -> None:
        self.job = job
        self.background = background
        self.setup_s: List[float] = []
        self.results: List[Dict[str, Any]] = []
        self.peak_rss_mib = 0.0

    def extra_setups(self, slot: int) -> None:
        """The extra builds due before pass *slot* (after the last at ``len(passes)``).

        They are spread over the run, so that their median does not
        sample the CPU speed of a single second: on a VM whose speed
        drifts, builds made back to back read alike within a run and up
        to 2x apart between runs.
        """
        extra, slots = self.job["extra_setups"], len(self.job["passes"]) + 1
        count = extra // slots + (slot < extra % slots)
        self.setup_s += [build_engine(self.background)[1] for _ in range(count)]

    def __iter__(self) -> Iterator[Tuple[Any, Optional[Tracer], Dict[str, Any]]]:
        for slot, traced in enumerate(self.job["passes"]):
            self.extra_setups(slot)
            if traced and not self.peak_rss_mib:
                self.peak_rss_mib = peak_rss_mib()
            engine, setup = build_engine(self.background)
            self.setup_s.append(setup)
            tracer = Tracer() if traced else None
            if tracer is not None:
                instrument_engine(tracer, engine)
            before = dict(engine.feature_cache.stats())
            evaluations = engine.evaluations
            record: Dict[str, Any] = {"trace": traced}
            yield engine, tracer, record
            record["evaluations"] = engine.evaluations - evaluations
            record["cache"] = cache_delta(engine, before)
            if tracer is not None:
                record["spans"] = tracer.spans
                record["counters"] = dict(tracer.counters)
            self.results.append(record)
        if not self.peak_rss_mib:
            self.peak_rss_mib = peak_rss_mib()
        self.extra_setups(len(self.job["passes"]))

    def output(self, **extra: Any) -> Dict[str, Any]:
        return {"setup_s": self.setup_s, "peak_rss_mib": self.peak_rss_mib,
                "passes": self.results, **extra}


def run_server(job: Dict[str, Any], inputs: Any) -> Dict[str, Any]:
    """One fresh service per pass; the launcher ends a pass with a newline."""
    from repro.service.api import ProtectionService
    from repro.service.rpc import ServiceServer

    passes = Passes(job, inputs.background_dataset())
    bind_s: List[float] = []
    for engine, tracer, record in passes:
        service = ProtectionService(engine)
        captured: List[Dict[str, Any]] = []
        protect_chunk = service.proxy.protect_chunk

        def keep(chunk: Any, protect_chunk: Any = protect_chunk, captured: List = captured) -> Any:
            result = protect_chunk(chunk)
            captured.append(
                {
                    "user_id": chunk.user_id,
                    "day_index": chunk.day_index,
                    "records": chunk.records,
                    "erased_records": result.erased_records,
                    "pieces": [piece_record(p) for p in result.pieces],
                }
            )
            return result

        service.proxy.protect_chunk = keep
        if tracer is not None:
            instrument_service(tracer, service)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        t0 = time.perf_counter()
        host, port = server.start_background()
        bind_s.append(time.perf_counter() - t0)
        print(json.dumps({"host": host, "port": port}), flush=True)
        sys.stdin.readline()
        server.stop_background()
        record["captured"] = captured
    return passes.output(bind_s=bind_s)


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    job = json.loads(Path(argv[0]).read_text())
    with open(job["inputs"], "rb") as f:
        inputs = pickle.load(f)
    out = run_server(job, inputs)
    tmp = job["out"] + ".part"
    with open(tmp, "wb") as f:
        pickle.dump(out, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, job["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
