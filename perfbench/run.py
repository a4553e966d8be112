"""MooD benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  Workloads (see BENCHMARK.json
and ``perfbench/rationale.json`` for why each exists and which layers it
exercises):

* ``serve-upload-query`` - a ``repro`` service process fed closed-loop
  uploads and open-loop analytics queries over TCP;
* ``remote-bg1000`` - ``ProtectionEngine.protect_dataset`` on the
  ``remote`` executor to two endpoint processes, background of 1000
  users.

``--seed`` draws the inputs (see ``perfbench/inputs.py``); ``--seconds``
sizes the fixed work list (the run never stops on a clock).  With
``--trace 0`` the result carries the end-to-end metrics of an untraced
pass; with ``--trace 1`` a traced pass follows and the result carries
the per-layer metrics, with the spans written to
``perfbench/.work/trace-<workload>-<seed>.json``.  Every run checks the
outputs.  The next-to-last stdout line is a JSON report (input
fingerprint, checks, time accounting, every metric); the last line is
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means
every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("serve-upload-query", "remote-bg1000")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs as gen
    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scale = args.seconds / spec["run_seconds"]
    t0 = time.perf_counter()
    if args.workload == "serve-upload-query":
        inputs = gen.serve_inputs(args.seed, scale)
    else:
        inputs = gen.protect_inputs(args.seed, scale)
    generate_s = time.perf_counter() - t0

    work = ROOT / "perfbench" / ".work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.run_serve if args.workload == "serve-upload-query" else workloads.run_remote
    try:
        outcome = run(inputs, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    # A layer the workload bypasses did no work: its counters read 0.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    failures = list(outcome.failures)
    failures += [f"{k} is not finite" for k, v in metrics.items() if not math.isfinite(v["value"])]
    if outcome.failed:
        failures.append(f"{outcome.failed} of {outcome.attempted} operations failed")
    correct = not failures
    if args.trace:
        work.mkdir(parents=True, exist_ok=True)
        trace_path = work / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"accounting": outcome.accounting, "spans": outcome.spans}))
    rationale = json.loads((ROOT / "perfbench" / "rationale.json").read_text())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rationale": rationale["workloads"][args.workload],
        "inputs": inputs.fingerprint,
        "generate_s": generate_s,
        "published_digest": outcome.digest,
        "checks": failures or "passed",
        "accounting": outcome.accounting,
        "samples": outcome.samples,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
    }
    print(json.dumps(report, sort_keys=True))
    for metric, value in metrics.items():
        print(f"  {metric:28s} {value['value']:.6g} {value['unit']}", file=sys.stderr)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": v["value"] if math.isfinite(v["value"]) else -1.0, "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
