#!/usr/bin/env python
"""Line-coverage gate for the hardened subsystems.

Runs the tier-1 pytest suite in-process under a line tracer scoped to
the gated packages (``SCOPES`` below — the protection engine core, the
attacks, LPPMs and mobility profiles, the cluster, lint, service and
streaming layers, and the synthetic corpus engine) and fails when any
scope's measured coverage drops below the committed baseline
(``.github/coverage_baseline.json``).  The tracer is stdlib-only
(``sys.settrace`` + ``threading.settrace``) so the gate needs no
dependency beyond pytest itself and produces the same numbers on a
laptop and in CI.

"Executable lines" are the line numbers that can fire a trace event:
the union of ``co_lines()`` over every code object compiled from the
file (functions, methods, comprehensions, module level).  Covered lines
are the subset that actually fired while the suite ran.  Subprocesses
(e.g. the ``python -m repro serve`` acceptance test) are not traced —
the baseline and the gate measure the same way, so the comparison is
apples to apples.

Usage::

    PYTHONPATH=src python tools/coverage_gate.py                  # gate
    PYTHONPATH=src python tools/coverage_gate.py --write-baseline # re-pin
    PYTHONPATH=src python tools/coverage_gate.py --report out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from typing import Dict, Set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Gated packages: scope name -> directory prefix.  Every scope is
#: measured independently and gated against its own baseline entry.
SCOPES = {
    name: os.path.join(REPO_ROOT, "src", "repro", name) + os.sep
    for name in (
        "attacks", "cluster", "core", "lintkit", "lppm", "poi", "service", "stream",
        "synth",
    )
}
BASELINE_PATH = os.path.join(REPO_ROOT, ".github", "coverage_baseline.json")

#: Points of slack under the baseline before the gate fails: absorbs
#: run-to-run wobble (timing-dependent branches) without letting a real
#: regression through.
TOLERANCE = 0.25


def executable_lines(path: str) -> Set[int]:
    """Line numbers that can fire a ``line`` trace event in *path*."""
    with open(path, "r", encoding="utf-8") as f:
        source = f.read()
    lines: Set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _, _, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


class ScopeTracer:
    """settrace hook recording line hits for files under any scope."""

    def __init__(self) -> None:
        self.hits: Dict[str, Set[int]] = {}
        self._prefixes = tuple(SCOPES.values())

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return self._local

    def __call__(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self._prefixes):
            return self._local(frame, event, arg) if event == "line" else self._local
        return None

    def install(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def measure(pytest_args) -> Dict[str, object]:
    """Run pytest under the tracer; return the coverage report dict."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import pytest

    tracer = ScopeTracer()
    tracer.install()
    try:
        exit_code = int(pytest.main(list(pytest_args)))
    finally:
        tracer.uninstall()

    scopes = {}
    for scope_name, scope_dir in SCOPES.items():
        files = {}
        total_exec = total_hit = 0
        for dirpath, _, names in os.walk(scope_dir):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                lines = executable_lines(path)
                hit = tracer.hits.get(path, set()) & lines
                total_exec += len(lines)
                total_hit += len(hit)
                files[os.path.relpath(path, REPO_ROOT)] = {
                    "executable": len(lines),
                    "covered": len(hit),
                    "percent": round(100.0 * len(hit) / len(lines), 2)
                    if lines
                    else 100.0,
                }
        percent = 100.0 * total_hit / total_exec if total_exec else 100.0
        scopes[scope_name] = {
            "scope": os.path.relpath(scope_dir, REPO_ROOT),
            "executable": total_exec,
            "covered": total_hit,
            "percent": round(percent, 2),
            "files": files,
        }
    return {
        "schema": "coverage",
        "pytest_exit_code": exit_code,
        "scopes": scopes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=f"re-pin {os.path.relpath(BASELINE_PATH, REPO_ROOT)} instead of gating",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE", help="write the full report JSON"
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        default=None,
        help="args for the in-process pytest run (default: -x -q <repo>/tests)",
    )
    args = parser.parse_args(argv)
    pytest_args = args.pytest_args or ["-x", "-q", os.path.join(REPO_ROOT, "tests")]

    report = measure(pytest_args)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    for name, scope in report["scopes"].items():
        print(
            f"{name} coverage: {scope['covered']}/{scope['executable']} "
            f"executable lines = {scope['percent']:.2f}%"
        )
    if report["pytest_exit_code"] != 0:
        print("coverage gate: test suite failed; coverage not gated", file=sys.stderr)
        return int(report["pytest_exit_code"])

    if args.write_baseline:
        baseline = {
            "schema": "coverage-baseline",
            "scopes": {
                name: {
                    "percent": scope["percent"],
                    "executable": scope["executable"],
                    "covered": scope["covered"],
                }
                for name, scope in report["scopes"].items()
            },
        }
        with open(BASELINE_PATH, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline written: {BASELINE_PATH}")
        return 0

    try:
        with open(BASELINE_PATH) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"coverage gate: no baseline at {BASELINE_PATH}", file=sys.stderr)
        return 1
    failed = False
    for name, scope in report["scopes"].items():
        pinned = baseline["scopes"].get(name)
        if pinned is None:
            print(f"coverage gate: no baseline entry for scope {name!r}; "
                  f"re-pin with --write-baseline", file=sys.stderr)
            failed = True
            continue
        floor = float(pinned["percent"]) - TOLERANCE
        print(f"{name} baseline: {pinned['percent']:.2f}% (gate floor {floor:.2f}%)")
        if scope["percent"] < floor:
            print(
                f"coverage gate FAILED [{name}]: {scope['percent']:.2f}% < "
                f"{floor:.2f}% (baseline {pinned['percent']:.2f}% - "
                f"{TOLERANCE} tolerance)",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print("coverage gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
