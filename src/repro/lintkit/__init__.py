"""``repro lint`` — the determinism / concurrency / protocol linter.

A stdlib-only static-analysis pass over the repository's own source
tree that machine-checks the two invariants every PR since the seed has
staked correctness on:

* **Determinism** — published datasets must be byte-identical across
  the serial/process/sharded/remote/elastic/stream paths, so no
  publish-path code may draw unseeded randomness, read the wall clock,
  enumerate a ``set`` into ordered output, or format floats lossily
  near the wire codec (:mod:`repro.lintkit.determinism`).
* **Wire-protocol discipline** — every verb in the
  ``repro.service.api.MESSAGE_TYPES`` registry must keep full
  union/strategy/docs coverage: membership in the ``Message`` union, a
  hypothesis strategy in the property suite, and a row in
  docs/SERVICE.md (:mod:`repro.lintkit.protocol`).

Plus **concurrency hygiene**: instance state mutated from thread
targets must hold a lock, and asyncio coroutines must not call
blocking I/O (:mod:`repro.lintkit.concurrency`).

Findings carry a rule id, severity, and ``file:line``; per-line
suppression is ``# lint: allow(<rule>)`` and the committed baseline
(``.github/lint_baseline.json``) may only shrink.  See docs/LINT.md.
"""

from repro.lintkit.rules import (  # noqa: F401
    Finding,
    LintConfig,
    ModuleInfo,
    Rule,
    all_rules,
    lint_paths,
    lint_project,
    lint_source,
    rule_catalogue,
)
from repro.lintkit.report import (  # noqa: F401
    Baseline,
    format_findings,
    gate,
)

# Importing the rule modules registers their rules.
from repro.lintkit import concurrency, determinism, protocol  # noqa: F401, E402

__all__ = [
    "Finding",
    "LintConfig",
    "ModuleInfo",
    "Rule",
    "Baseline",
    "all_rules",
    "format_findings",
    "gate",
    "lint_paths",
    "lint_project",
    "lint_source",
    "rule_catalogue",
]
