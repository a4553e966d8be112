"""Lint core: rule registry, AST plumbing, suppression, and drivers.

Everything here is stdlib-only (``ast`` + ``os`` + ``re``) so the lint
gate runs identically on a laptop and in CI with no dependency beyond
the interpreter, mirroring ``tools/coverage_gate.py``.

The moving parts:

* :class:`Finding` — one diagnostic: rule id, severity, ``file:line``,
  message.  Its :meth:`Finding.key` is the identity the baseline file
  stores.
* :class:`ModuleInfo` — one parsed source file: AST, import alias map
  (``np`` → ``numpy``), and the per-line ``# lint: allow(...)``
  suppression table.
* :class:`Rule` — a check that visits one parsed module at a time.
* :func:`lint_source` / :func:`lint_paths` / :func:`lint_project` —
  the drivers: one source string, files and trees, and the default
  ``src/`` sweep.  Tests feed snippets to :func:`lint_source`; the CLI
  and CI run :func:`lint_project`.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: ``# lint: allow(DET001)`` / ``# lint: allow(DET001, CONC002)`` /
#: ``# lint: allow(*)`` — suppress the named rules on that line.
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")

SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, ordered for stable reports: path, line, rule."""

    path: str  #: repo-relative, ``/``-separated
    line: int
    rule: str
    severity: str
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def key(self) -> str:
        """The baseline identity: rule + location (messages may reword)."""
        return f"{self.rule}@{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class LintConfig:
    """Where the linted project lives and which paths mean what.

    Every path is repo-relative with ``/`` separators, so a config (and
    the baseline file) reads the same on every platform.  Tests point
    ``repo_root`` at a temp directory to lint fixture trees.
    """

    repo_root: str = "."
    #: Directory the module rules sweep by default.
    src_root: str = "src"
    #: Packages on the publish path: code here must be wall-clock-free
    #: and entropy-free (every draw seeded through ``repro/rng.py``).
    publish_paths: Tuple[str, ...] = (
        "src/repro/core",
        "src/repro/lppm",
        "src/repro/attacks",
        "src/repro/stream",
        "src/repro/synth",
        "src/repro/datasets",
        "src/repro/poi",
        "src/repro/geo",
        "src/repro/metrics",
        "src/repro/analysis",
        "src/repro/experiments",
    )
    #: The one module allowed to touch raw RNG constructors.
    rng_module: str = "src/repro/rng.py"
    #: Codec-adjacent packages: float formatting here must round-trip.
    codec_paths: Tuple[str, ...] = ("src/repro/service", "src/repro/stream")

    def abspath(self, relpath: str) -> str:
        return os.path.join(self.repo_root, *relpath.split("/"))

    def in_publish_path(self, relpath: str) -> bool:
        return relpath.startswith(tuple(p + "/" for p in self.publish_paths))

    def in_codec_path(self, relpath: str) -> bool:
        return relpath.startswith(tuple(p + "/" for p in self.codec_paths))


def _parse_allows(source: str) -> Dict[int, Set[str]]:
    """Per-line suppression table: line number → allowed rule ids."""
    allows: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if rules:
            allows[lineno] = rules
    return allows


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name → canonical dotted module/attribute it refers to.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import time as now`` → ``{"now": "time.time"}``;
    ``import os.path`` → ``{"os": "os"}`` (attribute chains resolve the
    rest).  Relative imports keep their bare module name — good enough
    to resolve the stdlib/third-party calls the rules care about.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules keep re-deriving."""

    relpath: str
    source: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    allows: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, relpath: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=relpath)
        return cls(
            relpath=relpath.replace(os.sep, "/"),
            source=source,
            tree=tree,
            aliases=_import_aliases(tree),
            allows=_parse_allows(source),
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a ``Name``/``Attribute`` expression.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` under
        ``import numpy as np``; unresolvable shapes (subscripts, calls,
        lambdas) come back ``None``.  Plain names pass through, so
        builtins (``set``, ``open``) resolve to themselves and
        ``self.foo`` resolves to ``"self.foo"``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def suppressed(self, rule: str, line: int) -> bool:
        allowed = self.allows.get(line)
        return allowed is not None and (rule in allowed or "*" in allowed)


class Rule:
    """One lint check.  Subclasses set the class attributes and override
    :meth:`check_module`."""

    id: str = ""
    title: str = ""
    severity: str = "error"
    #: One-paragraph rationale rendered by ``rule_catalogue()`` and the
    #: docs; keep it crisp — it is the operator-facing contract.
    rationale: str = ""

    def check_module(
        self, module: ModuleInfo, config: LintConfig
    ) -> Iterable[Finding]:
        return ()

    def finding(self, relpath: str, line: int, message: str) -> Finding:
        return Finding(
            path=relpath.replace(os.sep, "/"),
            line=line,
            rule=self.id,
            severity=self.severity,
            message=message,
        )


_RULES: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in _RULES and type(_RULES[rule.id]) is not rule_cls:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"{rule.id}: unknown severity {rule.severity!r}")
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rule_catalogue() -> List[Dict[str, str]]:
    """The rule table docs/LINT.md renders (id, severity, title, why)."""
    return [
        {
            "id": rule.id,
            "severity": rule.severity,
            "title": rule.title,
            "rationale": " ".join(rule.rationale.split()),
        }
        for rule in all_rules()
    ]


def lint_source(
    source: str,
    relpath: str,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run the rules over one source string.

    The test-suite entry point: fixture snippets go in, findings come
    out, with ``# lint: allow`` suppression applied.
    """
    config = config if config is not None else LintConfig()
    try:
        module = ModuleInfo.from_source(source, relpath)
    except SyntaxError as exc:
        return [
            Finding(
                path=relpath.replace(os.sep, "/"),
                line=int(exc.lineno or 1),
                rule="LINT000",
                severity="error",
                message=f"source does not parse: {exc.msg}",
            )
        ]
    findings: List[Finding] = []
    for rule in rules if rules is not None else all_rules():
        for finding in rule.check_module(module, config):
            if not module.suppressed(finding.rule, finding.line):
                findings.append(finding)
    return sorted(findings)


def iter_py_files(root: str) -> Iterator[str]:
    """Every ``*.py`` under *root*, in sorted (deterministic) order."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """The rules over files and/or directory trees."""
    config = config if config is not None else LintConfig()
    findings: List[Finding] = []
    for path in paths:
        files = iter_py_files(path) if os.path.isdir(path) else [path]
        for file_path in files:
            relpath = os.path.relpath(file_path, config.repo_root)
            with open(file_path, "r", encoding="utf-8") as f:
                source = f.read()
            findings.extend(lint_source(source, relpath, config, rules))
    return sorted(findings)


def lint_project(
    config: Optional[LintConfig] = None,
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """The full pass: the rules over ``src/`` (or *paths*), sorted for a
    stable report."""
    config = config if config is not None else LintConfig()
    sweep = (
        [os.path.join(config.repo_root, *config.src_root.split("/"))]
        if paths is None
        else list(paths)
    )
    return lint_paths(sweep, config, rules)
