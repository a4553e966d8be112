"""Protocol-drift rules (PROTO0xx) — project scope.

The wire vocabulary lives in ``repro.service.api.MESSAGE_TYPES``.  A
verb exists only when *all three* of its artefacts exist —

1. membership in the ``Message`` union,
2. a hypothesis strategy branch in the property suite
   (``tests/service/test_codec_properties.py``), and
3. a row/mention in the protocol document (``docs/SERVICE.md``).

(Each verb's codec needs no check: every message body is derived from
its dataclass fields, and a field with no wire form fails
``import repro.service``.)

These rules cross-check the registry against each artefact *statically*
(pure AST + text, no imports), so adding a verb without full coverage —
or deleting one strategy branch or doc mention — fails ``repro lint``
before any soak test runs.  The tier-1 self-test
(``tests/lintkit/test_protocol_drift.py``) additionally pins the
AST-extracted registry against the imported runtime one.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.lintkit.rules import Finding, LintConfig, Rule, register


@dataclass
class ProtocolModel:
    """Everything the drift rules need, extracted from the API module."""

    path: str  #: repo-relative api module path
    #: slug -> message class name, in registry order.
    registry: Dict[str, str] = field(default_factory=dict)
    #: line of each slug's registry entry (for finding locations).
    slug_lines: Dict[str, int] = field(default_factory=dict)
    #: members of the ``Message`` union annotation.
    union: Set[str] = field(default_factory=set)
    registry_line: int = 1
    error: Optional[str] = None

    @classmethod
    def parse(cls, source: str, relpath: str) -> "ProtocolModel":
        model = cls(path=relpath.replace(os.sep, "/"))
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as exc:
            model.error = f"api module does not parse: {exc.msg}"
            return model
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if "MESSAGE_TYPES" in names:
                    model.registry_line = node.lineno
                    model._read_registry(node.value)
                elif "Message" in names:
                    model._read_union(node.value)
        if not model.registry:
            model.error = "no MESSAGE_TYPES dict literal found"
        return model

    @classmethod
    def load(cls, config: LintConfig) -> "ProtocolModel":
        path = config.abspath(config.api_module)
        try:
            with open(path, "r", encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            model = cls(path=config.api_module)
            model.error = f"cannot read api module: {exc}"
            return model
        return cls.parse(source, config.api_module)

    def _read_registry(self, value: ast.AST) -> None:
        if not isinstance(value, ast.Dict):
            self.error = "MESSAGE_TYPES is not a dict literal"
            return
        for key, val in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(val, ast.Name)
            ):
                self.registry[key.value] = val.id
                self.slug_lines[key.value] = key.lineno

    def _read_union(self, value: ast.AST) -> None:
        if isinstance(value, ast.Subscript):
            elts = (
                value.slice.elts
                if isinstance(value.slice, ast.Tuple)
                else [value.slice]
            )
            self.union = {e.id for e in elts if isinstance(e, ast.Name)}


def _read_text(config: LintConfig, relpath: str) -> Optional[str]:
    try:
        with open(config.abspath(relpath), "r", encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


class _ProtocolRule(Rule):
    """Shared plumbing: load the model once per rule invocation."""

    scope = "project"

    def check_project(self, config: LintConfig) -> Iterable[Finding]:
        model = ProtocolModel.load(config)
        if model.error is not None:
            return [self.finding(model.path, model.registry_line, model.error)]
        return list(self.check_model(model, config))

    def check_model(
        self, model: ProtocolModel, config: LintConfig
    ) -> Iterable[Finding]:
        raise NotImplementedError


@register
class MessageUnionRule(_ProtocolRule):
    id = "PROTO002"
    title = "registry and Message union disagree"
    severity = "error"
    rationale = """The ``Message`` union is the typed face of the
    registry: a class in one but not the other means a verb the type
    system doesn't know about, or a type the wire can never carry."""

    def check_model(
        self, model: ProtocolModel, config: LintConfig
    ) -> Iterable[Finding]:
        registered = set(model.registry.values())
        for slug, class_name in model.registry.items():
            if class_name not in model.union:
                yield self.finding(
                    model.path,
                    model.slug_lines.get(slug, model.registry_line),
                    f"`{class_name}` (verb `{slug}`) is registered but "
                    "missing from the Message union",
                )
        for class_name in sorted(model.union - registered):
            yield self.finding(
                model.path,
                model.registry_line,
                f"`{class_name}` is in the Message union but not in "
                "MESSAGE_TYPES",
            )


def _strategy_artifacts(source: str, relpath: str):
    """From the property suite: (slugs in sampled_from lists inside
    ``wire_messages``, class names referenced as expressions, error)."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return set(), set(), f"strategy suite does not parse: {exc.msg}"
    sampled: Set[str] = set()
    referenced: Set[str] = set()
    wire_fn = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "wire_messages":
            wire_fn = node
            break
    if wire_fn is None:
        return set(), set(), "no `wire_messages` strategy function found"
    for node in ast.walk(wire_fn):
        if isinstance(node, ast.Call):
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if attr == "sampled_from":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        sampled.add(sub.value)
    # Name *expressions* only — imports don't count, so deleting a
    # construction branch genuinely un-references its class.
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
    return sampled, referenced, None


@register
class StrategyCoverageRule(_ProtocolRule):
    id = "PROTO003"
    title = "verb missing from the hypothesis property suite"
    severity = "error"
    rationale = """Every verb must be drawn by the ``wire_messages``
    strategy (its slug in a ``sampled_from`` list **and** its class
    constructed in a branch), so the round-trip/desync properties cover
    it.  A verb the fuzzer never generates is a verb whose codec is
    untested."""

    def check_model(
        self, model: ProtocolModel, config: LintConfig
    ) -> Iterable[Finding]:
        source = _read_text(config, config.strategy_test)
        if source is None:
            yield self.finding(
                config.strategy_test,
                1,
                f"property suite {config.strategy_test} not found",
            )
            return
        sampled, referenced, error = _strategy_artifacts(
            source, config.strategy_test
        )
        if error is not None:
            yield self.finding(config.strategy_test, 1, error)
            return
        for slug, class_name in model.registry.items():
            if slug not in sampled:
                yield self.finding(
                    config.strategy_test,
                    1,
                    f"verb `{slug}` is not in the wire_messages sampled_from "
                    "list — the property suite never generates it",
                )
            if class_name not in referenced:
                yield self.finding(
                    config.strategy_test,
                    1,
                    f"message class `{class_name}` (verb `{slug}`) is never "
                    "constructed in the property suite — strategy branch "
                    "missing",
                )


@register
class DocCoverageRule(_ProtocolRule):
    id = "PROTO004"
    title = "verb missing from the protocol document"
    severity = "error"
    rationale = """docs/SERVICE.md is the operator-facing contract:
    every wire verb must appear there by its exact slug.  A verb the
    document doesn't name is a verb peers will implement from guesswork."""

    def check_model(
        self, model: ProtocolModel, config: LintConfig
    ) -> Iterable[Finding]:
        text = _read_text(config, config.service_doc)
        if text is None:
            yield self.finding(
                config.service_doc, 1, f"{config.service_doc} not found"
            )
            return
        for slug in model.registry:
            if slug not in text:
                yield self.finding(
                    config.service_doc,
                    1,
                    f"verb `{slug}` is not documented in {config.service_doc}",
                )


def protocol_rules() -> List[Rule]:
    """The drift family, for callers that run it in isolation (the
    tier-1 self-test and the mutation checks)."""
    from repro.lintkit.rules import all_rules

    return [rule for rule in all_rules() if rule.id.startswith("PROTO")]
