"""Tier-1 protocol-drift self-test.

Three layers:

1. the live repository has zero drift (every registered verb carries
   its union membership, strategy branch, and doc row);
2. the AST-extracted registry matches the *imported* runtime
   ``MESSAGE_TYPES`` exactly, so the static model can never silently
   diverge from what the service actually speaks;
3. mutation checks — deleting a strategy slug, a strategy construction
   branch, a union member, or a doc mention makes the drift rules fire.
   This is the proof the lint gate is live, not decorative.
"""

import ast
import os
import shutil

import repro
from repro.lintkit.rules import LintConfig
from repro.lintkit.protocol import ProtocolModel, protocol_rules
from repro.service.api import MESSAGE_TYPES, Message

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
)
LIVE = LintConfig(repo_root=REPO_ROOT)


def run_drift(config):
    findings = []
    for rule in protocol_rules():
        findings.extend(rule.check_project(config))
    return sorted(findings)


def rule_ids(findings):
    return {f.rule for f in findings}


class TestLiveRepo:
    def test_no_drift_in_this_repository(self):
        assert run_drift(LIVE) == []

    def test_ast_registry_matches_runtime_registry(self):
        model = ProtocolModel.load(LIVE)
        assert model.error is None
        runtime = {slug: cls.__name__ for slug, cls in MESSAGE_TYPES.items()}
        assert model.registry == runtime
        # Same order too: the registry is the wire vocabulary's index.
        assert list(model.registry) == list(runtime)

    def test_ast_union_matches_runtime_union(self):
        model = ProtocolModel.load(LIVE)
        runtime_union = {cls.__name__ for cls in Message.__args__}
        assert model.union == runtime_union


def _copy_tree(tmp_path, api=None, strategy=None, doc=None):
    """A minimal repo copy with optional text transforms applied."""
    config = LintConfig(repo_root=str(tmp_path))
    for relpath, mutate in (
        (LIVE.api_module, api),
        (LIVE.strategy_test, strategy),
        (LIVE.service_doc, doc),
    ):
        src = os.path.join(REPO_ROOT, *relpath.split("/"))
        dst = os.path.join(str(tmp_path), *relpath.split("/"))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        if mutate is None:
            shutil.copyfile(src, dst)
        else:
            with open(src, "r", encoding="utf-8") as f:
                original = f.read()
            mutated = mutate(original)
            assert mutated != original, "mutation was a no-op"
            with open(dst, "w", encoding="utf-8") as f:
                f.write(mutated)
    return config


def _delete_lines(source, start, end):
    """Drop 1-indexed lines ``start..end`` inclusive."""
    lines = source.splitlines(keepends=True)
    return "".join(lines[: start - 1] + lines[end:])


def _sole_strategy_branch(source):
    """A (slug, class name, If node) whose class is referenced *only*
    inside its ``wire_messages`` construction branch."""
    tree = ast.parse(source)
    wire_fn = next(
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "wire_messages"
    )
    name_counts = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name_counts[node.id] = name_counts.get(node.id, 0) + 1
    for node in ast.walk(wire_fn):
        if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
            continue
        comparator = node.test.comparators[0] if node.test.comparators else None
        if not (
            isinstance(comparator, ast.Constant)
            and isinstance(comparator.value, str)
            and comparator.value in MESSAGE_TYPES
        ):
            continue
        slug = comparator.value
        class_name = MESSAGE_TYPES[slug].__name__
        branch_count = sum(
            1
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id == class_name
        )
        if branch_count and branch_count == name_counts.get(class_name):
            return slug, class_name, node
    raise AssertionError("no strategy branch whose class is referenced once")


class TestMutationsAreCaught:
    """Acceptance check: the gate fails when an artefact disappears."""

    def test_deleting_a_union_member_fails(self, tmp_path):
        cls_name = next(iter(MESSAGE_TYPES.values())).__name__

        def drop_union_member(source):
            tree = ast.parse(source)
            for node in tree.body:
                if (
                    isinstance(node, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "Message"
                        for t in node.targets
                    )
                    and isinstance(node.value, ast.Subscript)
                ):
                    elts = node.value.slice.elts
                    member = next(e for e in elts if e.id == cls_name)
                    return _delete_lines(source, member.lineno, member.end_lineno)
            raise AssertionError("Message union not found")

        config = _copy_tree(tmp_path, api=drop_union_member)
        findings = run_drift(config)
        assert "PROTO002" in rule_ids(findings)
        assert any("Message union" in f.message for f in findings)

    def test_deleting_a_sampled_slug_fails(self, tmp_path):
        slug = next(iter(MESSAGE_TYPES))
        config = _copy_tree(
            tmp_path, strategy=lambda s: s.replace(f'"{slug}",', "", 1)
        )
        findings = run_drift(config)
        assert "PROTO003" in rule_ids(findings)
        assert any(
            f"`{slug}`" in f.message and "sampled_from" in f.message
            for f in findings
        )

    def test_deleting_a_construction_branch_fails(self, tmp_path):
        with open(
            os.path.join(REPO_ROOT, *LIVE.strategy_test.split("/")),
            "r",
            encoding="utf-8",
        ) as f:
            source = f.read()
        slug, class_name, branch = _sole_strategy_branch(source)
        config = _copy_tree(
            tmp_path,
            strategy=lambda s: _delete_lines(
                s, branch.lineno, branch.end_lineno
            ),
        )
        findings = run_drift(config)
        assert "PROTO003" in rule_ids(findings)
        assert any(
            class_name in f.message and "never" in f.message for f in findings
        )

    def test_deleting_a_doc_mention_fails(self, tmp_path):
        config = _copy_tree(
            tmp_path,
            doc=lambda s: s.replace("cluster_membership_request", "<redacted>"),
        )
        findings = run_drift(config)
        assert "PROTO004" in rule_ids(findings)
        assert any(
            "`cluster_membership_request`" in f.message for f in findings
        )

    def test_unregistered_verb_in_sampled_is_ignored(self, tmp_path):
        # Extra strategy coverage is harmless; only missing coverage drifts.
        config = _copy_tree(
            tmp_path,
            strategy=lambda s: s.replace(
                '"protect_request",', '"protect_request",\n            ', 1
            ),
        )
        assert run_drift(config) == []


class TestModelErrors:
    def test_missing_api_module_is_reported(self, tmp_path):
        config = LintConfig(repo_root=str(tmp_path))
        findings = run_drift(config)
        assert findings and all(
            "cannot read api module" in f.message
            for f in findings
            if f.path == config.api_module
        )

    def test_unparseable_api_module_is_reported(self):
        model = ProtocolModel.parse("def broken(:\n", "src/repro/service/api.py")
        assert model.error is not None and "parse" in model.error

    def test_registry_must_be_dict_literal(self):
        model = ProtocolModel.parse(
            "MESSAGE_TYPES = make_registry()\n", "api.py"
        )
        assert model.error == "no MESSAGE_TYPES dict literal found"

    def test_missing_wire_messages_function_reported(self, tmp_path):
        config = _copy_tree(
            tmp_path,
            strategy=lambda s: s.replace("def wire_messages", "def wire_msgs"),
        )
        findings = run_drift(config)
        assert any("wire_messages" in f.message for f in findings)
