"""Lint core: findings, suppression, alias resolution, drivers."""

import os

import pytest

from repro.lintkit.rules import (
    Finding,
    LintConfig,
    ModuleInfo,
    Rule,
    all_rules,
    iter_py_files,
    lint_paths,
    lint_project,
    lint_source,
    register,
    rule_catalogue,
)


class TestFinding:
    def test_key_is_rule_at_location(self):
        f = Finding("src/a.py", 7, "DET001", "error", "boom")
        assert f.key() == "DET001@src/a.py:7"
        assert f.location == "src/a.py:7"

    def test_to_dict_round_trips_fields(self):
        f = Finding("src/a.py", 7, "DET001", "error", "boom")
        assert f.to_dict() == {
            "rule": "DET001",
            "severity": "error",
            "path": "src/a.py",
            "line": 7,
            "message": "boom",
        }

    def test_ordering_is_path_line_rule(self):
        a = Finding("a.py", 2, "DET001", "error", "m")
        b = Finding("a.py", 1, "DET005", "error", "m")
        c = Finding("b.py", 1, "CONC001", "error", "m")
        assert sorted([c, a, b]) == [b, a, c]


class TestModuleInfo:
    def test_alias_resolution(self):
        mod = ModuleInfo.from_source(
            "import numpy as np\n"
            "from time import time as now\n"
            "import os.path\n",
            "src/x.py",
        )
        assert mod.aliases["np"] == "numpy"
        assert mod.aliases["now"] == "time.time"
        assert mod.aliases["os"] == "os"

    def test_resolve_attribute_chain(self):
        mod = ModuleInfo.from_source(
            "import numpy as np\nnp.random.default_rng(3)\n", "src/x.py"
        )
        call = mod.tree.body[1].value
        assert mod.resolve(call.func) == "numpy.random.default_rng"

    def test_resolve_unresolvable_returns_none(self):
        mod = ModuleInfo.from_source("f()(1)\n", "src/x.py")
        outer = mod.tree.body[0].value
        assert mod.resolve(outer.func) is None

    def test_suppression_table(self):
        mod = ModuleInfo.from_source(
            "x = 1  # lint: allow(DET001, CONC002)\n"
            "y = 2  # lint: allow(*)\n"
            "z = 3\n",
            "src/x.py",
        )
        assert mod.suppressed("DET001", 1)
        assert mod.suppressed("CONC002", 1)
        assert not mod.suppressed("DET004", 1)
        assert mod.suppressed("ANY999", 2)
        assert not mod.suppressed("DET001", 3)


class TestRegistry:
    def test_all_rules_sorted_and_nonempty(self):
        ids = [r.id for r in all_rules()]
        assert ids == sorted(ids)
        assert {"DET001", "CONC001"} <= set(ids)

    def test_catalogue_has_rationales(self):
        for entry in rule_catalogue():
            assert entry["id"] and entry["title"] and entry["rationale"]
            assert "\n" not in entry["rationale"]

    def test_register_rejects_missing_id(self):
        class NoId(Rule):
            pass

        with pytest.raises(ValueError, match="no rule id"):
            register(NoId)

    def test_register_rejects_duplicate_id(self):
        class Dup(Rule):
            id = "DET001"

        with pytest.raises(ValueError, match="duplicate"):
            register(Dup)

    def test_register_rejects_bad_severity(self):
        class BadSev(Rule):
            id = "TST901"
            severity = "fatal"

        with pytest.raises(ValueError, match="severity"):
            register(BadSev)


class TestDrivers:
    def test_lint_source_reports_syntax_error(self):
        findings = lint_source("def broken(:\n", "src/bad.py")
        assert len(findings) == 1
        assert findings[0].rule == "LINT000"
        assert "does not parse" in findings[0].message

    def test_lint_paths_walks_sorted_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text("import time\ntime.time()\n")
        (pkg / "a.py").write_text("x = 1\n")
        config = LintConfig(repo_root=str(tmp_path))
        findings = lint_paths([str(tmp_path / "src")], config)
        assert [f.rule for f in findings] == ["DET002"]
        assert findings[0].path == "src/repro/core/b.py"

    def test_iter_py_files_deterministic(self, tmp_path):
        for name in ("z.py", "a.py", "m.txt"):
            (tmp_path / name).write_text("")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "c.py").write_text("")
        rel = [os.path.relpath(p, tmp_path) for p in iter_py_files(str(tmp_path))]
        assert rel == ["a.py", "z.py", os.path.join("pkg", "c.py")]

    def test_lint_project_rule_subset(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text("import time\ntime.time()\n")
        config = LintConfig(repo_root=str(tmp_path), publish_paths=("src",))
        det = [r for r in all_rules() if r.id == "DET002"]
        findings = lint_project(config, rules=det)
        assert [f.rule for f in findings] == ["DET002"]
