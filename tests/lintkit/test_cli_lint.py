"""The `mood lint` surface: gate wiring, baseline flow, report output."""

import json
import os

import pytest

import repro
from repro.cli import main

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
)


@pytest.fixture
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


class TestLintCommand:
    def test_list_rules(self, repo_cwd, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "CONC001" in out and "PROTO" not in out

    def test_repo_is_lint_clean(self, repo_cwd, capsys):
        # The acceptance bar: `repro lint` runs clean against the
        # committed (empty) baseline, in the exact CI invocation.
        assert main(["lint", "--format=ci", "--check-baseline"]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_json_report_written_to_out(self, repo_cwd, tmp_path, capsys):
        report = tmp_path / "lint.json"
        assert main(["lint", "--format=json", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "lint-report"
        assert payload["total"] == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "lint-report"

    def test_finding_fails_then_baseline_absorbs_then_goes_stale(
        self, repo_cwd, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.random()\n")
        baseline = str(tmp_path / "baseline.json")

        assert main(["lint", str(bad), "--baseline", baseline]) == 1
        assert "DET001" in capsys.readouterr().out

        assert (
            main(["lint", str(bad), "--baseline", baseline, "--write-baseline"])
            == 0
        )
        assert main(["lint", str(bad), "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

        # The finding is gone (src/ sweep is clean) so the entry is
        # stale: tolerated ad hoc, fatal in CI's shrink-only mode.
        assert main(["lint", "--baseline", baseline]) == 0
        assert main(["lint", "--baseline", baseline, "--check-baseline"]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_outside_repo_root_is_an_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "repository root" in capsys.readouterr().err
