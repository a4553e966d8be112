"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "privamov", "--out", "x.csv", "--users", "3"]
        )
        assert args.command == "generate"
        assert args.dataset == "privamov"
        assert args.users == 3

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig7", "--dataset", "mdc"])
        assert args.which == "fig7"

    def test_unknown_dataset_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "nyc", "--out", "x.csv"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_args(self):
        args = build_parser().parse_args(["bench", "micro", "--sizes", "50", "200"])
        assert args.bench_command == "micro"
        assert args.sizes == [50, 200]
        args = build_parser().parse_args(["bench", "smoke", "--skip-tests"])
        assert args.skip_tests

    def test_bench_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        # Retired modes: tier-1 tests and `bench smoke` legs gate what
        # they gated.
        for retired in ("service", "remote", "codec", "cluster", "stream"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["bench", retired])
            assert exc.value.code == 2

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--unix", "/tmp/x.sock", "--users", "3"]
        )
        assert args.command == "serve"
        assert args.unix == "/tmp/x.sock"
        assert args.users == 3
        args = build_parser().parse_args(["serve", "--host", "0.0.0.0", "--port", "0"])
        assert args.port == 0

    def test_serve_refuses_the_retired_inflight_flags(self):
        # A connection is served one request at a time, so there is no
        # server-side in-flight bound left to set; a stale command line
        # fails in argparse instead of being silently accepted.
        for retired in (["--workers", "4"], ["--max-inflight-mib", "64"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["serve", *retired])
            assert exc.value.code == 2

    def test_request_args(self):
        args = build_parser().parse_args(
            ["request", "upload", "--csv", "t.csv", "--day-index", "2"]
        )
        assert args.what == "upload"
        assert args.day_index == 2
        args = build_parser().parse_args(
            ["request", "query", "--lat", "45.0", "--lng", "4.0"]
        )
        assert args.lat == 45.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["request", "teleport"])

    def test_generate_corpus_flag(self):
        args = build_parser().parse_args(
            ["generate", "--corpus", "synth:lyon:10k", "--out", "x.csv"]
        )
        assert args.dataset is None
        assert args.corpus == "synth:lyon:10k"

    def test_bench_scale_args(self):
        args = build_parser().parse_args(["bench", "scale"])
        assert args.bench_command == "scale"
        assert args.tier == "10k"
        assert args.city == "lyon"
        assert args.seed == 7
        args = build_parser().parse_args(
            ["bench", "scale", "--tier", "100k", "--city", "geneva", "--out", "b.json"]
        )
        assert args.tier == "100k"
        assert args.city == "geneva"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "scale", "--tier", "2k"])

    def test_corpus_spec_parsing(self):
        from repro.cli import _corpus_spec_from_arg
        from repro.errors import ConfigurationError

        assert _corpus_spec_from_arg("synth:lyon:10K") == {
            "name": "synth",
            "city": "lyon",
            "tier": "10k",
        }
        assert _corpus_spec_from_arg("synth:paris") == {
            "name": "synth",
            "city": "paris",
        }
        assert _corpus_spec_from_arg("synth") == {"name": "synth"}
        assert _corpus_spec_from_arg("classic:mdc") == {
            "name": "classic",
            "dataset": "mdc",
        }
        assert _corpus_spec_from_arg("privamov") == {
            "name": "classic",
            "dataset": "privamov",
        }
        with pytest.raises(ConfigurationError):
            _corpus_spec_from_arg("synth:lyon:10k:extra")
        with pytest.raises(ConfigurationError):
            _corpus_spec_from_arg("classic:mdc:extra")
        with pytest.raises(ConfigurationError):
            _corpus_spec_from_arg("nyc")

    def test_auth_flags(self):
        args = build_parser().parse_args(["serve", "--auth-key", "s3cret"])
        assert args.auth_key == "s3cret"
        args = build_parser().parse_args(
            ["request", "stats", "--auth-key-file", "/etc/mood.key"]
        )
        assert args.auth_key_file == "/etc/mood.key"

    def test_resolve_auth_key(self, tmp_path):
        from repro.cli import _resolve_auth_key
        from repro.config import ProtectionConfig
        from repro.errors import ConfigurationError

        key_file = tmp_path / "mood.key"
        key_file.write_text("from-file\n")

        def ns(**kw):
            base = {"auth_key": None, "auth_key_file": None}
            base.update(kw)
            import argparse

            return argparse.Namespace(**base)

        assert _resolve_auth_key(ns()) is None
        assert _resolve_auth_key(ns(auth_key="literal")) == b"literal"
        assert _resolve_auth_key(ns(auth_key_file=str(key_file))) == b"from-file"
        with pytest.raises(ConfigurationError, match="not both"):
            _resolve_auth_key(ns(auth_key="a", auth_key_file="b"))
        # CLI flags win over the config's service block.
        cfg = ProtectionConfig(service={"auth_key": "from-config"})
        assert _resolve_auth_key(ns(), cfg) == b"from-config"
        assert _resolve_auth_key(ns(auth_key="flag"), cfg) == b"flag"
        cfg = ProtectionConfig(service={"auth_key_file": str(key_file)})
        assert _resolve_auth_key(ns(), cfg) == b"from-file"


class TestCommands:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(
            ["generate", "privamov", "--out", str(out), "--users", "2", "--days", "2"]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header == "user_id,timestamp,lat,lng"

    def test_generate_synth_corpus_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code = main(
            [
                "generate",
                "--corpus",
                "synth:lyon",
                "--users",
                "3",
                "--days",
                "2",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "3 users" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "user_id,timestamp,lat,lng"
        assert lines[1].startswith("synth-lyon-0000000,")
        # Same spec through the library facade is byte-identical.
        from repro.datasets.io import write_csv_stream
        from repro.synth import CorpusSpec, SynthCorpus

        again = tmp_path / "again.csv"
        spec = CorpusSpec(city="lyon", n_users=3, seed=7, days=2)
        write_csv_stream(SynthCorpus.from_spec(spec).iter_traces(), again)
        assert again.read_bytes() == out.read_bytes()

    def test_generate_without_source_fails(self, capsys):
        code = main(["generate", "--out", "x.csv"])
        assert code != 0

    def test_protect_summary(self, capsys):
        code = main(
            ["protect", "--dataset", "privamov", "--users", "6", "--days", "6", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fully protected" in out
        assert "data loss" in out

    def test_experiment_table1(self, capsys):
        code = main(["experiment", "table1"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_campaign(self, capsys):
        code = main(
            ["campaign", "--dataset", "privamov", "--users", "5", "--days", "4", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count-query fidelity" in out
        assert "mechanism usage" in out

    def test_request_against_live_server(self, tmp_path, capsys):
        import numpy as np

        from repro.core.engine import ProtectionEngine
        from repro.core.trace import Trace
        from repro.core.dataset import MobilityDataset
        from repro.datasets.io import save_csv
        from repro.lppm.base import LPPM
        from repro.service.api import ProtectionService
        from repro.service.rpc import ServiceServer

        class _Noop(LPPM):
            name = "noop"

            def apply(self, trace, rng=None):
                return trace

        class _Never:
            name = "never"

            def reidentify(self, trace):
                return "<nobody>"

        n = 20
        ds = MobilityDataset("cli")
        ds.add(Trace("u", np.arange(n) * 600.0, np.full(n, 45.0), np.full(n, 4.0)))
        csv = tmp_path / "trace.csv"
        save_csv(ds, csv)
        service = ProtectionService(ProtectionEngine([_Noop()], [_Never()]))
        with ServiceServer(service, port=0) as server:
            host, port = server.address
            base = ["request", "--host", host, "--port", str(port)]
            assert main(base[:1] + ["upload"] + base[1:] + ["--csv", str(csv)]) == 0
            assert '"u#0"' in capsys.readouterr().out
            assert main(
                base[:1] + ["query"] + base[1:] + ["--lat", "45.0", "--lng", "4.0"]
            ) == 0
            assert f'"count": {n}' in capsys.readouterr().out
            assert main(base[:1] + ["stats"] + base[1:]) == 0
            assert '"uploads": 1' in capsys.readouterr().out
            # A zero timeout is refused before dialling, not a traceback.
            assert main(base[:1] + ["stats"] + base[1:] + ["--timeout", "0"]) == 2
            assert capsys.readouterr().err.startswith("error: timeout must be")

    def test_bench_micro_writes_snapshot(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "micro", "--sizes", "20", "--out", str(out)])
        assert code == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["mode"] == "micro"
        entry = snapshot["rank_at_users"]["20"]["ap_rank"]
        assert entry["fast_s"] > 0 and entry["reference_s"] > 0
        assert "speedup" in entry
        assert "users_per_second" in snapshot["engine"]
        engine = snapshot["engine"]
        assert 0 < engine["evaluations"] < engine["reference_evaluations"]
        assert "ap_rank" in capsys.readouterr().out


class TestConfigCommands:
    def test_config_example_is_valid_json(self, capsys):
        import json

        code = main(["config", "example"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in data["lppms"]] == ["geoi", "trl", "hmc"]

    def test_config_validate_ok(self, tmp_path, capsys):
        from repro.config import ProtectionConfig

        path = tmp_path / "run.json"
        ProtectionConfig(seed=4).to_file(path)
        code = main(["config", "validate", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out and "geoi" in out

    def test_config_validate_rejects_bad_name(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"lppms": ["laplace"]}')
        code = main(["config", "validate", str(path)])
        assert code == 1
        assert "laplace" in capsys.readouterr().err

    def test_config_validate_rejects_bad_kwargs(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"lppms": [{"name": "geoi", "sigma": 2}]}')
        code = main(["config", "validate", str(path)])
        assert code == 1
        assert "geoi" in capsys.readouterr().err
        # Executor specs are built too, so specs that used to pass here
        # and then fail in protect_dataset are rejected up front.
        remote = '"name": "remote", "endpoints": ["127.0.0.1:1"]'
        for executor in (
            '"async"',
            f'{{{remote}, "shards": 0}}',
            '{"name": "process", "shard": 4}',
            f'{{{remote}, "jobs": -1}}',
            '{"name": "process", "jobs": -3}',
            f'{{{remote}, "shards": 2.7}}',
        ):
            path.write_text(f'{{"executor": {executor}}}')
            assert main(["config", "validate", str(path)]) == 1, executor
            assert "invalid config" in capsys.readouterr().err

    def test_config_validate_rejects_removed_sharded_executor(self, tmp_path, capsys):
        from repro.config import ProtectionConfig
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown executor 'sharded'"):
            ProtectionConfig(executor="sharded").validate()
        path = tmp_path / "sharded.json"
        path.write_text('{"executor": {"name": "sharded", "shards": 4}}')
        assert main(["config", "validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown executor 'sharded'" in err
        assert "['process', 'remote', 'serial']" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"stream": {"refit": "false"}}',
            '{"delta_s": NaN}',
            '{"seed": 2.7}',
            '{"seed": true}',
            '{"seed": "5"}',
            '{"max_composition_length": true}',
            '{"max_composition_length": 2.5}',
            '{"stream": {"window_s": Infinity}}',
            '{"stream": {"gap_s": NaN}}',
            '{"stream": {"max_pending_records": 2.5}}',
            '{"stream": {"max_unacked_windows": true}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "wire": [1, true]}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "wire": [1, 2.7]}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "wire": ["1", "2"]}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "wire": [2]}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "wire": [1, 3]}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "wire": []}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "retry_budget": 2.7}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "retry_budget": true}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "timeout": "5"}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "poll_s": true}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "backoff": {"base": true}}}',
            '{"executor": {"name": "remote", "endpoints": ["127.0.0.1:1"], "join_grace_s": "30"}}',
        ],
    )
    def test_config_validate_checks_values_without_coercing(
        self, tmp_path, capsys, text
    ):
        """Each of these used to pass (coerced to another value) or crash
        with a traceback; now each is a ConfigurationError, exit 1."""
        from repro.config import ProtectionConfig
        from repro.core.engine import ProtectionEngine
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProtectionEngine.from_config(ProtectionConfig.from_json(text))
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["config", "validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid config {path}: ")
        assert "Traceback" not in err

    def test_config_validate_missing_file(self, capsys):
        code = main(["config", "validate", "/no/such/file.json"])
        assert code == 1

    def test_protect_with_config_and_jobs(self, tmp_path, capsys):
        from repro.config import ProtectionConfig

        path = tmp_path / "run.json"
        ProtectionConfig(seed=2).to_file(path)
        code = main(
            [
                "protect", "--dataset", "privamov", "--users", "5", "--days", "5",
                "--seed", "2", "--config", str(path), "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fully protected" in out
