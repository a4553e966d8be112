"""Tests for repro.config — the declarative ProtectionConfig."""

import json
import math

import pytest

from repro.config import ProtectionConfig
from repro.errors import ConfigurationError
from repro.registry import build


class TestDefaults:
    def test_paper_defaults_validate(self):
        cfg = ProtectionConfig.paper_defaults()
        assert [s["name"] for s in cfg.lppms] == ["geoi", "trl", "hmc"]
        # Screen order: the attack that re-identifies most candidates first.
        assert [s["name"] for s in cfg.attacks] == ["ap", "pit", "poi"]
        assert cfg.delta_s == 4 * 3600.0
        assert cfg.executor == "serial"

    def test_specs_normalised_to_dicts(self):
        cfg = ProtectionConfig(lppms=["geoi"], attacks=[{"name": "poi"}])
        assert cfg.lppms == [{"name": "geoi"}]
        assert cfg.attacks == [{"name": "poi"}]

    def test_search_strategy_normalised(self):
        cfg = ProtectionConfig(search_strategy="greedy")
        assert cfg.search_strategy == {"name": "greedy"}


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        cfg = ProtectionConfig(
            lppms=[{"name": "geoi", "epsilon": 0.02}, "trl"],
            attacks=["poi", "ap"],
            delta_s=7200.0,
            split_policy="gap",
            search_strategy={"name": "greedy", "alpha": 2.0},
            executor="process",
            jobs=4,
            seed=99,
        ).validate()
        assert ProtectionConfig.from_json(cfg.to_json()) == cfg

    def test_to_dict_is_plain_json(self):
        data = ProtectionConfig().to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        cfg = ProtectionConfig(seed=7)
        cfg.to_file(path)
        assert ProtectionConfig.from_file(path) == cfg


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="deltas"):
            ProtectionConfig.from_dict({"deltas": 3600.0})

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigurationError, match="laplace"):
            ProtectionConfig(lppms=["laplace"]).validate()
        with pytest.raises(ConfigurationError, match="mmc"):
            ProtectionConfig(attacks=["mmc"]).validate()

    def test_empty_suites_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig(lppms=[])
        with pytest.raises(ConfigurationError):
            ProtectionConfig(attacks=[])

    def test_bad_numbers_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig(delta_s=0.0).validate()
        with pytest.raises(ConfigurationError):
            ProtectionConfig(jobs=0).validate()
        with pytest.raises(ConfigurationError):
            ProtectionConfig(max_composition_length=0).validate()

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "pit", "diameter_m": math.nan},
            {"name": "pit", "min_dwell_s": math.nan},
            {"name": "pit", "max_states": 0},
            {"name": "pit", "distance": "euclid"},
            {"name": "poi", "diameter_m": math.inf},
            {"name": "poi", "diameter_m": math.nan},
            {"name": "poi", "min_dwell_s": math.inf},
            {"name": "poi", "max_pois": 0},
            {"name": "poi", "max_pois": 2.5},
        ],
        ids=lambda spec: ",".join(f"{k}={v}" for k, v in spec.items()),
    )
    def test_attack_params_that_switch_it_off_rejected(self, spec):
        # Each of these once built an attack that profiled nobody.
        with pytest.raises(ConfigurationError):
            build("attack", spec)

    def test_bad_split_policy_and_executor(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig(split_policy="zigzag").validate()
        with pytest.raises(ConfigurationError):
            ProtectionConfig(executor="gpu").validate()
        with pytest.raises(ConfigurationError):
            ProtectionConfig(executor={"name": "gpu"}).validate()
        with pytest.raises(ConfigurationError):
            ProtectionConfig(executor=42).validate()

    def test_executor_spec_dict_round_trips(self):
        spec = {"name": "remote", "endpoints": ["10.0.0.1:7464"], "shards": 8}
        cfg = ProtectionConfig(executor=spec).validate()
        assert cfg.executor == spec
        assert ProtectionConfig.from_json(cfg.to_json()) == cfg
        assert "remote" in cfg.describe()

    def test_new_executor_names_validate(self):
        for name in ("process", "remote"):
            assert ProtectionConfig(executor=name).validate().executor == name

    def test_infinite_delta_s_is_kept(self):
        # +inf is a valid floor (never split); only NaN and <= 0 are not.
        assert ProtectionConfig.from_json('{"delta_s": Infinity}').delta_s == math.inf

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig.from_json("{not json")

    def test_seed_null_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ProtectionConfig.from_dict({"seed": None})

    def test_jobs_null_means_all_cores(self):
        cfg = ProtectionConfig.from_dict({"jobs": None, "executor": "process"})
        assert cfg.jobs is None

    def test_describe_mentions_components(self):
        text = ProtectionConfig.paper_defaults().describe()
        assert "geoi" in text and "poi" in text and "serial" in text


class TestServiceBlock:
    """PR 5: the `service` config block (auth key management)."""

    def test_defaults_to_none_and_round_trips(self):
        cfg = ProtectionConfig()
        assert cfg.service is None
        assert cfg.to_dict()["service"] is None
        assert ProtectionConfig.from_json(cfg.to_json()) == cfg

    def test_auth_key_file_round_trips(self):
        cfg = ProtectionConfig(service={"auth_key_file": "/etc/mood/cluster.key"})
        assert cfg.validate() is cfg
        assert ProtectionConfig.from_json(cfg.to_json()) == cfg
        assert "shared-secret" in cfg.describe()

    def test_literal_auth_key_accepted(self):
        cfg = ProtectionConfig(service={"auth_key": "hunter2"})
        assert cfg.validate() is cfg

    def test_unknown_service_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown service keys"):
            ProtectionConfig(service={"auth_keyfile": "x"}).validate()

    def test_both_key_forms_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ProtectionConfig(
                service={"auth_key": "a", "auth_key_file": "b"}
            ).validate()

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty string"):
            ProtectionConfig(service={"auth_key": ""}).validate()
        with pytest.raises(ConfigurationError, match="non-empty string"):
            ProtectionConfig(service={"auth_key_file": 7}).validate()

    def test_describe_off_without_service(self):
        assert "auth   : off" in ProtectionConfig().describe()


class TestClusterBlock:
    """PR 8: the `service.cluster` block (worker announce settings)."""

    def test_round_trips_and_describes(self):
        cfg = ProtectionConfig(
            service={
                "cluster": {
                    "coordinator": "10.0.0.5:7464",
                    "advertise": "10.0.0.9:7464",
                    "heartbeat_s": 2.5,
                }
            }
        )
        assert cfg.validate() is cfg
        assert ProtectionConfig.from_json(cfg.to_json()) == cfg
        assert "cluster        : join 10.0.0.5:7464" in cfg.describe()

    def test_coordinator_alone_is_enough(self):
        cfg = ProtectionConfig(
            service={"cluster": {"coordinator": "10.0.0.5:7464"}}
        )
        assert cfg.validate() is cfg

    def test_must_be_a_dict(self):
        with pytest.raises(ConfigurationError, match="must be a dict"):
            ProtectionConfig(service={"cluster": "10.0.0.5:7464"}).validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown service.cluster"):
            ProtectionConfig(
                service={"cluster": {"coordinator": "a:1", "hartbeat_s": 1}}
            ).validate()

    def test_coordinator_required_and_non_empty(self):
        with pytest.raises(ConfigurationError, match="coordinator"):
            ProtectionConfig(service={"cluster": {}}).validate()
        with pytest.raises(ConfigurationError, match="non-empty string"):
            ProtectionConfig(service={"cluster": {"coordinator": ""}}).validate()
        with pytest.raises(ConfigurationError, match="non-empty string"):
            ProtectionConfig(
                service={"cluster": {"coordinator": "a:1", "advertise": 7}}
            ).validate()

    def test_heartbeat_must_be_positive_number(self):
        for bad in (0, -1.0, "2", True):
            with pytest.raises(ConfigurationError, match="heartbeat_s"):
                ProtectionConfig(
                    service={
                        "cluster": {"coordinator": "a:1", "heartbeat_s": bad}
                    }
                ).validate()

    def test_describe_off_without_cluster(self):
        assert "cluster        : off" in ProtectionConfig().describe()
