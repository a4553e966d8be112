"""Tests for the ``remote`` executor: shard dispatch to live servers.

The acceptance bar: the remote backend, driving a loopback cluster of
two real ``ServiceServer`` instances over the wire protocol, publishes
the byte-identical dataset to every local backend — including when one
endpoint dies mid-batch and its shards fail over to the survivor.
"""

import numpy as np
import pytest

from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine, RemoteExecutor, RemoteMoodResult
from repro.core.trace import Trace
from repro.datasets.io import to_csv_string
from repro.errors import ConfigurationError, TransportError
from repro.lppm.base import LPPM
from repro.service.api import ProtectionService
from repro.service.rpc import ServiceServer

DAY = 86_400.0


class _Shift(LPPM):
    """Deterministic record-preserving mechanism."""

    name = "shift"

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + 0.3, trace.lngs)


class _ThresholdAttack:
    """Re-identifies unless the latitude moved by at least 0.2."""

    name = "atk"

    def reidentify(self, trace):
        if len(trace) and float(np.mean(trace.lats)) - 45.0 >= 0.2:
            return "<confused>"
        return trace.user_id


class _AlwaysAttack:
    name = "always"

    def reidentify(self, trace):
        return trace.user_id


def mk_engine(**kwargs):
    return ProtectionEngine([_Shift()], [_ThresholdAttack()], **kwargs)


def corpus(n_users=6, days=2, period=3600.0):
    ds = MobilityDataset("remote-toy")
    n = int(days * DAY / period)
    for i in range(n_users):
        ds.add(
            Trace(
                f"user{i}",
                np.arange(n) * period,
                np.full(n, 45.0) + i * 1e-4,
                np.full(n, 4.0),
            )
        )
    return ds


class _DyingService(ProtectionService):
    """Answers ``die_after`` requests, then kills its connection."""

    def __init__(self, engine, die_after):
        super().__init__(engine)
        self._left = die_after

    async def handle(self, message):
        if self._left <= 0:
            raise ConnectionResetError("endpoint killed mid-batch")
        self._left -= 1
        return await super().handle(message)


@pytest.fixture
def cluster():
    """Two fresh servers; yields a factory so tests pick the services."""
    servers = []

    def spawn(*services):
        endpoints = []
        for service in services:
            server = ServiceServer(service, port=0)
            host, port = server.start_background()
            servers.append(server)
            endpoints.append(f"{host}:{port}")
        return endpoints

    yield spawn
    for server in servers:
        server.stop_background()


class TestRemoteByteIdentity:
    @pytest.mark.parametrize("daily", [False, True], ids=["whole", "daily"])
    @pytest.mark.parametrize(
        "executor",
        [
            "serial",
            "process",
            {"name": "sharded", "shards": 3},
            "remote",
        ],
        ids=lambda e: e if isinstance(e, str) else e["name"],
    )
    def test_every_backend_publishes_identical_bytes(
        self, cluster, executor, daily
    ):
        """Acceptance: remote (2-endpoint cluster) == serial == the rest."""
        ds = corpus()
        reference = mk_engine().protect_dataset(ds, daily=daily)
        reference_csv = to_csv_string(reference.published_dataset())
        if executor == "remote":
            endpoints = cluster(
                ProtectionService(mk_engine()), ProtectionService(mk_engine())
            )
            executor = {"name": "remote", "endpoints": endpoints, "shards": 4}
        engine = mk_engine(executor=executor, jobs=2)
        report = engine.protect_dataset(ds, daily=daily)
        assert to_csv_string(report.published_dataset()) == reference_csv
        assert report.non_protected() == reference.non_protected()
        assert report.data_loss() == reference.data_loss()

    def test_remote_readouts_match_serial(self, cluster):
        """Per-user aggregates survive the wire: loss, distortion, counts."""
        ds = corpus()
        serial = mk_engine().protect_dataset(ds, daily=True)
        endpoints = cluster(
            ProtectionService(mk_engine()), ProtectionService(mk_engine())
        )
        remote = mk_engine(
            executor={"name": "remote", "endpoints": endpoints, "shards": 4},
            jobs=2,
        ).protect_dataset(ds, daily=True)
        assert set(remote.results) == set(serial.results)
        for user, expected in serial.results.items():
            got = remote.results[user]
            assert isinstance(got, RemoteMoodResult)
            assert got.original_records == expected.original_records
            assert got.erased_records == expected.erased_records
            assert got.published_records == expected.published_records
            assert got.data_loss == expected.data_loss
            assert got.fully_protected == expected.fully_protected
            assert got.mean_distortion_m() == expected.mean_distortion_m()

    def test_remote_reports_erasure(self, cluster):
        """Erased records never cross the wire but their counts do."""
        hopeless = ProtectionEngine([_Shift()], [_AlwaysAttack()])
        endpoints = cluster(ProtectionService(hopeless))
        engine = ProtectionEngine(
            [_Shift()],
            [_AlwaysAttack()],
            executor={"name": "remote", "endpoints": endpoints},
        )
        report = engine.protect_dataset(corpus(n_users=2))
        assert report.data_loss() == 1.0
        assert all(not r.pieces for r in report.results.values())


class TestRemoteFailover:
    def test_endpoint_dead_from_the_start(self, cluster):
        """Connection refused on one endpoint: every shard fails over."""
        ds = corpus()
        reference_csv = to_csv_string(
            mk_engine().protect_dataset(ds, daily=True).published_dataset()
        )
        (survivor,) = cluster(ProtectionService(mk_engine()))
        engine = mk_engine(
            executor={
                "name": "remote",
                # Port 1 is never listening: instant connection refused.
                "endpoints": ["127.0.0.1:1", survivor],
                "shards": 4,
            },
            jobs=2,
        )
        report = engine.protect_dataset(ds, daily=True)
        assert to_csv_string(report.published_dataset()) == reference_csv

    def test_endpoint_dies_mid_batch(self, cluster):
        """Satellite: endpoint dies mid-batch → retry on the survivor,
        merged output unchanged."""
        ds = corpus(n_users=8)
        reference_csv = to_csv_string(
            mk_engine().protect_dataset(ds, daily=True).published_dataset()
        )
        endpoints = cluster(
            _DyingService(mk_engine(), die_after=2),
            ProtectionService(mk_engine()),
        )
        engine = mk_engine(
            executor={"name": "remote", "endpoints": endpoints, "shards": 4},
            jobs=2,
        )
        report = engine.protect_dataset(ds, daily=True)
        assert to_csv_string(report.published_dataset()) == reference_csv
        assert set(report.results) == set(ds.user_ids())

    def test_all_endpoints_dead_raises(self):
        engine = mk_engine(
            executor={
                "name": "remote",
                "endpoints": ["127.0.0.1:1", "127.0.0.1:2"],
            }
        )
        with pytest.raises(TransportError, match="all 2 endpoints failed"):
            engine.protect_dataset(corpus(n_users=2))


class TestRemoteConfiguration:
    def test_registered_and_config_validates(self):
        from repro.config import ProtectionConfig
        from repro.registry import available

        assert "remote" in available("executor")
        cfg = ProtectionConfig(
            executor={
                "name": "remote",
                "endpoints": ["10.0.0.1:7464", {"unix": "/tmp/mood.sock"}],
                "shards": 8,
            }
        )
        assert cfg.validate() is cfg
        # The spec round-trips through JSON like any other backend's.
        assert ProtectionConfig.from_json(cfg.to_json()) == cfg

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            RemoteExecutor(endpoints=[])
        with pytest.raises(ConfigurationError):
            RemoteExecutor(endpoints=["h:1"], shards=0)
        with pytest.raises(ConfigurationError):
            RemoteExecutor(endpoints=["h:1"], jobs=0)

    def test_shards_default_to_endpoint_count(self):
        assert RemoteExecutor(endpoints=["h:1", "h:2", "h:3"]).shards == 3

    def test_unsupported_method_is_refused(self):
        executor = RemoteExecutor(endpoints=["127.0.0.1:1"])
        with pytest.raises(ConfigurationError, match="local backend"):
            executor.map(mk_engine(), "_evaluate_mood_one", [], {})

    def test_rehabilitation_spec_round_trips(self):
        """PR 5: retry_budget/backoff/auth keys are declarative."""
        from repro.config import ProtectionConfig

        cfg = ProtectionConfig(
            executor={
                "name": "remote",
                "endpoints": ["10.0.0.1:7464"],
                "retry_budget": 5,
                "backoff": {"base": 0.1, "factor": 3.0, "max": 10.0},
                "auth_key_file": "/etc/mood/cluster.key",
            }
        )
        assert cfg.validate() is cfg
        assert ProtectionConfig.from_json(cfg.to_json()) == cfg

    def test_backoff_spellings(self):
        executor = RemoteExecutor(endpoints=["h:1"], backoff=0.2)
        assert executor.backoff == {"base": 0.2, "factor": 2.0, "max": 2.0}
        executor = RemoteExecutor(endpoints=["h:1"], backoff={"max": 9.0})
        assert executor.backoff["max"] == 9.0
        assert RemoteExecutor(endpoints=["h:1"]).retry_budget == 3

    def test_invalid_backoff_and_auth_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backoff keys"):
            RemoteExecutor(endpoints=["h:1"], backoff={"pause": 1})
        with pytest.raises(ConfigurationError, match="number or a"):
            RemoteExecutor(endpoints=["h:1"], backoff="fast")
        with pytest.raises(ConfigurationError, match="not both"):
            RemoteExecutor(endpoints=["h:1"], auth_key="a", auth_key_file="b")

    def test_from_config_inherits_service_auth(self):
        """A remote spec without its own key inherits config.service."""
        from repro.config import ProtectionConfig
        from repro.core.engine import ProtectionEngine

        cfg = ProtectionConfig(
            executor={"name": "remote", "endpoints": ["10.0.0.1:7464"]},
            service={"auth_key": "cluster-secret"},
        )
        engine = ProtectionEngine.from_config(cfg)
        assert engine.executor["auth_key"] == "cluster-secret"
        # An explicit executor key wins over the service block.
        cfg = ProtectionConfig(
            executor={
                "name": "remote",
                "endpoints": ["10.0.0.1:7464"],
                "auth_key": "own-key",
            },
            service={"auth_key": "cluster-secret"},
        )
        assert ProtectionEngine.from_config(cfg).executor["auth_key"] == "own-key"
        # Local executors are untouched by the service block.
        cfg = ProtectionConfig(service={"auth_key": "cluster-secret"})
        assert ProtectionEngine.from_config(cfg).executor == "serial"


class TestRemoteAuth:
    def test_keyed_cluster_byte_identity(self, cluster, tmp_path):
        """End-to-end: auth_key_file on the spec, keyed servers, and the
        published bytes still match serial."""
        from repro.service.rpc import ServiceServer

        key_path = tmp_path / "cluster.key"
        key_path.write_text("remote-auth-secret\n")
        ds = corpus()
        reference_csv = to_csv_string(
            mk_engine().protect_dataset(ds, daily=True).published_dataset()
        )
        servers = [
            ServiceServer(
                ProtectionService(mk_engine()),
                port=0,
                auth_key=b"remote-auth-secret",
            )
            for _ in range(2)
        ]
        endpoints = []
        try:
            for server in servers:
                host, port = server.start_background()
                endpoints.append(f"{host}:{port}")
            engine = mk_engine(
                executor={
                    "name": "remote",
                    "endpoints": endpoints,
                    "shards": 4,
                    "auth_key_file": str(key_path),
                },
                jobs=2,
            )
            report = engine.protect_dataset(ds, daily=True)
        finally:
            for server in servers:
                server.stop_background()
        assert to_csv_string(report.published_dataset()) == reference_csv

    def test_missing_key_is_a_typed_error(self, cluster):
        """A keyless executor against keyed servers fails with the auth
        ServiceError, not a hang or a transport retry storm."""
        from repro.errors import AuthenticationError, ServiceError
        from repro.service.rpc import ServiceServer

        server = ServiceServer(
            ProtectionService(mk_engine()), port=0, auth_key=b"k"
        )
        host, port = server.start_background()
        try:
            engine = mk_engine(
                executor={"name": "remote", "endpoints": [f"{host}:{port}"]}
            )
            with pytest.raises((ServiceError, AuthenticationError), match="auth"):
                engine.protect_dataset(corpus(n_users=2))
        finally:
            server.stop_background()

    def test_wrong_key_fails_fast(self, cluster):
        """Satellite: a wrong key must raise AuthenticationError straight
        away instead of burning the retry budget endpoint by endpoint."""
        import time as _time

        from repro.errors import AuthenticationError
        from repro.service.rpc import ServiceServer

        server = ServiceServer(
            ProtectionService(mk_engine()), port=0, auth_key=b"right"
        )
        host, port = server.start_background()
        try:
            engine = mk_engine(
                executor={
                    "name": "remote",
                    "endpoints": [f"{host}:{port}"],
                    "auth_key": "wrong",
                    "retry_budget": 50,
                    "backoff": 0.5,
                }
            )
            start = _time.monotonic()
            with pytest.raises(AuthenticationError):
                engine.protect_dataset(corpus(n_users=2))
            # 50 budget x 0.5s backoff would take ~25s; fatal means fast.
            assert _time.monotonic() - start < 5.0
        finally:
            server.stop_background()
