"""Acceptance tests for the ``repro top`` operator surface.

The bar from the issue: ``repro top`` must render live per-endpoint
metrics against a locally spawned two-endpoint cluster, driven as a
real subprocess (the exact artifact an operator runs).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.service.api import ProtectionService
from repro.service.rpc import ServiceClient, ServiceServer

from tests.cluster.test_elastic import mk_engine


@pytest.fixture
def cluster2():
    """Coordinator + two workers, both joined in the registry."""
    servers, endpoints = [], []
    for _ in range(3):
        server = ServiceServer(ProtectionService(mk_engine()), port=0)
        host, port = server.start_background()
        servers.append(server)
        endpoints.append(f"{host}:{port}")
    coordinator, workers = endpoints[0], endpoints[1:]
    host, _, port = coordinator.rpartition(":")
    with ServiceClient(host=host, port=int(port)) as control:
        for worker in workers:
            control.cluster_join(worker, worker_id=f"w{worker}")
    yield coordinator, workers
    for server in servers:
        server.stop_background()


class TestTopSubprocess:
    def test_renders_live_cluster_metrics(self, cluster2):
        coordinator, workers = cluster2
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        src = os.path.abspath(src)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "top",
                "--endpoints",
                ",".join(workers),
                "--coordinator",
                coordinator,
                "--iterations",
                "1",
                "--plain",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert "ENDPOINT" in out and "SERVED" in out and "CACHE" in out
        assert "cluster epoch 2" in out  # two joins
        for worker in workers:
            assert worker in out
        # Both workers answered their metrics probe: state up, and the
        # registry agrees they are alive.
        assert out.count("up/alive") == 2


class TestTopInProcess:
    def test_static_endpoints_only(self, cluster2, capsys):
        _, workers = cluster2
        code = main(
            [
                "top",
                "--endpoints",
                ",".join(workers),
                "--iterations",
                "2",
                "--interval",
                "0.01",
                "--plain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("ENDPOINT") == 2  # two frames
        for worker in workers:
            assert worker in out

    def test_unreachable_endpoint_is_reported_not_fatal(self, capsys):
        code = main(
            [
                "top",
                "--endpoints",
                "127.0.0.1:1",
                "--iterations",
                "1",
                "--plain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unreachable" in out

    def test_needs_a_target(self, capsys):
        code = main(["top", "--iterations", "1"])
        assert code == 2
        assert "--endpoints" in capsys.readouterr().err

    def test_request_metrics_verb(self, cluster2, capsys):
        """After one ``stats`` request, the worker's metrics show the
        transport counters moving and a positive uptime."""
        _, workers = cluster2
        host, _, port = workers[0].rpartition(":")
        with ServiceClient(host=host, port=int(port)) as client:
            client.stats()
        code = main(
            ["request", "metrics", "--host", host, "--port", port]
        )
        out = capsys.readouterr().out
        assert code == 0
        body = json.loads(out)
        assert body["uptime_s"] > 0
        assert body["transport"]["requests_served"] >= 1
        assert "versions" in body
