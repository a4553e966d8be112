"""Tests for the elastic work-stealing cluster client.

The bar mirrors the remote executor's: dynamic membership may only
change *who* serves a queued request, never the published bytes — and
the PR 5 never-replay rule survives verbatim (a request whose frame may
have reached an endpoint is never offered to it again).
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.cluster import ElasticClusterClient, MembershipSubscription
from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine, RemoteExecutor, _partition_items
from repro.core.trace import Trace
from repro.datasets.io import to_csv_string
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    TransportError,
)
from repro.lppm.base import LPPM
from repro.service.api import ProtectionService, StatsRequest, StatsResponse
from repro.service.rpc import ServiceClient, ServiceServer

DAY = 86_400.0


class _Shift(LPPM):
    name = "shift"

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + 0.3, trace.lngs)


class _ThresholdAttack:
    name = "atk"

    def reidentify(self, trace):
        if len(trace) and float(np.mean(trace.lats)) - 45.0 >= 0.2:
            return "<confused>"
        return trace.user_id


def mk_engine(**kwargs):
    return ProtectionEngine([_Shift()], [_ThresholdAttack()], **kwargs)


def corpus(n_users=6, days=2, period=3600.0):
    ds = MobilityDataset("elastic-toy")
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


class _CountingService(ProtectionService):
    """Counts served stats requests (thread-safe enough for tests)."""

    def __init__(self, engine):
        super().__init__(engine)
        self.stats_served = 0

    def _stats_sync(self):
        self.stats_served += 1
        return super()._stats_sync()


class _GatedService(_CountingService):
    """Parks every stats request until released."""

    def __init__(self, engine):
        super().__init__(engine)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _stats_sync(self):
        self.entered.set()
        self.release.wait(30.0)
        return super()._stats_sync()


class _ParkingService(ProtectionService):
    """Counts served protect requests; with ``park`` set, parks the
    first one until released (bounded, so a stuck run cannot hang)."""

    def __init__(self, engine, park=False):
        super().__init__(engine)
        self.park = park
        self.entered = threading.Event()
        self.release = threading.Event()
        self.protects_served = 0

    def _protect_sync(self, request):
        if self.park and not self.entered.is_set():
            self.entered.set()
            self.release.wait(30.0)
        reply = super()._protect_sync(request)
        self.protects_served += 1
        return reply


class _KillingService(_CountingService):
    """Counts the arrival, then kills the connection (post-send fault)."""

    async def handle(self, message):
        if isinstance(message, StatsRequest):
            self.stats_served += 1
            raise ConnectionResetError("killed after receipt")
        return await super().handle(message)


@pytest.fixture
def spawn():
    servers = []

    def _spawn(service, **kwargs):
        server = ServiceServer(service, port=0, **kwargs)
        host, port = server.start_background()
        servers.append(server)
        return f"{host}:{port}"

    yield _spawn
    for server in servers:
        server.stop_background()


def stats_batch(n):
    return [(i, StatsRequest()) for i in range(n)]


class TestValidation:
    def test_needs_endpoints_or_membership(self):
        with pytest.raises(ConfigurationError, match="endpoint"):
            ElasticClusterClient([])
        # A subscription alone is a valid (empty-start) configuration.
        sub = MembershipSubscription("127.0.0.1:1")
        assert len(ElasticClusterClient([], membership=sub).health()) == 0

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError, match=">= 1 endpoint"):
            ElasticClusterClient([])
        with pytest.raises(ConfigurationError, match="max_inflight"):
            ElasticClusterClient(["127.0.0.1:1"], max_inflight=0)
        with pytest.raises(ConfigurationError, match="retry_budget"):
            ElasticClusterClient(["127.0.0.1:1"], retry_budget=-1)
        with pytest.raises(ConfigurationError, match="backoff times"):
            ElasticClusterClient(["127.0.0.1:1"], backoff_base=0.0)
        with pytest.raises(ConfigurationError, match="backoff times"):
            ElasticClusterClient(["127.0.0.1:1"], backoff_max=-1.0)
        with pytest.raises(ConfigurationError, match="backoff_factor"):
            ElasticClusterClient(["127.0.0.1:1"], backoff_factor=0.5)
        with pytest.raises(ConfigurationError, match="join_grace_s"):
            ElasticClusterClient(["127.0.0.1:1"], join_grace_s=0.0)

    def test_executor_spec_validation(self):
        with pytest.raises(ConfigurationError, match="endpoint"):
            RemoteExecutor()
        with pytest.raises(ConfigurationError, match="poll_s"):
            RemoteExecutor(coordinator="127.0.0.1:1", poll_s=0.0)
        with pytest.raises(ConfigurationError, match="join_grace_s"):
            RemoteExecutor(coordinator="127.0.0.1:1", join_grace_s=-1.0)
        # Coordinator alone is enough: endpoints become optional seeds.
        executor = RemoteExecutor(coordinator="127.0.0.1:1")
        assert executor.endpoints == [] and executor.shards == 1


class TestStaticDispatch:
    def test_all_requests_answered(self, spawn):
        services = [_CountingService(mk_engine()) for _ in range(2)]
        endpoints = [spawn(s) for s in services]
        client = ElasticClusterClient(endpoints, max_inflight=2)

        async def drive():
            try:
                return await client.run(stats_batch(6))
            finally:
                await client.close()

        replies = asyncio.run(drive())
        assert len(replies) == 6
        assert all(isinstance(r, StatsResponse) for r in replies)
        assert sum(s.stats_served for s in services) == 6
        stats = client.member_stats()
        assert sum(m["requests_served"] for m in stats.values()) == 6

    def test_departed_member_takes_no_work(self, spawn):
        services = [_CountingService(mk_engine()) for _ in range(2)]
        endpoints = [spawn(s) for s in services]
        client = ElasticClusterClient(endpoints, max_inflight=2)
        client.mark_departed(endpoints[0])

        async def drive():
            try:
                return await client.run(stats_batch(4))
            finally:
                await client.close()

        replies = asyncio.run(drive())
        assert all(isinstance(r, StatsResponse) for r in replies)
        assert services[0].stats_served == 0
        assert services[1].stats_served == 4
        assert client.member_stats()[endpoints[0]]["state"] == "departed"

    def test_fully_failed_pool_raises_not_hangs(self, spawn):
        client = ElasticClusterClient(
            ["127.0.0.1:1"], retry_budget=1, backoff_base=0.01
        )

        async def drive():
            try:
                return await client.run(stats_batch(2))
            finally:
                await client.close()

        with pytest.raises(TransportError, match="all 1 endpoints failed"):
            asyncio.run(drive())


class TestStaticEndpointsFollowLoad:
    def test_parked_endpoint_does_not_strand_its_shard(self, spawn):
        """Static endpoints share one work queue: while endpoint A sits
        on one request, B serves every other one — including the rest
        of A's placement shard — and the bytes stay serial."""
        ds = corpus(n_users=6)
        buckets = _partition_items(list(ds.traces()), 2)
        assert sorted(len(bucket) for bucket in buckets.values())[0] >= 2
        reference_csv = to_csv_string(
            mk_engine().protect_dataset(ds, daily=True).published_dataset()
        )
        parked = _ParkingService(mk_engine(), park=True)
        other = _ParkingService(mk_engine())
        engine = mk_engine(
            executor={
                "name": "remote",
                "endpoints": [spawn(parked), spawn(other)],
                "shards": 2,
            },
            jobs=1,
        )
        served_while_parked = []

        def watch():
            # Every wait is bounded: a dispatcher that queues A's shard
            # behind the parked request fails the assertion below
            # after ~10 s instead of hanging.
            try:
                if parked.entered.wait(10.0):
                    deadline = time.monotonic() + 10.0
                    while (
                        other.protects_served < len(ds) - 1
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.005)
                    served_while_parked.append(other.protects_served)
            finally:
                parked.release.set()

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            report = engine.protect_dataset(ds, daily=True)
        finally:
            parked.release.set()
            watcher.join()
        assert served_while_parked == [len(ds) - 1]
        assert parked.protects_served == 1
        assert to_csv_string(report.published_dataset()) == reference_csv


class TestNeverReplay:
    def test_post_send_failure_is_never_replayed(self, spawn):
        """A request whose frame reached an endpoint is marked attempted
        there; with nobody else to serve it, it fails rather than
        replays — the byte-identity rule."""
        service = _KillingService(mk_engine())
        endpoint = spawn(service)
        client = ElasticClusterClient([endpoint], max_inflight=1)

        async def drive():
            try:
                return await client.run(stats_batch(1))
            finally:
                await client.close()

        with pytest.raises(TransportError, match="all 1 endpoints failed"):
            asyncio.run(drive())
        # Exactly one arrival: the killed request was not offered again.
        assert service.stats_served == 1


class TestElasticMembership:
    def test_join_mid_run_steals_queued_work(self, spawn):
        """A joiner starts pulling queued requests; a departing member
        finishes its in-flight request and takes nothing more."""
        service_a = _GatedService(mk_engine())
        service_b = _CountingService(mk_engine())
        endpoint_a = spawn(service_a)
        endpoint_b = spawn(service_b)
        client = ElasticClusterClient([endpoint_a], max_inflight=1)

        async def drive():
            task = asyncio.ensure_future(client.run(stats_batch(5)))
            try:
                # Wait for A to park on its first (and only) request.
                while not service_a.entered.is_set():
                    await asyncio.sleep(0.005)
                client.add_endpoint(endpoint_b)
                client.mark_departed(endpoint_a)
                # The joiner must be able to drain the queue while the
                # leaver is still parked.
                while service_b.stats_served < 4:
                    await asyncio.sleep(0.005)
                service_a.release.set()
                return await task
            finally:
                service_a.release.set()
                await client.close()

        replies = asyncio.run(drive())
        assert all(isinstance(r, StatsResponse) for r in replies)
        assert service_a.stats_served == 1
        assert service_b.stats_served == 4
        stats = client.member_stats()
        assert stats[endpoint_a]["requests_served"] == 1
        assert stats[endpoint_b]["requests_served"] == 4
        assert stats[endpoint_a]["state"] == "departed"

    def test_subscription_discovers_member_mid_run(self, spawn):
        """Empty-start: the run blocks on the grace clock until a worker
        cluster_joins at the coordinator, then completes on it."""
        coordinator = spawn(ProtectionService(mk_engine()))
        worker = _CountingService(mk_engine())
        worker_ep = spawn(worker)
        client = ElasticClusterClient(
            [],
            membership=MembershipSubscription(coordinator, poll_s=0.02),
            max_inflight=2,
            join_grace_s=10.0,
        )

        async def drive():
            task = asyncio.ensure_future(client.run(stats_batch(3)))
            await asyncio.sleep(0.05)  # dispatch is up, nobody to serve
            host, _, port = coordinator.rpartition(":")
            with ServiceClient(host=host, port=int(port)) as control:
                control.cluster_join(worker_ep)
            try:
                return await task
            finally:
                await client.close()

        replies = asyncio.run(drive())
        assert all(isinstance(r, StatsResponse) for r in replies)
        assert worker.stats_served == 3

    def test_empty_cluster_fails_after_grace(self, spawn):
        coordinator = spawn(ProtectionService(mk_engine()))
        client = ElasticClusterClient(
            [],
            membership=MembershipSubscription(coordinator, poll_s=0.02),
            join_grace_s=0.2,
        )

        async def drive():
            try:
                return await client.run(stats_batch(1))
            finally:
                await client.close()

        with pytest.raises(TransportError, match="no servable cluster member"):
            asyncio.run(drive())

    def test_auth_mismatch_is_fatal_fast(self, spawn):
        endpoint = spawn(ProtectionService(mk_engine()), auth_key=b"secret")
        client = ElasticClusterClient([endpoint], max_inflight=1)

        async def drive():
            try:
                return await client.run(stats_batch(2))
            finally:
                await client.close()

        with pytest.raises(AuthenticationError):
            asyncio.run(drive())


class TestTeardown:
    def test_run_ends_despite_a_swallowed_cancellation(self, spawn):
        """Before Python 3.12, asyncio.wait_for swallows a cancellation
        that lands just as its inner future completes, so a polling
        task can outlive one cancel; tearing a run down must still
        finish instead of waiting on it forever."""
        coordinator = spawn(ProtectionService(mk_engine()))
        endpoint = spawn(ProtectionService(mk_engine()))
        client = ElasticClusterClient(
            [endpoint],
            membership=MembershipSubscription(coordinator, poll_s=0.02),
        )
        swallowed = []

        async def stubborn_poll():
            while True:
                try:
                    await asyncio.sleep(0.01)
                except asyncio.CancelledError:
                    if swallowed:
                        raise
                    swallowed.append(True)

        client._membership_loop = stubborn_poll

        async def drive():
            try:
                return await asyncio.wait_for(client.run(stats_batch(2)), 5.0)
            finally:
                await client.close()

        replies = asyncio.run(drive())
        assert all(isinstance(r, StatsResponse) for r in replies)
        assert swallowed == [True]


class TestEngineElasticMode:
    def test_coordinator_discovery_is_byte_identical(self, spawn):
        """The engine's elastic mode (executor spec with 'coordinator')
        publishes serial bytes with members discovered purely through
        the registry."""
        ds = corpus(n_users=4)
        reference_csv = to_csv_string(
            mk_engine().protect_dataset(ds, daily=True).published_dataset()
        )
        coordinator = spawn(ProtectionService(mk_engine()))
        worker_eps = [
            spawn(ProtectionService(mk_engine())),
            spawn(ProtectionService(mk_engine())),
        ]
        host, _, port = coordinator.rpartition(":")
        with ServiceClient(host=host, port=int(port)) as control:
            for endpoint in worker_eps:
                control.cluster_join(endpoint)
        engine = mk_engine(
            executor={
                "name": "remote",
                "coordinator": coordinator,
                "shards": 4,
                "poll_s": 0.05,
            },
            jobs=2,
        )
        report = engine.protect_dataset(ds, daily=True)
        assert to_csv_string(report.published_dataset()) == reference_csv


class TestMembershipEdges:
    """The membership surface outside a running dispatch loop."""

    def test_mark_departed_edges(self):
        pool = ElasticClusterClient(["127.0.0.1:9"])
        assert pool.mark_departed({}) is False  # unparseable spec
        assert pool.mark_departed("127.0.0.1:10") is False  # unknown member
        assert pool.mark_departed("127.0.0.1:9") is True
        assert pool.mark_departed("127.0.0.1:9") is False  # already departed
        assert pool.member_stats()["127.0.0.1:9"]["state"] == "departed"

    def test_re_adding_a_departed_member_revives_it(self):
        pool = ElasticClusterClient(["127.0.0.1:9"])
        assert pool.mark_departed("127.0.0.1:9") is True
        # The same label rejoining clears the departure instead of
        # growing a duplicate entry.
        assert pool.add_endpoint("127.0.0.1:9") is False
        assert pool.member_stats()["127.0.0.1:9"]["state"] == "healthy"
        assert len(pool.member_stats()) == 1
