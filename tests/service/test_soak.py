"""Chaos soak matrix: executors × injected wire faults (PR 5 tentpole).

Acceptance: for every fault class (drop, delay, truncate, corrupt,
mid-reply disconnect, flap-and-rejoin) the remote executor either
completes **byte-identical to serial** or raises a typed error — no
hangs, no silent data divergence.  The local executors (serial /
process) are the control row of the matrix: no wire, same bytes.

The faults are injected by :class:`tests.service.chaos.ChaosProxy`, a
TCP relay between the cluster client and one of the two endpoints; the
other endpoint stays healthy so failed-over requests have somewhere to
go (except in the flap-and-rejoin leg, which deliberately runs a
single-endpoint cluster so the batch *must* wait for the endpoint to
come back).
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.cluster import ElasticClusterClient
from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import TransportError
from repro.lppm.base import LPPM
from repro.service.api import LoopbackClient, ProtectionService, StatsRequest
from repro.service.rpc import ServiceClient, ServiceServer
from repro.stream import StreamConfig
from repro.datasets.io import to_csv_string

from tests.service.chaos import FAULTS, ChaosProxy
from tests.service.test_stream import assert_pieces_equal, rows

DAY = 86_400.0
AUTH_KEY = "chaos-cluster-key"


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


def corpus(n_users=8, days=2, period=3600.0):
    ds = MobilityDataset("chaos-soak")
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


@pytest.fixture(scope="module")
def soak_corpus():
    return corpus()


@pytest.fixture(scope="module")
def reference_csv(soak_corpus):
    report = mk_engine().protect_dataset(soak_corpus, daily=True)
    return to_csv_string(report.published_dataset())


@pytest.fixture
def servers():
    spawned = []

    def spawn(service, **kwargs):
        server = ServiceServer(service, port=0, **kwargs)
        host, port = server.start_background()
        spawned.append(server)
        return host, port

    yield spawn
    for server in spawned:
        server.stop_background()


def remote_spec(endpoints, **overrides):
    spec = {
        "name": "remote",
        "endpoints": list(endpoints),
        "shards": 4,
        "retry_budget": 5,
        "backoff": {"base": 0.03, "factor": 2.0, "max": 0.5},
        "timeout": 1.5,
        # ChaosProxy is v1-line frame-aware (see chaos.py): stay on v1
        # so fault ordinals hit the replies the matrix targets.
        "wire": [1],
    }
    spec.update(overrides)
    return spec


class TestChaosMatrix:
    """The parametrized fault matrix of the tentpole."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_local_executors_byte_identical(
        self, soak_corpus, reference_csv, executor
    ):
        """Control row: no wire to disturb, identical bytes."""
        engine = mk_engine(executor=executor, jobs=2)
        report = engine.protect_dataset(soak_corpus, daily=True)
        assert to_csv_string(report.published_dataset()) == reference_csv

    @pytest.mark.parametrize("fault", [f for f in FAULTS if f != "none"] + ["none"])
    def test_remote_byte_identical_under_fault(
        self, soak_corpus, reference_csv, servers, fault
    ):
        """Each fault class hits mid-batch; the published bytes must not."""
        host, port = servers(ProtectionService(mk_engine()))
        direct_host, direct_port = servers(ProtectionService(mk_engine()))
        with ChaosProxy(
            host, port, fault=fault, after_replies=3, n_faults=2, delay_s=0.2
        ) as proxy:
            engine = mk_engine(
                executor=remote_spec(
                    [proxy.endpoint, f"{direct_host}:{direct_port}"]
                ),
                jobs=4,
            )
            report = engine.protect_dataset(soak_corpus, daily=True)
            assert to_csv_string(report.published_dataset()) == reference_csv
            if fault != "none":
                assert proxy.faults_injected >= 1, "the fault never fired"

    @pytest.mark.parametrize("fault", ["corrupt", "disconnect"])
    def test_persistently_faulty_endpoint_fails_over(
        self, soak_corpus, reference_csv, servers, fault
    ):
        """An endpoint that faults on *every* reply is eventually retired
        (budget exhausted) and the batch completes on the survivor."""
        host, port = servers(ProtectionService(mk_engine()))
        direct_host, direct_port = servers(ProtectionService(mk_engine()))
        with ChaosProxy(host, port, fault=fault, after_replies=0, n_faults=10_000) as proxy:
            engine = mk_engine(
                executor=remote_spec(
                    [proxy.endpoint, f"{direct_host}:{direct_port}"],
                    retry_budget=2,
                ),
                jobs=4,
            )
            report = engine.protect_dataset(soak_corpus, daily=True)
            assert to_csv_string(report.published_dataset()) == reference_csv

    def test_chaos_with_auth_enabled(self, soak_corpus, reference_csv, servers):
        """The handshake relays through the chaos path, and a corrupted
        reply after authentication still fails over byte-identically."""
        key = AUTH_KEY.encode("utf-8")
        host, port = servers(ProtectionService(mk_engine()), auth_key=key)
        direct_host, direct_port = servers(
            ProtectionService(mk_engine()), auth_key=key
        )
        with ChaosProxy(
            host, port, fault="corrupt", after_replies=4, n_faults=1
        ) as proxy:
            engine = mk_engine(
                executor=remote_spec(
                    [proxy.endpoint, f"{direct_host}:{direct_port}"],
                    auth_key=AUTH_KEY,
                ),
                jobs=4,
            )
            report = engine.protect_dataset(soak_corpus, daily=True)
            assert to_csv_string(report.published_dataset()) == reference_csv


class TestFlapAndRejoin:
    def test_single_endpoint_flap_rejoins_mid_batch(
        self, soak_corpus, reference_csv, servers
    ):
        """The rehabilitation acceptance leg: the only endpoint is down
        when the batch starts and comes up mid-batch.  Under permanent
        retirement (the PR-4 behaviour) this batch could never finish;
        with probation it completes byte-identically."""
        service = ProtectionService(mk_engine())
        host, port = servers(service)
        with ChaosProxy(host, port, start_down=True) as proxy:
            assert not proxy.is_up
            timer = threading.Timer(0.25, proxy.go_up)
            timer.start()
            try:
                engine = mk_engine(
                    executor=remote_spec(
                        [proxy.endpoint],
                        retry_budget=20,
                        backoff={"base": 0.05, "factor": 1.5, "max": 0.3},
                    ),
                    jobs=4,
                )
                report = engine.protect_dataset(soak_corpus, daily=True)
            finally:
                timer.cancel()
            assert to_csv_string(report.published_dataset()) == reference_csv
            # The endpoint really was dialled only after it came back,
            # and it protected the batch: at least one chunk per user.
            assert proxy.connections_accepted >= 1
            assert service.proxy.stats.chunks_processed >= len(soak_corpus)

    def test_two_endpoint_flap_heals_without_divergence(
        self, soak_corpus, reference_csv, servers
    ):
        """Flap one endpoint of a pair mid-batch: shards fail over to the
        survivor, the flapper rejoins for later probes, bytes unchanged."""
        host, port = servers(ProtectionService(mk_engine()))
        direct_host, direct_port = servers(ProtectionService(mk_engine()))
        with ChaosProxy(host, port) as proxy:
            down = threading.Timer(0.05, proxy.go_down)
            up = threading.Timer(0.35, proxy.go_up)
            down.start()
            up.start()
            try:
                engine = mk_engine(
                    executor=remote_spec(
                        [proxy.endpoint, f"{direct_host}:{direct_port}"]
                    ),
                    jobs=4,
                )
                report = engine.protect_dataset(soak_corpus, daily=True)
            finally:
                down.cancel()
                up.cancel()
            assert to_csv_string(report.published_dataset()) == reference_csv


class TestRehabilitationStateMachine:
    """healthy → probation → retired, pinned at the cluster-client level."""

    @staticmethod
    def only_member(cluster):
        (member,) = cluster._members.values()
        return member

    def test_budget_exhaustion_retires_dead_endpoint(self):
        async def scenario():
            # Nothing listens on port 1: every dial fails instantly.
            cluster = ElasticClusterClient(
                ["127.0.0.1:1"], retry_budget=2, backoff_base=0.01, backoff_max=0.02
            )
            try:
                with pytest.raises(TransportError, match="all 1 endpoints failed"):
                    await cluster.run([(0, StatsRequest())])
                health = cluster.health()["127.0.0.1:1"]
                assert health.retired
                assert health.failures == 3  # budget 2 -> third strike retires
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_backoff_grows_exponentially_and_caps(self):
        cluster = ElasticClusterClient(
            ["127.0.0.1:1"],
            retry_budget=10,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=0.5,
        )
        member = self.only_member(cluster)
        health = cluster.health()["127.0.0.1:1"]
        delays = []
        for _ in range(5):
            cluster._record_failure(member, None)
            delays.append(health.available_at - time.monotonic())
        # ~0.1, 0.2, 0.4, then capped at 0.5.
        assert 0.05 < delays[0] < 0.15
        assert 0.15 < delays[1] < 0.25
        assert 0.35 < delays[2] < 0.45
        assert 0.45 < delays[3] <= 0.55
        assert 0.45 < delays[4] <= 0.55
        assert not health.retired

    def test_success_rehabilitates(self):
        cluster = ElasticClusterClient(
            ["127.0.0.1:1"], retry_budget=10, backoff_base=0.1
        )
        member = self.only_member(cluster)
        cluster._record_failure(member, None)
        cluster._record_failure(member, None)
        health = cluster.health()["127.0.0.1:1"]
        assert health.failures == 2
        assert cluster.member_stats()["127.0.0.1:1"]["state"] == "probation"
        cluster._record_success(member)
        assert health.failures == 0
        assert health.available_at == 0.0
        assert not health.retired
        assert cluster.member_stats()["127.0.0.1:1"]["state"] == "healthy"

    def test_one_dead_connection_counts_one_failure(self, servers):
        """Many in-flight requests on one poisoned connection must burn
        ONE budget point, not one per request."""
        host, port = servers(ProtectionService(mk_engine()))
        with ChaosProxy(host, port, fault="disconnect", after_replies=0) as proxy:

            async def scenario():
                cluster = ElasticClusterClient(
                    [proxy.endpoint],
                    max_inflight=4,
                    retry_budget=3,
                    backoff_base=0.01,
                    wire_versions=(1,),
                )
                try:
                    with pytest.raises(TransportError):
                        await cluster.run([(0, StatsRequest()) for _ in range(4)])
                    health = cluster.health()[proxy.endpoint]
                    assert health.failures == 1
                    assert not health.retired
                finally:
                    await cluster.close()

            asyncio.run(scenario())

    def test_unencodable_message_does_not_blame_the_endpoint(self, servers):
        """Regression (review finding): a NaN-tainted trace fails at
        encode time, before any frame leaves the process — it must
        propagate as ProtocolError and leave the endpoint's budget and
        health untouched."""
        from repro.errors import ProtocolError
        from repro.service.api import ProtectRequest

        host, port = servers(ProtectionService(mk_engine()))
        endpoint = f"{host}:{port}"
        poisoned = ProtectRequest(
            trace=Trace("nan-user", [0.0], [float("nan")], [4.0])
        )

        async def scenario():
            cluster = ElasticClusterClient([endpoint], retry_budget=3)
            try:
                with pytest.raises(ProtocolError, match="non-finite"):
                    await cluster.run([(0, poisoned)])
                health = cluster.health()[endpoint]
                assert health.failures == 0
                assert not health.retired
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_broken_while_queued_stays_retryable(self, servers):
        """Regression (review finding): a request whose connection died
        after the pool handed it out but before its frame was sent must
        retry the endpoint after probation, not mark it attempted and
        abort with 'all endpoints failed'."""
        from repro.service.api import ErrorEnvelope

        host, port = servers(ProtectionService(mk_engine()))
        endpoint = f"{host}:{port}"

        async def scenario():
            cluster = ElasticClusterClient(
                [endpoint],
                max_inflight=1,
                retry_budget=5,
                backoff_base=0.02,
            )
            connect = cluster._connect
            poisoned = []

            async def connect_then_flap(member):
                client = await connect(member)
                if not poisoned:
                    # The cached connection dies before the request's
                    # frame goes out.
                    client._poison("simulated mid-batch flap", None)
                    poisoned.append(client)
                return client

            cluster._connect = connect_then_flap
            try:
                (reply,) = await asyncio.wait_for(
                    cluster.run([(0, StatsRequest())]), 10.0
                )
                assert not isinstance(reply, ErrorEnvelope)
                assert len(poisoned) == 1
                health = cluster.health()[endpoint]
                assert not health.retired
                assert health.failures == 0  # rehabilitated by the retry
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_rejoined_endpoint_serves_via_cluster_client(self, servers):
        """Request-level flap: the first dial is refused (probation), the
        endpoint comes up, the SAME request succeeds on the rejoined
        endpoint — dial-phase failures stay retryable in place."""
        host, port = servers(ProtectionService(mk_engine()))
        with ChaosProxy(host, port, start_down=True) as proxy:
            timer = threading.Timer(0.15, proxy.go_up)
            timer.start()

            async def scenario():
                cluster = ElasticClusterClient(
                    [proxy.endpoint],
                    retry_budget=20,
                    backoff_base=0.05,
                    backoff_factor=1.5,
                    backoff_max=0.2,
                    wire_versions=(1,),
                )
                try:
                    replies = await cluster.run([(0, StatsRequest())])
                    assert len(replies) == 1
                    health = cluster.health()[proxy.endpoint]
                    assert health.failures == 0  # success reset the state
                    assert not health.retired
                finally:
                    await cluster.close()

            try:
                asyncio.run(scenario())
            finally:
                timer.cancel()
            assert proxy.connections_accepted >= 1


class TestStreamSoak:
    """Streaming legs of the soak matrix (PR 7 tentpole acceptance).

    Each leg drives the ``stream_*`` verbs through :class:`ChaosProxy`
    faults and pins the survivor behaviour: resume-from-watermark after
    a mid-window disconnect, idempotent flush after a lost reply, and
    bounded buffers with visible reason codes under sustained overload.
    """

    @staticmethod
    def stream_trace(user="soak-stream", n=240, seed=17):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.uniform(0.0, 3 * DAY, n))
        return Trace(
            user, ts, 45.0 + rng.normal(0, 0.02, n), 4.0 + rng.normal(0, 0.02, n)
        )

    @staticmethod
    def batch_reference(trace):
        with LoopbackClient(ProtectionService(mk_engine())) as client:
            return client.protect(trace, daily=True).pieces

    @staticmethod
    def proxy_client(proxy, timeout=5.0):
        host, port = proxy.endpoint.rsplit(":", 1)
        # Pinned to v1: ChaosProxy only understands JSON-lines framing.
        return ServiceClient(
            host=host, port=int(port), timeout=timeout, wire_versions=(1,)
        )

    def test_mid_window_disconnect_resumes_from_watermark(self, servers):
        """The acceptance leg: the wire dies mid-window, the client
        reconnects, resumes from the last acked watermark, and the
        flushed output is byte-identical to the batch path."""
        trace = self.stream_trace()
        host, port = servers(ProtectionService(mk_engine()))
        with ChaosProxy(
            host, port, fault="disconnect", after_replies=3, n_faults=1
        ) as proxy:
            client = self.proxy_client(proxy)
            try:
                client.stream_open(trace.user_id)
                with pytest.raises(TransportError):
                    for start in range(0, len(trace), 24):
                        client.stream_record(
                            trace.user_id, rows(trace, start, start + 24)
                        )
                    client.stream_flush(trace.user_id, close_window=True)
                assert proxy.faults_injected >= 1
                # Reconnect through the (now clean) proxy and resume.
                client.reconnect()
                reopened = client.stream_open(trace.user_id, resume=True)
                assert reopened.resumed
                client.stream_record(
                    trace.user_id, rows(trace, reopened.watermark + 1)
                )
                flushed = client.stream_flush(trace.user_id, close_window=True)
                client.stream_close(trace.user_id)
            finally:
                client.close()
        assert_pieces_equal(flushed.pieces, self.batch_reference(trace))

    def test_lost_flush_reply_recovered_by_reflush(self, servers):
        """The flush executes server-side but its reply is dropped on the
        wire: the client times out, reconnects, re-flushes, and receives
        the same pieces (idempotent until acked) — no loss, no dupes."""
        trace = self.stream_trace(n=120, seed=19)
        host, port = servers(ProtectionService(mk_engine()))
        with ServiceClient(host=host, port=port) as feeder:
            feeder.stream_open(trace.user_id)
            feeder.stream_record(trace.user_id, rows(trace))
        with ChaosProxy(
            host, port, fault="drop", after_replies=0, n_faults=1
        ) as proxy:
            lossy = self.proxy_client(proxy, timeout=1.0)
            try:
                with pytest.raises(TransportError):
                    lossy.stream_flush(trace.user_id, close_window=True)
                assert proxy.faults_injected >= 1
                # The window DID close server-side; a re-flush on a fresh
                # connection returns the identical piece log.
                lossy.reconnect()
                flushed = lossy.stream_flush(trace.user_id)
            finally:
                lossy.close()
        assert_pieces_equal(flushed.pieces, self.batch_reference(trace))

    @pytest.mark.parametrize("fault", ["throttle", "delay_ack"])
    def test_degraded_wire_still_byte_identical(self, servers, fault):
        """A slow-consumer trickle (throttle) or a late out-of-order ack
        (delay_ack) slows the stream but never changes its bytes."""
        trace = self.stream_trace(n=120, seed=23)
        host, port = servers(ProtectionService(mk_engine()))
        with ChaosProxy(
            host, port, fault=fault, after_replies=1, n_faults=2, delay_s=0.2
        ) as proxy:
            with self.proxy_client(proxy, timeout=10.0) as client:
                client.stream_open(trace.user_id)
                for start in range(0, len(trace), 40):
                    client.stream_record(
                        trace.user_id, rows(trace, start, start + 40)
                    )
                flushed = client.stream_flush(trace.user_id, close_window=True)
            assert proxy.faults_injected >= 1
        assert_pieces_equal(flushed.pieces, self.batch_reference(trace))

    def test_sustained_overload_sheds_with_reason_and_recovers(self, servers):
        """2x overload against a small bound: the buffer never exceeds its
        declared size, shedding engages with a visible reason code, and
        once pressure lifts the stream acks ``ok`` again."""
        stream_cfg = StreamConfig(
            overflow="shed", max_pending_records=64, window_s=1e9
        )
        host, port = servers(ProtectionService(mk_engine(), stream=stream_cfg))
        with ServiceClient(host=host, port=port) as client:
            client.stream_open("firehose")
            sent, shed_acks = 0, 0
            for _ in range(30):  # each burst is 2x the whole buffer
                batch = [
                    (sent + i, (sent + i) * 60.0, 45.0, 4.0) for i in range(128)
                ]
                ack = client.stream_record("firehose", batch)
                sent = ack.next_ordinal
                if ack.status == "shed":
                    shed_acks += 1
                    assert ack.reason == "overflow.shed_oldest_window"
                assert client.stats().stream["records_pending"] <= 64
            assert shed_acks > 0
            stats = client.stats()
            assert stats.stream["overflow_events"]["overflow.shed_oldest_window"] >= 1
            # Pressure lifts: drain the open window, normal rate acks ok.
            client.stream_flush("firehose", close_window=True)
            ack = client.stream_record(
                "firehose", [(sent, sent * 60.0, 45.0, 4.0)]
            )
            assert ack.status == "ok"


class _GatedProtect(ProtectionService):
    """Parks the first protect request until released, pinning the batch
    provably mid-dispatch while the membership churn happens around it —
    no timing race, CI-deterministic."""

    def __init__(self, engine):
        super().__init__(engine)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _protect_sync(self, request):
        self.entered.set()
        self.release.wait(60.0)
        return super()._protect_sync(request)


class TestMembershipChurnSoak:
    """Elastic-membership rows of the soak matrix (PR 8 acceptance).

    The bar: a worker JOINS and a *different* endpoint LEAVES mid-batch
    — alone, and composed with the wire faults of the PR 5 chaos matrix
    — and the published dataset stays byte-identical to serial.  The
    gate makes "mid-batch" a provable program state: worker A parks its
    first protect request (its only in-flight slot at ``jobs=1``), so
    the churn lands while the rest of the batch is still queued, and A
    is released only once the joiner has demonstrably served a chunk.
    """

    @staticmethod
    def control(coordinator):
        host, _, port = coordinator.rpartition(":")
        return ServiceClient(host=host, port=int(port), timeout=10.0)

    def churn_run(
        self, soak_corpus, coordinator, service_a, endpoint_a, service_b, join_eps
    ):
        """Protect the corpus elastically while the ``join_eps`` workers
        join and A leaves, all mid-batch."""
        fired = threading.Event()

        def churn():
            if not service_a.entered.wait(60.0):
                service_a.release.set()
                return
            with self.control(coordinator) as client:
                for join_ep in join_eps:
                    client.cluster_join(join_ep)
                client.cluster_leave(endpoint_a)
            fired.set()
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if service_b.proxy.stats.chunks_processed >= 1:
                    break
                time.sleep(0.005)
            service_a.release.set()

        watcher = threading.Thread(target=churn, daemon=True)
        watcher.start()
        try:
            engine = mk_engine(
                executor={
                    "name": "remote",
                    "coordinator": coordinator,
                    "shards": 4,
                    "poll_s": 0.05,
                    # Joiners may sit behind a ChaosProxy (v1-line
                    # frame-aware): keep the whole pool on v1.
                    "wire": [1],
                },
                jobs=1,  # A's parked request occupies its only slot
            )
            report = engine.protect_dataset(soak_corpus, daily=True)
        finally:
            service_a.release.set()
            watcher.join(5.0)
        assert fired.is_set(), "the churn trigger never fired"
        return report

    def test_join_and_leave_mid_batch_byte_identical(
        self, soak_corpus, reference_csv, servers
    ):
        """The core leg: only A is registered when dispatch starts; B
        joins and A leaves mid-batch.  Bytes unchanged, and the joiner
        provably stole queued work."""
        service_a = _GatedProtect(mk_engine())
        service_b = ProtectionService(mk_engine())
        coordinator = "%s:%d" % servers(ProtectionService(mk_engine()))
        endpoint_a = "%s:%d" % servers(service_a)
        endpoint_b = "%s:%d" % servers(service_b)
        with self.control(coordinator) as client:
            client.cluster_join(endpoint_a)
        report = self.churn_run(
            soak_corpus, coordinator, service_a, endpoint_a, service_b, [endpoint_b]
        )
        assert to_csv_string(report.published_dataset()) == reference_csv
        assert service_a.proxy.stats.chunks_processed >= 1
        assert service_b.proxy.stats.chunks_processed >= 1
        # The registry agrees with the story: A left, B is alive.
        with self.control(coordinator) as client:
            states = {
                m["endpoint"]: m["state"]
                for m in client.cluster_membership().members
            }
        assert states[endpoint_a] == "left"
        assert states[endpoint_b] == "alive"

    def test_churn_composed_with_degraded_wire(
        self, soak_corpus, reference_csv, servers
    ):
        """The joiner arrives behind a delaying wire: membership churn
        and the chaos matrix compose — slower, never different bytes."""
        service_a = _GatedProtect(mk_engine())
        service_b = ProtectionService(mk_engine())
        coordinator = "%s:%d" % servers(ProtectionService(mk_engine()))
        endpoint_a = "%s:%d" % servers(service_a)
        bhost, bport = servers(service_b)
        with ChaosProxy(
            bhost, bport, fault="delay", after_replies=0, n_faults=3, delay_s=0.2
        ) as proxy:
            with self.control(coordinator) as client:
                client.cluster_join(endpoint_a)
            report = self.churn_run(
                soak_corpus,
                coordinator,
                service_a,
                endpoint_a,
                service_b,
                [proxy.endpoint],
            )
            assert proxy.faults_injected >= 1, "the fault never fired"
        assert to_csv_string(report.published_dataset()) == reference_csv
        assert service_b.proxy.stats.chunks_processed >= 1

    def test_churn_with_corrupt_joiner_fails_over_to_survivor(
        self, soak_corpus, reference_csv, servers
    ):
        """The joiner corrupts a reply mid-batch: the poisoned request
        is never replayed to it (the PR 5 rule) and fails over to the
        healthy survivor C — bytes still identical to serial."""
        service_a = _GatedProtect(mk_engine())
        service_b = ProtectionService(mk_engine())
        service_c = ProtectionService(mk_engine())
        coordinator = "%s:%d" % servers(ProtectionService(mk_engine()))
        endpoint_a = "%s:%d" % servers(service_a)
        bhost, bport = servers(service_b)
        endpoint_c = "%s:%d" % servers(service_c)
        with ChaosProxy(
            bhost, bport, fault="corrupt", after_replies=1, n_faults=1
        ) as proxy:
            with self.control(coordinator) as client:
                client.cluster_join(endpoint_a)
            # B (behind the corrupting wire) and the healthy survivor C
            # both join mid-batch; A leaves.
            report = self.churn_run(
                soak_corpus,
                coordinator,
                service_a,
                endpoint_a,
                service_b,
                [proxy.endpoint, endpoint_c],
            )
        assert to_csv_string(report.published_dataset()) == reference_csv
        # The joiner served its clean reply before the corruption...
        assert service_b.proxy.stats.chunks_processed >= 1
        # ...and the survivor picked up the slack.
        assert service_c.proxy.stats.chunks_processed >= 1
