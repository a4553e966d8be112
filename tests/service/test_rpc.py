"""Tests for the socket transport: TCP/unix server, client SDK, CLI serve."""

import asyncio
import os
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import ConfigurationError, ProtocolError, TransportError
from repro.lppm.base import LPPM
from repro.service.api import (
    ErrorEnvelope,
    LoopbackClient,
    ProtectionService,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    decode_frame,
    encode_message,
)
from repro.service.rpc import (
    Endpoint,
    ServiceClient,
    ServiceServer,
    parse_endpoint,
)

DAY = 86_400.0


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


def stub_engine():
    return ProtectionEngine([_Noop()], [_NeverAttack()])


def day_trace(user="u", days=1, period=600.0):
    n = int(days * DAY / period)
    return Trace(user, np.arange(n) * period, np.full(n, 45.0), np.full(n, 4.0))


class TestTcpTransport:
    def test_protect_upload_query_round_trip(self):
        """Acceptance: full protect→upload→query cycle over a real socket."""
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port) as client:
                protected = client.protect(day_trace("alice"))
                assert [p.pseudonym for p in protected.pieces] == ["alice#0"]
                receipt = client.upload(day_trace("alice"))
                assert receipt.pseudonyms == ("alice#1",)
                assert client.query_count(45.0, 4.0) == len(day_trace("alice"))
                stats = client.stats()
                assert stats.proxy["chunks_processed"] == 2
                assert stats.server["uploads"] == 1

    def test_multiple_sequential_clients_share_state(self):
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port) as first:
                first.upload(day_trace("u1"))
            with ServiceClient(host=host, port=port) as second:
                assert second.stats().server["uploads"] == 1

    def test_tcp_equals_loopback(self):
        """The socket transport must answer exactly like the loopback.

        ``uptime_s`` is the one wall-clock field of ``stats_response``
        (PR 8): it is compared for presence, not equality.
        """
        trace = day_trace("bob", days=2)
        with LoopbackClient(ProtectionService(stub_engine())) as loopback:
            expected = loopback.upload(trace).to_body()
            expected_stats = loopback.stats().to_body()
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port) as client:
                assert client.upload(trace).to_body() == expected
                stats = client.stats().to_body()
                assert stats.pop("uptime_s") >= 0.0
                assert expected_stats.pop("uptime_s") >= 0.0
                assert stats == expected_stats

    def test_garbage_line_answered_with_error_frame(self):
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"this is not json\n")
                fh.flush()
                from repro.service.api import decode_message

                reply = decode_message(fh.readline())
                assert isinstance(reply, ErrorEnvelope)
                assert reply.code == "protocol"
                # The connection survives a protocol error.
                fh.write(encode_message(StatsRequest()))
                fh.flush()
                assert fh.readline()

    def test_malformed_tagged_frame_is_answered_and_the_connection_survives(self):
        """Regression: a short ``stream_record`` row escaped the decoder
        as IndexError, the server dropped the connection without a
        reply, and the request queued behind it was never answered."""
        bad = (
            b'{"v":1,"id":5,"type":"stream_record",'
            b'"body":{"user_id":"u","records":[[0,1.0,45.0]]}}\n'
        )
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(bad + encode_message(StatsRequest(), request_id=6))
                fh.flush()
                replies = dict(decode_frame(fh.readline()) for _ in range(2))
        assert isinstance(replies[5], ErrorEnvelope)
        assert replies[5].code == "protocol" and "malformed" in replies[5].message
        assert isinstance(replies[6], StatsResponse)

    def test_concurrent_clients_never_share_a_pseudonym(self):
        """Parallel uploads of one user must get distinct pseudonyms."""
        import threading

        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            results, errors = [], []

            def hammer():
                try:
                    with ServiceClient(host=host, port=port) as client:
                        for _ in range(5):
                            results.append(client.upload(day_trace("shared")).pseudonyms)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            published = [p for pseudonyms in results for p in pseudonyms]
            assert len(published) == 20
            assert len(set(published)) == 20  # no duplicates across connections

    def test_client_requires_an_address(self):
        with pytest.raises(ConfigurationError):
            ServiceClient()


class _SlowStats(ProtectionService):
    """Service whose stats verb dawdles (off the state lock)."""

    def __init__(self, engine, delay_s=0.5):
        super().__init__(engine)
        self._delay_s = delay_s

    async def stats(self, request=None):
        import asyncio

        await asyncio.sleep(self._delay_s)
        return await super().stats(request)


class TestClientDesyncRecovery:
    """Satellite regression: a timed-out/truncated exchange must never let
    the next request read the stale tail of the previous reply."""

    def test_timeout_breaks_client_until_reconnect(self):
        with ServiceServer(_SlowStats(stub_engine(), delay_s=2.0), port=0) as server:
            host, port = server.address
            client = ServiceClient(host=host, port=port, timeout=0.2)
            try:
                with pytest.raises(TransportError, match="desynchronised"):
                    client.stats()
                # Reuse without reconnect: refused, not silently desynced.
                with pytest.raises(TransportError, match="reconnect"):
                    client.stats()
                with pytest.raises(TransportError, match="reconnect"):
                    client.query_count(45.0, 4.0)
            finally:
                client.close()

    def test_reconnect_restores_service(self):
        with ServiceServer(_SlowStats(stub_engine(), delay_s=0.6), port=0) as server:
            host, port = server.address
            client = ServiceClient(host=host, port=port, timeout=0.2)
            try:
                with pytest.raises(TransportError):
                    client.stats()
                client._timeout = 30.0  # only the first verb is slow
                client.reconnect()
                # The fresh stream answers the fresh request — not the
                # stale reply of the timed-out one.
                assert client.query_count(45.0, 4.0) == 0
            finally:
                client.close()

    def test_untagged_reply_from_v1_server_is_accepted(self):
        """A pre-request-id server ignores the unknown 'id' key and
        replies untagged; with one request outstanding the FIFO pairing
        is still correct and the client must not declare desync."""
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def v1_server():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                fh.readline()
                fh.write(encode_message(StatsResponse()))  # no id
                fh.flush()
                fh.readline()

        thread = threading.Thread(target=v1_server, daemon=True)
        thread.start()
        # wire_versions=(1,) skips the hello this scripted server would
        # not understand; the untagged-FIFO contract is v1 behaviour.
        client = ServiceClient(
            host=host, port=port, timeout=5.0, wire_versions=(1,)
        )
        try:
            assert isinstance(client.request(StatsRequest()), StatsResponse)
        finally:
            client.close()
            listener.close()

    def test_corrupted_reply_breaks_client(self):
        """Chaos-harness regression: a garbage reply line must mark the
        client broken (frame boundaries are untrustworthy), not leak a
        bare decode error while leaving the stream 'usable'."""
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def corrupting_server():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                fh.readline()
                fh.write(b'{"v":1,"ty\x00\x9f garbage bytes\n')
                fh.flush()
                fh.readline()  # wait for the client to give up

        thread = threading.Thread(target=corrupting_server, daemon=True)
        thread.start()
        client = ServiceClient(
            host=host, port=port, timeout=5.0, wire_versions=(1,)
        )
        try:
            with pytest.raises(ProtocolError, match="unparseable reply"):
                client.stats()
            with pytest.raises(TransportError, match="reconnect"):
                client.stats()
        finally:
            client.close()
            listener.close()

    def test_mismatched_reply_id_breaks_client(self):
        """A desynchronised stream (wrong id) is detected immediately."""
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def evil_server():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                fh.readline()
                # Reply tagged with an id the client never sent.
                fh.write(encode_message(StatsResponse(), request_id=999))
                fh.flush()
                fh.readline()  # wait for the client to give up

        thread = threading.Thread(target=evil_server, daemon=True)
        thread.start()
        client = ServiceClient(
            host=host, port=port, timeout=5.0, wire_versions=(1,)
        )
        try:
            with pytest.raises(ProtocolError, match="does not match"):
                client.stats()
            with pytest.raises(TransportError, match="reconnect"):
                client.stats()
        finally:
            client.close()
            listener.close()


class TestConcurrentRequests:
    """Tentpole hardening: tagged requests are served concurrently and
    replies are correlated by id, not by arrival order."""

    def test_out_of_order_replies_keep_their_ids(self):
        service = _SlowStats(stub_engine(), delay_s=0.5)
        with ServiceServer(service, port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                # Pipeline: slow stats first, fast query second.
                fh.write(encode_message(StatsRequest(), request_id=0))
                fh.write(
                    encode_message(
                        QueryRequest(kind="top_cells", k=1), request_id=1
                    )
                )
                fh.flush()
                first_id, first = decode_frame(fh.readline())
                second_id, second = decode_frame(fh.readline())
        # The fast request overtakes the slow one...
        assert (first_id, second_id) == (1, 0)
        # ...and each reply still carries the right payload for its id.
        assert isinstance(first, QueryResponse)
        assert isinstance(second, StatsResponse)

    def test_pipelined_uploads_pair_request_to_response(self):
        """Many tagged uploads on one connection: every receipt must match
        the day_index/user of the request that carries its id."""
        from repro.service.api import UploadRequest, UploadResponse

        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                for i in range(6):
                    fh.write(
                        encode_message(
                            UploadRequest(trace=day_trace(f"user{i}")),
                            request_id=i,
                        )
                    )
                fh.flush()
                replies = {}
                for _ in range(6):
                    reply_id, message = decode_frame(fh.readline())
                    replies[reply_id] = message
        assert set(replies) == set(range(6))
        for i, message in replies.items():
            assert isinstance(message, UploadResponse)
            assert message.user_id == f"user{i}"

    def test_untagged_requests_stay_fifo(self):
        """Legacy v1 clients (no ids) still get strictly-ordered replies."""
        with ServiceServer(_SlowStats(stub_engine(), delay_s=0.3), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write(encode_message(StatsRequest()))
                fh.write(encode_message(QueryRequest(kind="top_cells", k=1)))
                fh.flush()
                first = decode_frame(fh.readline())
                second = decode_frame(fh.readline())
        assert first[0] is None and second[0] is None
        assert isinstance(first[1], StatsResponse)
        assert isinstance(second[1], QueryResponse)

    def test_inflight_bound_still_serves_everything(self):
        """max_inflight=1 serialises the work but loses no request."""
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, max_inflight=1
        ) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                for i in range(5):
                    fh.write(encode_message(StatsRequest(), request_id=i))
                fh.flush()
                seen = {decode_frame(fh.readline())[0] for _ in range(5)}
        assert seen == set(range(5))

    def test_invalid_max_inflight_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceServer(ProtectionService(stub_engine()), max_inflight=0)


class TestAsyncClient:
    def test_unencodable_request_leaves_no_pending_future(self):
        """Regression: an encode-time ProtocolError (NaN coordinate) must
        propagate without leaking a never-resolved pending entry."""
        import asyncio

        from repro.service.rpc import AsyncServiceClient, parse_endpoint

        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address

            async def scenario():
                client = AsyncServiceClient(parse_endpoint(f"{host}:{port}"))
                await client.connect()
                try:
                    with pytest.raises(ProtocolError, match="non-finite"):
                        await client.request(
                            QueryRequest(kind="count", lat=float("nan"), lng=4.0)
                        )
                    assert client._pending == {}
                    # The connection is still healthy and usable.
                    reply = await client.request(StatsRequest())
                    assert isinstance(reply, StatsResponse)
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_unattributable_garbage_poisons_fast_not_by_timeout(self):
        """A corrupted reply whose id is unreadable must poison the
        pipelining client immediately — frame boundaries are shot, so
        stalling every pending request to its timeout would be a hang."""
        import asyncio
        import threading

        from repro.service.rpc import AsyncServiceClient, parse_endpoint

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def corrupting_server():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                fh.readline()
                fh.write(b"\x9f\x00 corrupted frame\n")
                fh.flush()
                fh.readline()

        thread = threading.Thread(target=corrupting_server, daemon=True)
        thread.start()

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"),
                timeout=60.0,
                wire_versions=(1,),
            )
            await client.connect()
            try:
                with pytest.raises(TransportError, match="unparseable reply"):
                    await client.request(StatsRequest())
            finally:
                await client.close()

        start = time.monotonic()
        asyncio.run(scenario())
        listener.close()
        assert time.monotonic() - start < 10.0  # nowhere near the timeout

    def test_untagged_reply_fails_fast_not_by_timeout(self):
        """A v1 server that ignores the id key must poison the pipelining
        client immediately — not stall every request to its timeout."""
        import asyncio
        import threading

        from repro.service.rpc import AsyncServiceClient, parse_endpoint

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def v1_server():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                fh.readline()
                fh.write(encode_message(StatsResponse()))  # no id
                fh.flush()
                fh.readline()

        thread = threading.Thread(target=v1_server, daemon=True)
        thread.start()

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"),
                timeout=60.0,
                wire_versions=(1,),
            )
            await client.connect()
            try:
                with pytest.raises(TransportError, match="request ids"):
                    await client.request(StatsRequest())
            finally:
                await client.close()

        start = time.monotonic()
        asyncio.run(scenario())
        listener.close()
        assert time.monotonic() - start < 10.0  # nowhere near the timeout


class TestEndpointParsing:
    def test_spellings(self):
        assert parse_endpoint("10.0.0.1:7464") == Endpoint(host="10.0.0.1", port=7464)
        assert parse_endpoint("unix:/tmp/mood.sock") == Endpoint(
            unix_path="/tmp/mood.sock"
        )
        assert parse_endpoint({"host": "h", "port": 1}) == Endpoint(host="h", port=1)
        assert parse_endpoint({"unix": "/s"}) == Endpoint(unix_path="/s")
        assert parse_endpoint(("h", 2)) == Endpoint(host="h", port=2)
        assert parse_endpoint(Endpoint(host="h", port=3)).label() == "h:3"

    def test_rejects_garbage(self):
        for bad in ("just-a-host", "h:not-a-port", {"port": 1}, 42, ("h",)):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)

    def test_endpoint_needs_exactly_one_address(self):
        with pytest.raises(ConfigurationError):
            Endpoint()
        with pytest.raises(ConfigurationError):
            Endpoint(host="h", port=1, unix_path="/s")


class TestUnixTransport:
    def test_round_trip_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "mood.sock")
        with ServiceServer(ProtectionService(stub_engine()), unix_path=path) as server:
            assert server.address == path
            with ServiceClient(unix_path=path) as client:
                receipt = client.upload(day_trace("carol"))
                assert receipt.pseudonyms == ("carol#0",)
                assert client.query_count(45.0, 4.0) > 0

    def test_restart_over_stale_socket_file(self, tmp_path):
        """A leftover socket file from a killed server must not block restart."""
        path = str(tmp_path / "stale.sock")
        with ServiceServer(ProtectionService(stub_engine()), unix_path=path):
            pass
        # Pre-3.13 asyncio leaves the file behind; simulate the worst
        # case (crash) by ensuring it exists either way.
        if not os.path.exists(path):
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM).bind(path)
        with ServiceServer(ProtectionService(stub_engine()), unix_path=path) as server:
            with ServiceClient(unix_path=path) as client:
                assert client.stats().server["uploads"] == 0

    def test_regular_file_at_socket_path_not_clobbered(self, tmp_path):
        precious = tmp_path / "data.txt"
        precious.write_text("keep me")
        server = ServiceServer(
            ProtectionService(stub_engine()), unix_path=str(precious)
        )
        with pytest.raises(OSError):
            server.start_background()
        assert precious.read_text() == "keep me"


class TestServeCommand:
    def test_python_m_repro_serve_round_trip(self, tmp_path):
        """Acceptance: a subprocess `python -m repro serve` answers the SDK."""
        sock_path = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", sock_path, "--users", "2", "--days", "2", "--seed", "3",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.time() + 120.0
            while not os.path.exists(sock_path):
                if proc.poll() is not None:
                    out = proc.stdout.read().decode(errors="replace")
                    raise AssertionError(f"serve exited early:\n{out}")
                if time.time() > deadline:
                    raise AssertionError("serve did not come up in time")
                time.sleep(0.2)
            trace = day_trace("remote", days=1)
            with ServiceClient(unix_path=sock_path, timeout=120.0) as client:
                protected = client.protect(trace)
                receipt = client.upload(trace)
                count = client.query_count(45.0, 4.0)
                stats = client.stats()
            assert protected.original_records == len(trace)
            assert receipt.user_id == "remote"
            assert count >= 0
            # The engine is real: whatever was published is queryable.
            assert stats.server["records"] == receipt.published_records
            assert stats.proxy["chunks_processed"] == 2
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_python_m_repro_serve_with_auth_key(self, tmp_path):
        """Acceptance: `repro serve --auth-key-file` requires the
        handshake; a keyless client is rejected, a keyed one served."""
        from repro.errors import AuthenticationError

        sock_path = str(tmp_path / "auth-serve.sock")
        key_path = tmp_path / "mood.key"
        key_path.write_text("cli-secret\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", sock_path, "--users", "2", "--days", "2", "--seed", "3",
                "--auth-key-file", str(key_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.time() + 120.0
            while not os.path.exists(sock_path):
                if proc.poll() is not None:
                    out = proc.stdout.read().decode(errors="replace")
                    raise AssertionError(f"serve exited early:\n{out}")
                if time.time() > deadline:
                    raise AssertionError("serve did not come up in time")
                time.sleep(0.2)
            with ServiceClient(unix_path=sock_path, timeout=120.0) as keyless:
                with pytest.raises(AuthenticationError):
                    keyless.stats()
            with ServiceClient(
                unix_path=sock_path, timeout=120.0, auth_key=b"cli-secret"
            ) as keyed:
                assert keyed.stats().server["uploads"] == 0
        finally:
            proc.terminate()
            proc.wait(timeout=30)


class TestByteBudget:
    """The _ByteBudget primitive and its server wiring (PR 7)."""

    def test_budget_blocks_then_releases(self):
        from repro.service.rpc import _ByteBudget

        async def scenario():
            budget = _ByteBudget(100)
            await budget.acquire(60)
            grabbed = []

            async def second():
                await budget.acquire(60)
                grabbed.append(True)

            task = asyncio.ensure_future(second())
            await asyncio.sleep(0.05)
            assert not grabbed  # 60 + 60 > 100: must wait
            await budget.release(60)
            await asyncio.wait_for(task, 5.0)
            assert grabbed and budget.used == 60

        asyncio.run(scenario())

    def test_oversized_frame_admitted_alone(self):
        """A frame bigger than the whole budget must not deadlock: it is
        admitted when nothing else is in flight (serial degradation)."""
        from repro.service.rpc import _ByteBudget

        async def scenario():
            budget = _ByteBudget(10)
            await asyncio.wait_for(budget.acquire(1000), 1.0)
            assert budget.used == 1000
            await budget.release(1000)

        asyncio.run(scenario())

    def test_invalid_budget_kwargs_rejected(self):
        service = ProtectionService(stub_engine())
        with pytest.raises(ConfigurationError):
            ServiceServer(service, max_inflight_bytes=0)
        with pytest.raises(ConfigurationError):
            ServiceServer(service, max_conn_inflight_bytes=0)
        with pytest.raises(ConfigurationError):
            ServiceServer(service, drain_timeout_s=0.0)

    def test_tiny_byte_budget_still_serves_everything(self):
        """A budget smaller than any frame degrades to serial service —
        every pipelined request is still answered."""
        with ServiceServer(
            ProtectionService(stub_engine()),
            port=0,
            max_inflight_bytes=64,
            max_conn_inflight_bytes=64,
        ) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                for i in range(5):
                    fh.write(encode_message(StatsRequest(), request_id=i))
                fh.flush()
                seen = {decode_frame(fh.readline())[0] for _ in range(5)}
        assert seen == set(range(5))
        assert server.transport_stats()["inflight_bytes"] == 0


class TestSlowConsumerEviction:
    def test_unread_replies_evict_the_connection(self):
        """A client that stops reading must not pin server memory: after
        drain_timeout_s its transport is aborted and counted."""
        from repro.service.api import ProtectRequest

        with ServiceServer(
            ProtectionService(stub_engine()), port=0, drain_timeout_s=0.2
        ) as server:
            host, port = server.address
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # A tiny receive window so big replies park in the server's
            # write buffer instead of the kernel's.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            try:
                trace = day_trace(period=10.0)  # a fat reply (~8640 records)
                for i in range(24):
                    sock.sendall(
                        encode_message(ProtectRequest(trace=trace), request_id=i)
                    )
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if server.transport_stats()["slow_consumer_evictions"] >= 1:
                        break
                    time.sleep(0.05)
                assert server.transport_stats()["slow_consumer_evictions"] >= 1
            finally:
                sock.close()
        # The budget was fully released by the unwind: nothing leaked.
        assert server.transport_stats()["inflight_bytes"] == 0

    def test_transport_stats_shape(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, max_conn_inflight_bytes=1024
        ) as server:
            stats = server.transport_stats()
        assert stats["max_conn_inflight_bytes"] == 1024
        assert stats["slow_consumer_evictions"] == 0
        assert stats["draining"] is False
        for key in ("max_inflight", "max_inflight_bytes", "inflight_bytes",
                    "drain_timeout_s"):
            assert key in stats


class TestGracefulDrain:
    def test_drain_flushes_streams_and_stops_listening(self):
        # Feed an open stream through the loopback side of the service
        # first (LoopbackClient drives its own event loop, so it cannot
        # run inside the server's): drain() must flush it even with no
        # wire traffic.
        service = ProtectionService(stub_engine())
        client = LoopbackClient(service)
        client.stream_open("u")
        client.stream_record("u", [(i, i * 60.0, 45.0, 4.0) for i in range(7)])

        async def scenario():
            server = ServiceServer(service, port=0)
            await server.start()
            host, port = server.address
            summary = await server.drain()
            assert summary == {
                "sessions": 1,
                "windows_flushed": 1,
                "records_flushed": 7,
            }
            assert server.transport_stats()["draining"] is True
            # The listener is gone: a fresh dial must fail.
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=0.5).close()

        asyncio.run(scenario())


class TestServeSigtermDrain:
    def test_sigterm_flushes_open_streams_before_exit(self, tmp_path):
        """Acceptance: SIGTERM on `repro serve` drains — open streaming
        windows are flushed through the cascade, and the summary names
        how much was saved."""
        import signal

        sock_path = str(tmp_path / "drain.sock")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", sock_path, "--users", "2", "--days", "2", "--seed", "3",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.time() + 120.0
            while not os.path.exists(sock_path):
                if proc.poll() is not None:
                    out = proc.stdout.read().decode(errors="replace")
                    raise AssertionError(f"serve exited early:\n{out}")
                if time.time() > deadline:
                    raise AssertionError("serve did not come up in time")
                time.sleep(0.2)
            with ServiceClient(unix_path=sock_path, timeout=120.0) as client:
                client.stream_open("driver")
                ack = client.stream_record(
                    "driver", [(i, i * 60.0, 45.0, 4.0) for i in range(9)]
                )
                assert ack.status == "ok"
            proc.send_signal(signal.SIGTERM)
            out = proc.stdout.read().decode(errors="replace")
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert "drained: 1 stream session(s)" in out
        assert "9 record(s) flushed" in out
