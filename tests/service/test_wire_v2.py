"""The negotiated v2 binary wire codec over real sockets (PR 10).

Covers the transport half of the codec PR — what the pure codec
property suite (``test_codec_properties.py``) cannot: the hello
negotiation against live and scripted servers, the per-connection
downgrade matrix (a v1-only peer never sees a v2 frame), the
PR-3-era-server fallback regression, byte-budget accounting on binary
frames, and v2 framing faults (corrupt magic, truncated frames).
ChaosProxy cannot relay binary frames, so v2 fault injection is
scripted directly here.
"""

import asyncio
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.cluster import ElasticClusterClient
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    ServiceError,
    TransportError,
)
from repro.lppm.base import LPPM
from repro.service.api import (
    AuthChallenge,
    AuthHandshakeRefused,
    AuthRequest,
    BlockWriter,
    ErrorEnvelope,
    HelloRequest,
    HelloResponse,
    LoopbackClient,
    MessageEncodeError,
    ProtectRequest,
    ProtectResponse,
    ProtectionService,
    ServiceClientBase,
    StatsRequest,
    StatsResponse,
    StreamRecord,
    SUPPORTED_WIRE_VERSIONS,
    V2_PREFIX_LEN,
    WIRE_MAGIC_V2,
    WIRE_VERSION,
    WIRE_VERSION_V2,
    client_auth_handshake,
    decode_frame,
    decode_frame_any,
    decode_frame_v2,
    encode_hello_frame,
    encode_message,
    encode_message_v2,
    encode_reply_for,
    is_v2_frame,
    negotiate_wire_version,
    peer_versions_from_error,
    resolve_auth_key,
    split_blocks,
    take_block,
    trace_from_wire_v2,
    v2_frame_lengths,
)
from repro.service.rpc import (
    AsyncServiceClient,
    MAX_LINE_BYTES,
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


class TestNegotiationHelpers:
    def test_negotiate_picks_highest_common(self):
        assert negotiate_wire_version((1, 2), (1, 2)) == 2
        assert negotiate_wire_version((1,), (1, 2)) == 1
        assert negotiate_wire_version((1, 2), (1,)) == 1
        # No overlap at all degrades to the v1 floor every peer speaks.
        assert negotiate_wire_version((7,), (1, 2)) == WIRE_VERSION

    def test_peer_versions_from_current_wording(self):
        message = (
            "unsupported protocol version: peer sent 3, this side speaks "
            "[1, 2] (JSON framing is v1; negotiate higher with hello_request)"
        )
        assert peer_versions_from_error(message) == (1, 2)

    def test_peer_versions_from_pre_hello_wording(self):
        # The literal PR-3/PR-4-era server wording: bare version, no list.
        assert peer_versions_from_error(
            "unsupported protocol version 2 (this side speaks 1)"
        ) == (1,)

    def test_non_version_errors_yield_none(self):
        assert peer_versions_from_error("unknown message type 'hello'") is None
        assert peer_versions_from_error("authentication required") is None

    def test_version_error_naming_no_versions_yields_none(self):
        assert peer_versions_from_error("unsupported protocol version") is None

    def test_hello_frame_is_a_v2_tagged_json_line(self):
        frame = encode_hello_frame(HelloRequest(versions=(1, 2)), request_id=0)
        assert frame.endswith(b"\n") and not is_v2_frame(frame)
        assert b'"v": 2' in frame or b'"v":2' in frame


class TestNegotiationAgainstRealServer:
    def test_sync_client_upgrades_and_round_trips(self):
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            assert server.transport_stats()["wire_versions"] == [1, 2]
            with ServiceClient(host=host, port=port) as client:
                assert client._wire_version == WIRE_VERSION_V2
                protected = client.protect(day_trace("alice"))
                assert [p.pseudonym for p in protected.pieces] == ["alice#0"]
                receipt = client.upload(day_trace("alice"))
                assert receipt.pseudonyms == ("alice#1",)
                assert client.query_count(45.0, 4.0) == len(day_trace())
                assert client.stats().server["uploads"] == 1

    def test_async_client_upgrades_and_round_trips(self):
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address

            async def scenario():
                client = AsyncServiceClient(parse_endpoint(f"{host}:{port}"))
                await client.connect()
                try:
                    assert client._wire_version == WIRE_VERSION_V2
                    reply = await client.request(
                        ProtectRequest(trace=day_trace("bob"))
                    )
                    assert [p.pseudonym for p in reply.pieces] == ["bob#0"]
                    stats = await client.request(StatsRequest())
                    assert stats.proxy["chunks_processed"] == 1
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_v1_only_server_downgrades_both_clients(self):
        """``wire_versions=(1,)`` pins an endpoint to JSON framing; v2
        clients must agree v1 and keep working — never mark broken."""
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, wire_versions=(1,)
        ) as server:
            host, port = server.address
            assert server.transport_stats()["wire_versions"] == [1]
            with ServiceClient(host=host, port=port) as client:
                assert client._wire_version == WIRE_VERSION
                client.upload(day_trace("u1"))
                assert client.stats().server["uploads"] == 1

            async def scenario():
                client = AsyncServiceClient(parse_endpoint(f"{host}:{port}"))
                await client.connect()
                try:
                    assert client._wire_version == WIRE_VERSION
                    stats = await client.request(StatsRequest())
                    assert stats.server["uploads"] == 1
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_v1_pinned_client_skips_the_hello(self):
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with ServiceClient(
                host=host, port=port, wire_versions=(1,)
            ) as client:
                assert client._wire_version == WIRE_VERSION
                client.upload(day_trace("u1"))
                assert client.stats().server["uploads"] == 1

    def test_replies_identical_across_framings(self):
        """The framing is plumbing, never semantics: a v1-pinned client
        and a v2-negotiated client receive equal protect bodies from
        fresh, identically-seeded servers."""
        bodies = {}
        for label, wire_versions in (("v1", (1,)), ("v2", (1, 2))):
            with ServiceServer(
                ProtectionService(stub_engine()), port=0
            ) as server:
                host, port = server.address
                with ServiceClient(
                    host=host, port=port, wire_versions=wire_versions
                ) as client:
                    bodies[label] = client.protect(day_trace("carol")).to_body()
        assert bodies["v1"] == bodies["v2"]

    def test_loopback_framings_agree_too(self):
        for version in SUPPORTED_WIRE_VERSIONS:
            with LoopbackClient(
                ProtectionService(stub_engine()), wire_version=version
            ) as client:
                body = client.protect(day_trace("dave")).to_body()
                if version == WIRE_VERSION:
                    reference = body
        assert body == reference

    def test_invalid_wire_versions_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceClient(host="127.0.0.1", port=1, wire_versions=(2,))
        with pytest.raises(ConfigurationError):
            ServiceClient(host="127.0.0.1", port=1, wire_versions=(1, 3))
        with pytest.raises(ConfigurationError):
            ServiceServer(
                ProtectionService(stub_engine()), port=0, wire_versions=(2,)
            )
        with pytest.raises(ConfigurationError):
            AsyncServiceClient(
                parse_endpoint("127.0.0.1:1"), wire_versions=()
            )


def _scripted_pr3_server(listener, n_connections=1):
    """A faithful PR-3-era v1 server: version gate first (old wording),
    then type dispatch; ids echoed.  Serves ``stats_request`` so a
    downgraded client can prove the connection still works."""

    def serve():
        for _ in range(n_connections):
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                while True:
                    line = fh.readline()
                    if not line:
                        break
                    import json

                    frame = json.loads(line)
                    rid = frame.get("id")
                    tag = b"" if rid is None else (
                        b', "id": ' + json.dumps(rid).encode()
                    )
                    if frame.get("v") != 1:
                        body = (
                            b'{"code": "protocol", "message": "unsupported '
                            b'protocol version %d (this side speaks 1)"}'
                            % frame["v"]
                        )
                        fh.write(
                            b'{"v": 1, "type": "error"%s, "body": %s}\n'
                            % (tag, body)
                        )
                    elif frame.get("type") == "stats_request":
                        fh.write(
                            b'{"v": 1, "type": "stats_response"%s, '
                            b'"body": {"proxy": {"chunks_processed": 0}, '
                            b'"server": {"uploads": 0}}}\n' % tag
                        )
                    else:
                        fh.write(
                            b'{"v": 1, "type": "error"%s, "body": '
                            b'{"code": "protocol", "message": "unknown '
                            b'message type"}}\n' % tag
                        )
                    fh.flush()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestPr3EraServerRegression:
    """Satellite bugfix: the version-mismatch error must let a v2 client
    fall back to v1 instead of marking the connection broken — against a
    genuine PR-3-era frame sequence (version gate first, old wording)."""

    def test_sync_client_falls_back_and_keeps_working(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        thread = _scripted_pr3_server(listener)
        try:
            with ServiceClient(host=host, port=port, timeout=10.0) as client:
                # The hello was rejected by version; the client is on v1
                # and the connection is NOT broken.
                assert client._wire_version == WIRE_VERSION
                assert client._broken is None
                # ...and it actually serves requests, repeatedly.
                assert client.stats().server["uploads"] == 0
                assert client.stats().proxy["chunks_processed"] == 0
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_async_client_falls_back_and_keeps_working(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        thread = _scripted_pr3_server(listener)

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"), timeout=10.0
            )
            await client.connect()
            try:
                assert client._wire_version == WIRE_VERSION
                stats = await client.request(StatsRequest())
                assert stats.server["uploads"] == 0
            finally:
                await client.close()

        try:
            asyncio.run(scenario())
        finally:
            listener.close()
            thread.join(timeout=5.0)


class _StallingService(ProtectionService):
    """Holds every protect_request until :attr:`gate` is set, so a test
    can observe the in-flight byte accounting mid-request."""

    def __init__(self, engine):
        super().__init__(engine)
        self.gate = threading.Event()

    async def handle(self, message):
        if isinstance(message, ProtectRequest):
            while not self.gate.is_set():
                await asyncio.sleep(0.01)
        return await super().handle(message)


def _negotiate_raw(fh):
    """Drive the hello exchange on a raw socket file; returns agreed."""
    fh.write(encode_hello_frame(HelloRequest(), request_id="hello"))
    fh.flush()
    reply_id, reply = decode_frame(fh.readline())
    assert reply_id == "hello" and isinstance(reply, HelloResponse)
    return int(reply.version)


def _read_v2_frame(fh):
    prefix = fh.read(V2_PREFIX_LEN)
    if len(prefix) < V2_PREFIX_LEN:
        return b""
    header_len, blocks_len = v2_frame_lengths(prefix)
    return prefix + fh.read(header_len + blocks_len)


class TestByteBudgetOnBinaryFrames:
    """Satellite bugfix: ``_ByteBudget`` charges a binary frame its
    actual wire bytes — prefix + header + columnar blocks — not a
    stringified estimate, and enforces the cap from the prefix alone."""

    def test_v2_frame_charged_its_actual_bytes(self):
        service = _StallingService(stub_engine())
        with ServiceServer(service, port=0) as server:
            host, port = server.address
            frame = encode_message_v2(
                ProtectRequest(trace=day_trace("alice")), request_id=1
            )
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                assert _negotiate_raw(fh) == WIRE_VERSION_V2
                fh.write(frame)
                fh.flush()
                # While the request is stalled in the handler, the global
                # budget holds EXACTLY the frame's wire size.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if server.transport_stats()["inflight_bytes"] == len(frame):
                        break
                    time.sleep(0.01)
                assert server.transport_stats()["inflight_bytes"] == len(frame)
                service.gate.set()
                reply = _read_v2_frame(fh)
                reply_id, message = decode_frame_v2(reply)
                assert reply_id == 1
                assert [p.pseudonym for p in message.pieces] == ["alice#0"]
        assert server.transport_stats()["inflight_bytes"] == 0

    def test_oversized_v2_frame_rejected_from_its_prefix(self):
        """The size cap fires off the declared lengths BEFORE the
        payload is read: no buffering, and the error names the size."""
        import struct

        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                assert _negotiate_raw(fh) == WIRE_VERSION_V2
                huge = WIRE_MAGIC_V2 + struct.pack(
                    "<IQ", 64, MAX_LINE_BYTES + 1
                )
                fh.write(huge)
                fh.flush()
                reply = _read_v2_frame(fh)
                _, message = decode_frame_v2(reply)
                assert message.code == "protocol"
                assert "exceeds" in message.message
                # The connection is done: the server cannot resync a
                # stream whose declared frame it refused to read.
                assert fh.read(1) == b""

    def test_tiny_budget_still_serves_v2_frames(self):
        """The oversized-frame escape hatch (admit alone when idle)
        applies to binary frames too — serial degradation, no deadlock."""
        with ServiceServer(
            ProtectionService(stub_engine()),
            port=0,
            max_inflight_bytes=64,
            max_conn_inflight_bytes=64,
        ) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port) as client:
                assert client._wire_version == WIRE_VERSION_V2
                for _ in range(3):
                    client.upload(day_trace("u"))
                assert client.stats().server["uploads"] == 3
        assert server.transport_stats()["inflight_bytes"] == 0


class TestV2FramingFaults:
    """ChaosProxy cannot split binary frames, so the v2 fault matrix is
    scripted here: corrupt magic and truncation must poison the client
    (never a silent desync), exactly like their v1 counterparts."""

    def _scripted_v2_server(self, replies):
        """A server that answers the hello honestly, then emits the
        scripted raw bytes for the first post-negotiation request."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def serve():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                line = fh.readline()  # the hello (a JSON line)
                rid = decode_frame(line)[0]
                fh.write(
                    encode_message(
                        HelloResponse(
                            version=WIRE_VERSION_V2,
                            versions=SUPPORTED_WIRE_VERSIONS,
                        ),
                        request_id=rid,
                    )
                )
                fh.flush()
                _read_v2_frame(fh)  # the client's first binary request
                fh.write(replies)
                fh.flush()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return host, port, listener, thread

    def test_corrupt_magic_poisons_sync_client(self):
        host, port, listener, thread = self._scripted_v2_server(
            b"XXXX" + b"\x00" * (V2_PREFIX_LEN - 4)
        )
        try:
            client = ServiceClient(host=host, port=port, timeout=10.0)
            assert client._wire_version == WIRE_VERSION_V2
            with pytest.raises(ProtocolError, match="unparseable reply"):
                client.stats()
            with pytest.raises(TransportError, match="broken"):
                client.stats()
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_truncated_v2_reply_breaks_sync_client(self):
        import struct

        # A prefix declaring 500 payload bytes, then EOF mid-frame.
        host, port, listener, thread = self._scripted_v2_server(
            WIRE_MAGIC_V2 + struct.pack("<IQ", 100, 400) + b"{" * 10
        )
        try:
            client = ServiceClient(host=host, port=port, timeout=10.0)
            with pytest.raises(TransportError, match="mid-frame"):
                client.stats()
            assert client._broken is not None
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_corrupt_magic_poisons_async_client(self):
        host, port, listener, thread = self._scripted_v2_server(
            b"GARBAGEGARBAGE!!" + b"\x00" * 8
        )

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"), timeout=10.0
            )
            await client.connect()
            try:
                assert client._wire_version == WIRE_VERSION_V2
                with pytest.raises(TransportError):
                    await client.request(StatsRequest())
            finally:
                await client.close()

        start = time.monotonic()
        try:
            asyncio.run(scenario())
        finally:
            listener.close()
            thread.join(timeout=5.0)
        assert time.monotonic() - start < 8.0  # poisoned fast, not by timeout


class TestServerV2ReadFaults:
    """The server's side of a broken v2 stream: bad magic from a peer
    that negotiated v2 is answered once, then the connection closes; a
    peer that vanishes mid-frame just ends its connection."""

    def test_peer_breaking_the_v2_framing_gets_one_envelope(self):
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                assert _negotiate_raw(fh) == WIRE_VERSION_V2
                fh.write(b"JUNK" + bytes(V2_PREFIX_LEN - 4))
                fh.flush()
                reply_id, reply = decode_frame_v2(_read_v2_frame(fh))
                assert reply_id is None and isinstance(reply, ErrorEnvelope)
                assert reply.code == "protocol"
                assert "broke the negotiated v2 framing" in reply.message
                assert fh.read() == b""

    def test_peer_vanishing_mid_frame_ends_its_connection(self):
        frame = encode_message_v2(StatsRequest(), request_id=1)
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                assert _negotiate_raw(fh) == WIRE_VERSION_V2
                fh.write(frame[: V2_PREFIX_LEN + 3])
                fh.flush()
                sock.shutdown(socket.SHUT_WR)
                assert fh.read() == b""  # nobody left to answer
            with ServiceClient(host=host, port=port) as client:
                assert client.stats().server["uploads"] == 0


class TestAsyncClientEndpoints:
    def test_unknown_wire_version_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported wire version"):
            AsyncServiceClient(parse_endpoint("127.0.0.1:1"), wire_versions=(1, 3))

    def test_round_trip_over_a_unix_socket(self, tmp_path):
        path = str(tmp_path / "mood.sock")

        async def scenario():
            client = AsyncServiceClient(parse_endpoint(f"unix:{path}"))
            await client.connect()
            try:
                assert client._wire_version == WIRE_VERSION_V2
                return await client.request(StatsRequest())
            finally:
                await client.close()

        with ServiceServer(ProtectionService(stub_engine()), unix_path=path):
            assert isinstance(asyncio.run(scenario()), StatsResponse)


class TestDowngradeIsolation:
    def test_v1_only_server_never_emits_a_v2_frame(self):
        """The hard interop rule: every byte a v1-only endpoint writes is
        newline-framed JSON, even to a client that offered v2."""
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, wire_versions=(1,)
        ) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write(encode_hello_frame(HelloRequest(), request_id=0))
                fh.write(encode_message(StatsRequest(), request_id=1))
                fh.flush()
                sock.shutdown(socket.SHUT_WR)
                payload = fh.read()
        assert not is_v2_frame(payload)
        lines = payload.splitlines(keepends=True)
        assert len(lines) == 2
        for line in lines:
            assert line.endswith(b"\n")
            reply_id, message = decode_frame_any(line)
            assert not is_v2_frame(line)
        hello_reply = decode_frame(lines[0])[1]
        assert isinstance(hello_reply, HelloResponse)
        assert hello_reply.version == WIRE_VERSION


def _raw_v2_frame(header, blocks=b""):
    """Build a v2 frame from an arbitrary (possibly malformed) header."""
    payload = json.dumps(header).encode("utf-8")
    return (
        WIRE_MAGIC_V2
        + struct.pack("<IQ", len(payload), len(blocks))
        + payload
        + blocks
    )


class TestParseFrameV2Faults:
    """Every malformed-frame branch of the v2 parser raises a
    ProtocolError naming the defect — never a stray KeyError or a
    silent misparse."""

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="bad magic"):
            decode_frame_v2(b"nope" + b"\x00" * 24)

    def test_truncated_inside_the_prefix(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            decode_frame_v2(WIRE_MAGIC_V2 + b"\x00" * 4)

    def test_declared_and_actual_length_disagree(self):
        frame = _raw_v2_frame({"v": 2, "type": "stats_request", "body": {}})
        with pytest.raises(ProtocolError, match="length mismatch"):
            decode_frame_v2(frame + b"!")

    def test_header_is_not_json(self):
        payload = b"\xff\xfe not json"
        frame = WIRE_MAGIC_V2 + struct.pack("<IQ", len(payload), 0) + payload
        with pytest.raises(ProtocolError, match="invalid v2 frame header"):
            decode_frame_v2(frame)

    def test_header_is_not_an_object(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            decode_frame_v2(_raw_v2_frame([1, 2, 3]))

    def test_bool_request_id_rejected(self):
        frame = _raw_v2_frame(
            {"v": 2, "type": "stats_request", "id": True, "body": {}}
        )
        with pytest.raises(ProtocolError, match="request id"):
            decode_frame_v2(frame)

    def test_wrong_version_names_both_sides(self):
        frame = _raw_v2_frame({"v": 3, "type": "stats_request", "body": {}})
        with pytest.raises(ProtocolError) as info:
            decode_frame_v2(frame)
        assert "peer sent 3" in str(info.value)
        assert str(list(SUPPORTED_WIRE_VERSIONS)) in str(info.value)

    def test_unknown_type_keeps_the_request_id(self):
        frame = _raw_v2_frame({"v": 2, "type": "nope", "id": 7, "body": {}})
        with pytest.raises(ProtocolError, match="unknown message type") as info:
            decode_frame_v2(frame)
        assert info.value.request_id == 7

    def test_non_object_body_rejected(self):
        frame = _raw_v2_frame({"v": 2, "type": "stats_request", "body": 5})
        with pytest.raises(ProtocolError, match="body must be an object"):
            decode_frame_v2(frame)

    def test_bad_block_spec_keeps_the_request_id(self):
        frame = _raw_v2_frame(
            {"v": 2, "type": "stats_request", "id": 3, "body": {}, "blocks": "x"}
        )
        with pytest.raises(ProtocolError, match="block spec") as info:
            decode_frame_v2(frame)
        assert info.value.request_id == 3

    def test_missing_body_key_becomes_malformed_body(self):
        frame = _raw_v2_frame(
            {"v": 2, "type": "protect_request", "id": 9, "body": {}}
        )
        with pytest.raises(
            ProtocolError, match="malformed protect_request body"
        ) as info:
            decode_frame_v2(frame)
        assert info.value.request_id == 9

    def test_out_of_range_block_ref_keeps_the_request_id(self):
        body = {
            "trace": {
                "user_id": "u",
                "t": {"$blk": 5},
                "lat": {"$blk": 6},
                "lng": {"$blk": 7},
            }
        }
        frame = _raw_v2_frame(
            {"v": 2, "type": "protect_request", "id": 11, "body": body}
        )
        with pytest.raises(ProtocolError) as info:
            decode_frame_v2(frame)
        assert info.value.request_id == 11

    def test_plain_body_message_survives_v2_framing(self):
        """A message with no v2 codec branch rides the header body."""
        frame = encode_message_v2(StatsRequest(), request_id=4)
        request_id, message = decode_frame_v2(frame)
        assert request_id == 4 and isinstance(message, StatsRequest)


class TestBlockPrimitives:
    def test_split_blocks_rejects_non_list_spec(self):
        with pytest.raises(ProtocolError, match="must be a list"):
            split_blocks("x", memoryview(b""))

    def test_split_blocks_rejects_malformed_entry(self):
        with pytest.raises(ProtocolError, match="malformed v2 block spec"):
            split_blocks([["<f8"]], memoryview(b""))

    def test_split_blocks_rejects_unknown_dtype(self):
        with pytest.raises(ProtocolError, match="dtype"):
            split_blocks([["<u4", 2]], memoryview(b"\x00" * 8))

    def test_split_blocks_rejects_truncated_payload(self):
        with pytest.raises(ProtocolError, match="truncated"):
            split_blocks([["<f8", 5]], memoryview(b"\x00" * 8))

    def test_split_blocks_rejects_trailing_bytes(self):
        with pytest.raises(ProtocolError, match="trailing bytes"):
            split_blocks([], memoryview(b"\x00" * 8))

    def test_take_block_rejects_non_ref(self):
        with pytest.raises(ProtocolError, match="block ref"):
            take_block([1.0, 2.0], [])

    def test_take_block_rejects_bool_index(self):
        with pytest.raises(ProtocolError, match="must be an int"):
            take_block({"$blk": True}, [])

    def test_take_block_rejects_out_of_range_index(self):
        with pytest.raises(ProtocolError, match="out of range"):
            take_block({"$blk": 2}, [np.zeros(1)])

    def test_take_block_rejects_dtype_mismatch(self):
        blocks = [np.zeros(2, dtype="<i8")]
        with pytest.raises(ProtocolError, match="expected <f8"):
            take_block({"$blk": 0}, blocks)

    def test_block_writer_rejects_unknown_dtype(self):
        with pytest.raises(MessageEncodeError, match="dtype"):
            BlockWriter().add([1, 2], dtype="<u4")

    def test_block_writer_rejects_multidimensional(self):
        with pytest.raises(MessageEncodeError, match="one-dimensional"):
            BlockWriter().add([[1.0, 2.0], [3.0, 4.0]])

    def test_trace_body_must_be_an_object(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            trace_from_wire_v2([1, 2], [])

    def test_trace_body_missing_keys_are_named(self):
        with pytest.raises(ProtocolError, match="lat"):
            trace_from_wire_v2({"user_id": "u", "t": {"$blk": 0}}, [])

    def test_trace_column_length_mismatch_is_a_protocol_error(self):
        blocks = [
            np.arange(3, dtype="<f8"),
            np.zeros(2, dtype="<f8"),
            np.zeros(3, dtype="<f8"),
        ]
        body = {
            "user_id": "u",
            "t": {"$blk": 0},
            "lat": {"$blk": 1},
            "lng": {"$blk": 2},
        }
        with pytest.raises(ProtocolError, match="malformed trace"):
            trace_from_wire_v2(body, blocks)

    def test_stream_record_column_mismatch_is_a_protocol_error(self):
        blocks = [
            np.zeros(1, dtype="<f8"),
            np.zeros(1, dtype="<f8"),
            np.zeros(1, dtype="<f8"),
        ]
        body = {
            "user_id": "u",
            "o": [0, 1],  # two ordinals, one-record columns
            "t": {"$blk": 0},
            "lat": {"$blk": 1},
            "lng": {"$blk": 2},
        }
        with pytest.raises(ProtocolError, match="disagree on length"):
            StreamRecord.from_body(body, blocks)


class TestEncodeFaults:
    def test_non_message_is_not_encodable(self):
        with pytest.raises(MessageEncodeError, match="not a wire message"):
            encode_message_v2(object())

    def test_float_request_id_is_not_encodable(self):
        with pytest.raises(MessageEncodeError, match="request id"):
            encode_message_v2(StatsRequest(), request_id=1.5)

    def test_hello_frame_rejects_bool_request_id(self):
        with pytest.raises(MessageEncodeError, match="request id"):
            encode_hello_frame(HelloRequest(), request_id=True)

    def test_unencodable_reply_becomes_internal_envelope(self):
        for version in SUPPORTED_WIRE_VERSIONS:
            frame = encode_reply_for(version, object(), request_id=2)
            request_id, message = decode_frame_any(frame)
            assert request_id == 2
            assert message.code == "internal"
            assert "reply not encodable" in message.message

    def test_data_loss_of_empty_response_is_zero(self):
        reply = ProtectResponse(
            user_id="u", pieces=(), erased_records=0, original_records=0
        )
        assert reply.data_loss == 0.0


class TestAuthHandshakeMachine:
    """The sans-IO auth state machine's refusal branches, driven
    directly — both socket clients share this one generator."""

    def _start(self):
        steps = client_auth_handshake(b"secret")
        request = next(steps)
        assert isinstance(request, AuthRequest)
        return steps

    def test_non_challenge_reply_is_a_protocol_error(self):
        steps = self._start()
        with pytest.raises(ProtocolError, match="expected auth_challenge"):
            steps.send(StatsResponse())

    def test_auth_envelope_is_a_credential_failure(self):
        steps = self._start()
        with pytest.raises(AuthenticationError):
            steps.send(ErrorEnvelope(code="auth", message="bad key"))

    def test_other_envelope_is_a_refusal(self):
        steps = self._start()
        steps.send(AuthChallenge(nonce="n0"))
        with pytest.raises(AuthHandshakeRefused):
            steps.send(ErrorEnvelope(code="busy", message="draining"))

    def test_non_response_after_proof_is_a_protocol_error(self):
        steps = self._start()
        steps.send(AuthChallenge(nonce="n0"))
        with pytest.raises(ProtocolError, match="expected auth_response"):
            steps.send(StatsResponse())


class TestConfigEdges:
    def test_empty_auth_key_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            resolve_auth_key(auth_key="")

    def test_unknown_server_wire_version_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            ServiceServer(
                ProtectionService(stub_engine()), port=0, wire_versions=(1, 7)
            )

    def test_loopback_rejects_unknown_wire_version(self):
        with pytest.raises(ConfigurationError, match="wire_version"):
            LoopbackClient(ProtectionService(stub_engine()), wire_version=7)

    def test_endpoint_dict_specs(self):
        assert parse_endpoint({"host": "10.0.0.1", "port": 8}).label() == (
            "10.0.0.1:8"
        )
        assert parse_endpoint({"unix": "/tmp/x.sock"}).unix_path == "/tmp/x.sock"
        assert (
            parse_endpoint({"unix_path": "/tmp/y.sock"}).unix_path
            == "/tmp/y.sock"
        )
        with pytest.raises(ConfigurationError):
            parse_endpoint({"hostname": "nope"})

    def test_remote_cluster_client_validation(self):
        # Static endpoints are served by the elastic client's fixed
        # membership; its knobs are checked at construction.
        with pytest.raises(ConfigurationError, match=">= 1 endpoint"):
            ElasticClusterClient([])
        with pytest.raises(ConfigurationError, match="max_inflight"):
            ElasticClusterClient(["127.0.0.1:1"], max_inflight=0)
        with pytest.raises(ConfigurationError, match="retry_budget"):
            ElasticClusterClient(["127.0.0.1:1"], retry_budget=-1)
        with pytest.raises(ConfigurationError, match="backoff times"):
            ElasticClusterClient(["127.0.0.1:1"], backoff_base=0.0)
        with pytest.raises(ConfigurationError, match="backoff_factor"):
            ElasticClusterClient(["127.0.0.1:1"], backoff_factor=0.5)

    def test_base_client_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ServiceClientBase().request(StatsRequest())

    def test_unexpected_reply_type_is_a_protocol_error(self):
        class _Wrong(ServiceClientBase):
            def request(self, message):
                return StatsResponse()

        with pytest.raises(ProtocolError, match="expected ProtectResponse"):
            _Wrong().protect(day_trace())


class TestServiceFaultEnvelopes:
    def test_handler_crash_becomes_internal_envelope(self):
        class _Boom(LPPM):
            name = "boom"

            def apply(self, trace, rng=None):
                raise RuntimeError("kaput")

        service = ProtectionService(
            ProtectionEngine([_Boom()], [_NeverAttack()])
        )
        reply = asyncio.run(service.handle(ProtectRequest(trace=day_trace())))
        assert isinstance(reply, ErrorEnvelope)
        assert reply.code == "internal" and "kaput" in reply.message


class TestServerLifecycleEdges:
    def test_background_start_and_stop_are_idempotent(self):
        server = ServiceServer(ProtectionService(stub_engine()), port=0)
        first = server.start_background()
        assert server.start_background() == first
        server.stop_background()
        server.stop_background()  # no thread left: a no-op

    def test_async_start_is_idempotent(self):
        async def scenario():
            server = ServiceServer(ProtectionService(stub_engine()), port=0)
            await server.start()
            address = server.address
            await server.start()
            assert server.address == address
            await server.stop()
            await server.stop()

        asyncio.run(scenario())

    def test_blank_lines_between_v1_frames_are_skipped(self):
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"\n\n")
                fh.write(encode_message(StatsRequest(), request_id=1))
                fh.flush()
                reply_id, reply = decode_frame(fh.readline())
        assert reply_id == 1 and isinstance(reply, StatsResponse)


def _hello_fault_server(make_reply, hold_s=0.0):
    """Accept one connection, read the hello line, write
    ``make_reply(request_id)`` raw bytes (or nothing when it returns
    ``None``), hold the socket open *hold_s* seconds, then close."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def serve():
        conn, _ = listener.accept()
        with conn:
            fh = conn.makefile("rwb")
            line = fh.readline()
            if line:
                reply = make_reply(json.loads(line).get("id"))
                if reply:
                    fh.write(reply)
                    fh.flush()
            if hold_s:
                time.sleep(hold_s)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return host, port, listener, thread


def _v1_line(rid, slug, body):
    frame = {"v": 1, "type": slug, "body": body}
    if rid is not None:
        frame["id"] = rid
    return json.dumps(frame).encode() + b"\n"


class TestNegotiationFaults:
    """A negotiation that goes wrong in any way other than a clean
    version mismatch must fail loudly and mark the connection broken —
    a half-negotiated stream can never be trusted."""

    def _sync_attempt(self, make_reply, exc_type, match):
        host, port, listener, thread = _hello_fault_server(make_reply)
        try:
            with pytest.raises(exc_type, match=match):
                ServiceClient(host=host, port=port, timeout=10.0)
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_sync_rejects_a_version_it_never_offered(self):
        self._sync_attempt(
            lambda rid: _v1_line(
                rid, "hello_response", {"version": 9, "versions": [1, 9]}
            ),
            ProtocolError,
            "never offered",
        )

    def test_sync_non_version_error_is_a_service_error(self):
        self._sync_attempt(
            lambda rid: _v1_line(
                rid, "error", {"code": "busy", "message": "draining"}
            ),
            ServiceError,
            "negotiation failed",
        )

    def test_sync_unexpected_reply_type_is_a_protocol_error(self):
        self._sync_attempt(
            lambda rid: _v1_line(
                rid, "stats_response", {"proxy": {}, "server": {}}
            ),
            ProtocolError,
            "expected hello_response",
        )

    def _async_attempt(self, make_reply, match, timeout=10.0, hold_s=0.0):
        host, port, listener, thread = _hello_fault_server(
            make_reply, hold_s=hold_s
        )

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"), timeout=timeout
            )
            with pytest.raises(TransportError, match=match):
                await client.connect()
            await client.close()

        try:
            asyncio.run(scenario())
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_async_closed_during_negotiation(self):
        self._async_attempt(lambda rid: b"", "closed the connection during")

    def test_async_garbage_reply(self):
        self._async_attempt(
            lambda rid: b"not json at all\n", "unparseable negotiation reply"
        )

    def test_async_reply_id_mismatch(self):
        self._async_attempt(
            lambda rid: _v1_line(
                "other", "hello_response", {"version": 2, "versions": [1, 2]}
            ),
            "does not match",
        )

    def test_async_rejects_a_version_it_never_offered(self):
        self._async_attempt(
            lambda rid: _v1_line(
                rid, "hello_response", {"version": 9, "versions": [1, 9]}
            ),
            "never offered",
        )

    def test_async_non_version_error_fails(self):
        self._async_attempt(
            lambda rid: _v1_line(
                rid, "error", {"code": "busy", "message": "draining"}
            ),
            "negotiation .* failed",
        )

    def test_async_unexpected_reply_type_fails(self):
        self._async_attempt(
            lambda rid: _v1_line(
                rid, "stats_response", {"proxy": {}, "server": {}}
            ),
            "expected hello_response",
        )

    def test_async_negotiation_timeout(self):
        self._async_attempt(
            lambda rid: None, "negotiation .* failed", timeout=0.3,
            hold_s=2.0,
        )


def _v2_session_server(script):
    """Accept one connection, answer the hello with an agreed-v2 reply,
    then hand the raw file to *script* for the scripted exchange."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def serve():
        conn, _ = listener.accept()
        with conn:
            fh = conn.makefile("rwb")
            rid = decode_frame(fh.readline())[0]
            fh.write(
                encode_message(
                    HelloResponse(
                        version=WIRE_VERSION_V2,
                        versions=SUPPORTED_WIRE_VERSIONS,
                    ),
                    request_id=rid,
                )
            )
            fh.flush()
            script(fh)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return host, port, listener, thread


def _v2_request_id(frame):
    """Pull the request id out of a raw v2 frame's JSON header."""
    header_len, _ = v2_frame_lengths(frame)
    return json.loads(frame[V2_PREFIX_LEN : V2_PREFIX_LEN + header_len])["id"]


class TestSyncReadFaults:
    """The sync client's binary read path: every way a reply stream can
    die must surface as a loud, connection-breaking error."""

    def _attempt(self, replies, exc_type, match):
        def script(fh):
            _read_v2_frame(fh)  # the client's request
            if replies:
                fh.write(replies)
                fh.flush()

        host, port, listener, thread = _v2_session_server(script)
        try:
            client = ServiceClient(host=host, port=port, timeout=10.0)
            assert client._wire_version == WIRE_VERSION_V2
            with pytest.raises(exc_type, match=match):
                client.stats()
            assert client._broken is not None
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_clean_close_mid_request(self):
        self._attempt(b"", TransportError, "mid-request")

    def test_partial_prefix_is_mid_frame(self):
        self._attempt(b"MRB2\x00\x00\x00\x00", TransportError, "mid-frame")

    def test_oversized_reply_declaration(self):
        self._attempt(
            WIRE_MAGIC_V2 + struct.pack("<IQ", 16, MAX_LINE_BYTES),
            ProtocolError,
            "over the",
        )

    def test_v1_reply_truncated_without_newline(self):
        """A v1 line that ends at EOF instead of a newline desyncs the
        stream — the pinned-v1 client must break, not misparse."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def serve():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                fh.readline()
                fh.write(b'{"v": 1, "type": "stats_resp')  # no newline
                fh.flush()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                host=host, port=port, timeout=10.0, wire_versions=(1,)
            )
            with pytest.raises(ProtocolError, match="truncated"):
                client.stats()
            assert client._broken is not None
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)


class TestAsyncReadFaults:
    def _attempt(self, replies, match):
        def script(fh):
            _read_v2_frame(fh)
            if replies:
                fh.write(replies)
                fh.flush()

        host, port, listener, thread = _v2_session_server(script)

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"), timeout=10.0
            )
            await client.connect()
            try:
                assert client._wire_version == WIRE_VERSION_V2
                with pytest.raises(TransportError, match=match):
                    await client.request(StatsRequest())
                # Once poisoned, every later request fails fast.
                with pytest.raises(TransportError, match="broken"):
                    await client.request(StatsRequest())
            finally:
                await client.close()

        try:
            asyncio.run(scenario())
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_clean_close_fails_the_pending_request(self):
        self._attempt(b"", "closed the connection")

    def test_partial_prefix_is_mid_frame(self):
        self._attempt(b"MRB2\x00\x00\x00\x00", "mid-frame")

    def test_oversized_reply_declaration(self):
        self._attempt(
            WIRE_MAGIC_V2 + struct.pack("<IQ", 16, MAX_LINE_BYTES), "over the"
        )

    def test_payload_truncated_mid_frame(self):
        self._attempt(
            WIRE_MAGIC_V2 + struct.pack("<IQ", 100, 400) + b"{" * 10,
            "mid-frame",
        )

    def test_attributable_decode_failure_keeps_the_stream(self):
        """A well-framed reply that fails to decode but carries a known
        id fails only that request; the connection keeps serving."""

        def script(fh):
            first = _read_v2_frame(fh)
            fh.write(
                _raw_v2_frame(
                    {"v": 2, "type": "nope", "id": _v2_request_id(first), "body": {}}
                )
            )
            fh.flush()
            second = _read_v2_frame(fh)
            fh.write(
                encode_message_v2(
                    StatsResponse(), request_id=_v2_request_id(second)
                )
            )
            fh.flush()

        host, port, listener, thread = _v2_session_server(script)

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"), timeout=10.0
            )
            await client.connect()
            try:
                with pytest.raises(ProtocolError, match="unknown message type"):
                    await client.request(StatsRequest())
                assert client._broken is None
                reply = await client.request(StatsRequest())
                assert isinstance(reply, StatsResponse)
            finally:
                await client.close()

        try:
            asyncio.run(scenario())
        finally:
            listener.close()
            thread.join(timeout=5.0)
