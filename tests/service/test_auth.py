"""Tests for the shared-secret auth handshake (tentpole, PR 5).

The bar: with a key configured, unauthenticated requests are rejected
with a typed ``auth`` error **before any engine work**, on both TCP and
unix transports; every client SDK (sync, async, cluster) authenticates
transparently; a wrong key is a fatal
:class:`~repro.errors.AuthenticationError`, never a retried transport
fault; keyless deployments are untouched (v1-compatible vocabulary).
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.cluster import ElasticClusterClient
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import AuthenticationError, ConfigurationError, TransportError
from repro.lppm.base import LPPM
from repro.service.api import (
    AuthChallenge,
    AuthRequest,
    AuthResponse,
    ErrorEnvelope,
    ProtectionService,
    StatsRequest,
    auth_proof,
    decode_message,
    encode_message,
    load_auth_key,
    verify_auth_proof,
)
from repro.service.rpc import (
    AsyncServiceClient,
    ServiceClient,
    ServiceServer,
    parse_endpoint,
)

KEY = b"super-secret-cluster-key"
DAY = 86_400.0


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


class _SpyService(ProtectionService):
    """Counts how many requests reach the engine-facing facade."""

    def __init__(self, engine):
        super().__init__(engine)
        self.handled = 0

    async def handle(self, message):
        self.handled += 1
        return await super().handle(message)


def stub_engine():
    return ProtectionEngine([_Noop()], [_NeverAttack()])


def day_trace(user="u", days=1, period=600.0):
    n = int(days * DAY / period)
    return Trace(user, np.arange(n) * period, np.full(n, 45.0), np.full(n, 4.0))


class TestHandshakePrimitives:
    def test_proof_round_trip(self):
        nonce = "00ff" * 8
        proof = auth_proof(KEY, nonce)
        assert verify_auth_proof(KEY, nonce, proof)
        assert not verify_auth_proof(KEY, nonce, proof[:-1] + "0")
        assert not verify_auth_proof(b"other-key", nonce, proof)
        assert not verify_auth_proof(KEY, "1111" * 8, proof)
        assert not verify_auth_proof(KEY, nonce, None)

    def test_proof_needs_a_key(self):
        with pytest.raises(ConfigurationError):
            auth_proof(b"", "nonce")

    def test_load_auth_key(self, tmp_path):
        path = tmp_path / "mood.key"
        path.write_text("  hunter2\n")
        assert load_auth_key(path) == b"hunter2"
        empty = tmp_path / "empty.key"
        empty.write_text(" \n")
        with pytest.raises(ConfigurationError, match="empty"):
            load_auth_key(empty)
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_auth_key(tmp_path / "missing.key")

    def test_server_rejects_empty_key(self):
        with pytest.raises(ConfigurationError):
            ServiceServer(ProtectionService(stub_engine()), auth_key=b"")


class TestSyncClientAuth:
    def test_keyed_round_trip_over_tcp(self):
        """Acceptance: handshake + verbs over a real TCP socket."""
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port, auth_key=KEY) as client:
                receipt = client.upload(day_trace("alice"))
                assert receipt.pseudonyms == ("alice#0",)
                assert client.stats().server["uploads"] == 1

    def test_keyed_round_trip_over_unix(self, tmp_path):
        """Acceptance: the same contract on the unix transport."""
        path = str(tmp_path / "auth.sock")
        with ServiceServer(
            ProtectionService(stub_engine()), unix_path=path, auth_key=KEY
        ) as server:
            with ServiceClient(unix_path=path, auth_key=KEY) as client:
                assert client.query_count(45.0, 4.0) == 0

    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_unauthenticated_rejected_before_engine_work(self, tmp_path, transport):
        """Acceptance: no key -> typed auth error, zero engine work."""
        service = _SpyService(stub_engine())
        kwargs = (
            {"port": 0}
            if transport == "tcp"
            else {"unix_path": str(tmp_path / "spy.sock")}
        )
        with ServiceServer(service, auth_key=KEY, **kwargs) as server:
            if transport == "tcp":
                host, port = server.address
                client = ServiceClient(host=host, port=port)
            else:
                client = ServiceClient(unix_path=server.address)
            with client:
                with pytest.raises(AuthenticationError, match="authentication required"):
                    client.upload(day_trace("mallory"))
                with pytest.raises(AuthenticationError):
                    client.stats()
        assert service.handled == 0  # rejected before any engine work
        assert service.proxy.stats.chunks_processed == 0

    def test_wrong_key_fails_at_connect(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address
            with pytest.raises(AuthenticationError, match="bad credentials"):
                ServiceClient(host=host, port=port, auth_key=b"wrong-key")

    def test_keyed_client_against_keyless_server(self):
        """A keyed client interoperates with a server that requires none."""
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port, auth_key=KEY) as client:
                assert client.query_count(45.0, 4.0) == 0

    def test_reconnect_reauthenticates(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address
            client = ServiceClient(host=host, port=port, auth_key=KEY)
            try:
                client.upload(day_trace("bob"))
                client.reconnect()
                # The fresh connection authenticated again transparently.
                assert client.stats().server["uploads"] == 1
            finally:
                client.close()


class TestHandshakeProtocol:
    """Raw-socket checks of the nonce discipline."""

    def _open(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        return sock, sock.makefile("rwb")

    def test_proof_without_challenge_rejected_and_disconnected(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            sock, fh = self._open(server)
            with sock:
                fh.write(encode_message(AuthRequest(proof="ab" * 64)))
                fh.flush()
                reply = decode_message(fh.readline())
                assert isinstance(reply, ErrorEnvelope)
                assert reply.code == "auth"
                assert "no challenge outstanding" in reply.message
                # The server hangs up after the failure (brute-force
                # throttling): the next read sees EOF.
                assert fh.readline() == b""

    def test_failed_proof_burns_nonce_and_connection(self):
        """A failed proof costs the whole connection: the nonce cannot
        be ground online, and a replay needs a fresh dial + challenge."""
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            sock, fh = self._open(server)
            with sock:
                fh.write(encode_message(AuthRequest()))
                fh.flush()
                challenge = decode_message(fh.readline())
                assert isinstance(challenge, AuthChallenge)
                fh.write(encode_message(AuthRequest(proof="bad")))
                fh.flush()
                assert decode_message(fh.readline()).code == "auth"
                # Disconnected after the failure...
                assert fh.readline() == b""
            # ...and the burned nonce is useless on a fresh connection:
            # proofs only count against that connection's own challenge.
            sock, fh = self._open(server)
            with sock:
                fh.write(
                    encode_message(
                        AuthRequest(proof=auth_proof(KEY, challenge.nonce))
                    )
                )
                fh.flush()
                reply = decode_message(fh.readline())
                assert isinstance(reply, ErrorEnvelope)
                assert reply.code == "auth"

    def test_challenges_are_unpredictable(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            nonces = set()
            for _ in range(3):
                sock, fh = self._open(server)
                with sock:
                    fh.write(encode_message(AuthRequest()))
                    fh.flush()
                    nonces.add(decode_message(fh.readline()).nonce)
            assert len(nonces) == 3

    def test_auth_frames_ignored_by_keyless_server(self):
        """auth_request against a keyless server: immediate ok (v1-style
        deployments keep working when clients gain keys first)."""
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            sock, fh = self._open(server)
            with sock:
                fh.write(encode_message(AuthRequest()))
                fh.flush()
                reply = decode_message(fh.readline())
                assert isinstance(reply, AuthResponse) and reply.ok

    def test_tagged_auth_frames_echo_their_id(self):
        from repro.service.api import decode_frame

        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            sock, fh = self._open(server)
            with sock:
                fh.write(encode_message(AuthRequest(), request_id=41))
                fh.flush()
                reply_id, challenge = decode_frame(fh.readline())
                assert reply_id == 41
                assert isinstance(challenge, AuthChallenge)


class TestAsyncClientAuth:
    def test_handshake_and_requests(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address

            async def scenario():
                client = AsyncServiceClient(
                    parse_endpoint(f"{host}:{port}"), auth_key=KEY
                )
                await client.connect()
                try:
                    reply = await client.request(StatsRequest())
                    assert not isinstance(reply, ErrorEnvelope)
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_wrong_key_raises_authentication_error(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address

            async def scenario():
                client = AsyncServiceClient(
                    parse_endpoint(f"{host}:{port}"), auth_key=b"wrong"
                )
                with pytest.raises(AuthenticationError):
                    await client.connect()
                await client.close()

            asyncio.run(scenario())


class TestClusterAuth:
    """Satellite: auth failures are fatal for the cluster client —
    they must not burn the retry budget like transport faults do."""

    def test_wrong_key_is_fatal_not_retried(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address

            async def scenario():
                cluster = ElasticClusterClient(
                    [f"{host}:{port}"], auth_key=b"wrong", retry_budget=5
                )
                try:
                    with pytest.raises(AuthenticationError):
                        await cluster.run([(0, StatsRequest())])
                    # The budget is untouched: no failure was recorded,
                    # the endpoint was neither put on probation nor
                    # retired — the key is the problem, not the host.
                    health = cluster.health()[f"{host}:{port}"]
                    assert health.failures == 0
                    assert not health.retired
                finally:
                    await cluster.close()

            asyncio.run(scenario())

    def test_missing_key_is_fatal_too(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address

            async def scenario():
                cluster = ElasticClusterClient([f"{host}:{port}"])
                try:
                    # No key -> the handshake never runs -> the first
                    # real request is answered with an auth envelope,
                    # which fails the run fast (same as a wrong key)
                    # without burning the retry budget.
                    with pytest.raises(
                        AuthenticationError, match="authentication required"
                    ):
                        await cluster.run([(0, StatsRequest())])
                    health = cluster.health()[f"{host}:{port}"]
                    assert health.failures == 0
                    assert not health.retired
                finally:
                    await cluster.close()

            asyncio.run(scenario())

    def test_keyed_cluster_serves(self):
        with ServiceServer(
            ProtectionService(stub_engine()), port=0, auth_key=KEY
        ) as server:
            host, port = server.address

            async def scenario():
                cluster = ElasticClusterClient([f"{host}:{port}"], auth_key=KEY)
                try:
                    replies = await cluster.run([(0, StatsRequest())])
                    assert not isinstance(replies[0], ErrorEnvelope)
                finally:
                    await cluster.close()

            asyncio.run(scenario())


class TestTransportErrorStaysRetryable:
    def test_auth_error_is_not_a_transport_error(self):
        assert not issubclass(AuthenticationError, TransportError)
        assert AuthenticationError("x").code == "auth"


class TestPreAuthServerInterop:
    """Regression (review finding): a pre-auth-vocabulary server answers
    the handshake with a `protocol` envelope ("unknown message type") —
    that is the *server's* limitation, not a credential failure, so it
    must not be classified as a fatal AuthenticationError."""

    def _spawn_pre_auth_server(self):
        """A fake PR-4 era server: echoes ids, knows no auth frames."""
        import json
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def serve():
            conn, _ = listener.accept()
            with conn:
                fh = conn.makefile("rwb")
                # Old parse order: version gate before slug gate.  A v2
                # hello from a modern client is rejected by *version*
                # (the client downgrades to v1 and carries on); the auth
                # frame that follows is rejected by *type*.
                for _ in range(2):
                    line = fh.readline()
                    if not line:
                        return
                    frame = json.loads(line)
                    if frame.get("v") != 1:
                        message = (
                            f"unsupported protocol version {frame.get('v')} "
                            "(this side speaks 1)"
                        )
                    else:
                        message = "unknown message type 'auth_request'"
                    fh.write(
                        encode_message(
                            ErrorEnvelope(code="protocol", message=message),
                            request_id=frame.get("id"),
                        )
                    )
                    fh.flush()
                fh.readline()

        threading.Thread(target=serve, daemon=True).start()
        return listener, host, port

    def test_async_client_raises_transport_error_not_auth(self):
        listener, host, port = self._spawn_pre_auth_server()

        async def scenario():
            client = AsyncServiceClient(
                parse_endpoint(f"{host}:{port}"), auth_key=KEY
            )
            with pytest.raises(TransportError, match="handshake"):
                await client.connect()
            await client.close()

        asyncio.run(scenario())
        listener.close()

    def test_sync_client_raises_service_error_not_auth(self):
        from repro.errors import ServiceError

        listener, host, port = self._spawn_pre_auth_server()
        with pytest.raises(ServiceError, match="handshake failed") as info:
            ServiceClient(host=host, port=port, auth_key=KEY)
        assert not isinstance(info.value, AuthenticationError)
        listener.close()
