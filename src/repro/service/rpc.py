"""Socket transport for the protection service (TCP or unix domain).

The server is an asyncio shell around
:class:`repro.service.api.ProtectionService`: JSON lines in, JSON lines
out, connections multiplexed on the event loop.  Every body runs on the
loop's own thread, so the loop serves nothing else while one runs.
Every connection starts on v1 JSON framing; a client may offer the
negotiated v2 binary framing with a ``hello`` exchange (see
``docs/SERVICE.md``), after which both directions carry length-prefixed
frames with columnar ndarray payloads — a v1-only peer never sees a v2
frame, and
``ServiceServer(wire_versions=(1,))`` pins an endpoint to v1 for
mixed-version clusters.  Each connection is served one request at a
time, tagged or not: the server reads a frame, writes its reply, and
only then reads the next, so replies come in request order and each
echoes its request's ``"id"`` tag.  A client may still pipeline; its
requests wait unread behind the reply in progress, and the kernel's TCP
window pushes back once the buffers between them fill.  The server and
the asyncio client read every frame with one coroutine,
:func:`read_frame`.

Two clients share the verb vocabulary:

* :class:`ServiceClient` — synchronous, one request at a time; mobile
  client code and tests drive it like a function call.  Every request
  is tagged and the reply id is verified, so a desynchronised stream is
  detected immediately instead of silently answering request *n* with
  reply *n-1*; after a transport failure the client is **broken** (the
  socket is closed, every later call raises
  :class:`~repro.errors.TransportError`) until :meth:`reconnect`.
* :class:`AsyncServiceClient` — asyncio, many requests in flight on one
  connection, replies matched to futures by id.

Multi-endpoint dispatch lives in
:class:`repro.cluster.elastic.ElasticClusterClient`, which pools
:class:`AsyncServiceClient` connections: any member serves any queued
request, and a request whose frame may have reached an endpoint is
never offered to that endpoint again.  This module holds only the
transports.

Servers and clients optionally authenticate with a shared-secret
HMAC-blake2b challenge/response handshake (``ServiceServer(auth_key=...)``,
``repro serve --auth-key`` / ``--auth-key-file``); unauthenticated
requests are rejected with an ``error`` envelope of code ``auth``
before any engine work.

::

    service = ProtectionService(engine)
    server = ServiceServer(service, host="127.0.0.1", port=0)
    address = server.start_background()          # ("127.0.0.1", 54321)
    with ServiceClient(host=address[0], port=address[1]) as client:
        receipt = client.upload(trace)
        busy = client.top_cells(k=5)
    server.stop_background()

``python -m repro serve`` / ``python -m repro request`` expose the same
pair on the command line.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
from collections.abc import Awaitable, Callable, Generator
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    ServiceError,
    TransportError,
    check_positive,
)
from repro.service.api import (
    AuthChallenge,
    AuthRequest,
    AuthResponse,
    ErrorEnvelope,
    HandshakeRefused,
    HelloRequest,
    HelloResponse,
    Message,
    ProtectionService,
    RequestId,
    ServiceClientBase,
    SUPPORTED_WIRE_VERSIONS,
    V2_PREFIX_LEN,
    WIRE_VERSION,
    WIRE_VERSION_V2,
    check_wire_versions,
    client_auth_handshake,
    client_negotiation,
    decode_frame,
    decode_frame_any,
    encode_hello_frame,
    encode_message_for,
    encode_reply_for,
    materialize_frame,
    materialize_frame_v2,
    negotiate_wire_version,
    new_auth_nonce,
    parse_frame_envelope,
    parse_frame_v2,
    v2_frame_lengths,
    verify_auth_proof,
)

#: Generous per-line cap: a month-long trace at 1 Hz is ~10 MB of JSON.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: How long a reply write may sit in :meth:`StreamWriter.drain` before
#: the connection is declared a slow consumer and evicted.
DEFAULT_DRAIN_TIMEOUT_S = 30.0


def v2_frame_remainder(prefix: bytes) -> int:
    """How many bytes follow a v2 frame's 16-byte *prefix*.

    The one size check the server and both clients run before reading
    past a prefix: the magic, then the declared lengths against
    :data:`MAX_LINE_BYTES`, so an oversized frame is refused without
    being buffered.  Either fault is a
    :class:`~repro.errors.ProtocolError` after which the byte stream
    cannot be resynchronised.
    """
    header_len, blocks_len = v2_frame_lengths(prefix)
    size = V2_PREFIX_LEN + header_len + blocks_len
    if size > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame of {size} bytes exceeds {MAX_LINE_BYTES} bytes, "
            f"{size - MAX_LINE_BYTES} over the cap"
        )
    return header_len + blocks_len


async def read_frame(reader: asyncio.StreamReader, binary: bool) -> bytes:
    """The next frame on *reader*: a v1 JSON line, or with *binary* a
    length-prefixed v2 frame.

    Returns ``b""`` at a clean EOF, before any byte of a next frame, and
    lets :class:`asyncio.IncompleteReadError` through for a frame the
    peer cut short.  A frame that can never be read — a line over the
    reader's limit (:data:`MAX_LINE_BYTES`), or a v2 prefix that
    :func:`v2_frame_remainder` refuses before the payload is read —
    raises :class:`~repro.errors.ProtocolError`; after it the byte
    stream cannot be resynchronised.
    """
    try:
        if not binary:
            return await reader.readuntil(b"\n")
        prefix = await reader.readexactly(V2_PREFIX_LEN)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise
        return b""
    except asyncio.LimitOverrunError:
        raise ProtocolError(
            f"the peer sent a line over the {MAX_LINE_BYTES}-byte cap"
        ) from None
    try:
        rest = v2_frame_remainder(prefix)
    except ProtocolError as exc:
        raise ProtocolError(
            f"the peer broke the negotiated v2 framing: {exc}"
        ) from None
    return prefix + await reader.readexactly(rest)


@dataclass
class _Connection:
    """One client connection's serving state.

    Every connection starts on v1 JSON framing and only a hello exchange
    can raise ``wire_version``, so a v1-only peer never sees a v2 frame.
    """

    writer: asyncio.StreamWriter
    authed: bool
    wire_version: int = WIRE_VERSION
    nonce: Optional[str] = None


class ServiceServer:
    """Serve a :class:`ProtectionService` over TCP or a unix socket.

    Exactly one of ``(host, port)`` or ``unix_path`` addresses the
    server.  ``port=0`` binds an ephemeral port; the bound address is
    available as :attr:`address` once started.  Each connection is
    served one request at a time, tagged or not: the server reads a
    frame, writes its reply, and only then reads the next frame.  A
    connection therefore holds at most one request read and not yet
    answered, and a client that pipelines without reading is pushed
    back by TCP once the buffers between it and the server fill.

    With ``auth_key`` set, every connection must complete the
    HMAC-blake2b challenge/response handshake (``auth_request`` →
    ``auth_challenge`` → ``auth_request`` with proof → ``auth_response``)
    before any other verb is served: an unauthenticated request is
    answered with an ``error`` envelope of code ``auth`` **before any
    engine work** — it never reaches :meth:`ProtectionService.handle`.
    Without a key the handshake is a no-op (an ``auth_request`` is
    answered ``ok`` immediately), so keyed clients interoperate with
    keyless servers and vice versa.
    """

    def __init__(
        self,
        service: ProtectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        auth_key: Optional[bytes] = None,
        drain_timeout_s: Optional[float] = DEFAULT_DRAIN_TIMEOUT_S,
        wire_versions: Sequence[int] = SUPPORTED_WIRE_VERSIONS,
    ) -> None:
        if auth_key is not None and not auth_key:
            raise ConfigurationError("auth_key must be non-empty bytes (or None)")
        self.service = service
        self.host = host
        self.port = _check_port(port, lowest=0)
        # Checked as the clients check it, not first at bind time.
        self.unix_path = (
            None if unix_path is None else Endpoint(unix_path=unix_path).unix_path
        )
        self.drain_timeout_s = check_positive(
            "drain_timeout_s", drain_timeout_s, optional=True
        )
        self.auth_key = None if auth_key is None else bytes(auth_key)
        #: Versions this endpoint will negotiate; ``(1,)`` makes it a
        #: v1-only endpoint (hellos are answered, but always with v1, so
        #: the connection never switches to binary framing).
        self.wire_versions = check_wire_versions(wire_versions)
        self._server: Optional[asyncio.AbstractServer] = None
        #: Set whenever no request is being served; :meth:`drain` waits on it.
        self._idle: Optional[asyncio.Event] = None
        self._evictions = 0
        self._active_requests = 0
        self._requests_served = 0
        self._connections = 0
        self._draining = False
        self._thread: Optional[threading.Thread] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None

    # -- connection handling ---------------------------------------------

    async def _drain_or_evict(self, writer: asyncio.StreamWriter) -> None:
        """Flush the writer, evicting a consumer that will not read.

        A client that stops reading its socket parks the reply behind
        the kernel send buffer; without a deadline that reply, and the
        connection with it, is pinned forever.  After
        ``drain_timeout_s`` the transport is aborted — RST, no lingering
        FIN handshake — and the connection handler unwinds through its
        normal disconnect path.  The deadline keeps counting while a body
        holds the loop, so it must outlast the longest body or a reading
        client can be evicted too.
        """
        if self.drain_timeout_s is None:
            await writer.drain()
            return
        try:
            await asyncio.wait_for(writer.drain(), timeout=self.drain_timeout_s)
        except asyncio.TimeoutError:
            self._evictions += 1
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise ConnectionResetError("slow consumer evicted")

    async def _send(
        self, conn: "_Connection", reply: Message, request_id: RequestId = None
    ) -> None:
        """Write one reply in the connection's current framing."""
        conn.writer.write(
            encode_reply_for(conn.wire_version, reply, request_id=request_id)
        )
        await self._drain_or_evict(conn.writer)

    def _auth_reply(self, message: AuthRequest, conn: "_Connection") -> Message:
        """One handshake leg; mutates the connection's auth state.

        The nonce is single-use: a failed proof (or a proof without a
        preceding challenge) must restart the handshake, so an attacker
        cannot grind one challenge offline while the connection idles.
        """
        if self.auth_key is None:
            return AuthResponse(ok=True)
        if message.proof is None:
            conn.nonce = new_auth_nonce()
            return AuthChallenge(nonce=conn.nonce)
        nonce, conn.nonce = conn.nonce, None
        if nonce is None:
            return ErrorEnvelope(
                code="auth",
                message="no challenge outstanding; send auth_request without proof first",
            )
        if not verify_auth_proof(self.auth_key, nonce, message.proof):
            return ErrorEnvelope(
                code="auth", message="bad credentials: proof does not match"
            )
        conn.authed = True
        return AuthResponse(ok=True)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # One request at a time: each reply is written before the next
        # frame is read.  Cancellation (server shutdown) is absorbed so
        # the connection task always finishes cleanly: a task left in
        # cancelled state trips asyncio's stream done-callback on
        # Python 3.11.
        assert self._idle is not None
        self._connections += 1
        conn = _Connection(writer, authed=self.auth_key is None)
        try:
            while True:
                try:
                    line = await read_frame(
                        reader, conn.wire_version >= WIRE_VERSION_V2
                    )
                except asyncio.IncompleteReadError:
                    break  # the peer vanished mid-frame: nobody to answer
                except ProtocolError as exc:
                    await self._send(
                        conn, ErrorEnvelope(code="protocol", message=str(exc))
                    )
                    break
                if not line or self._draining:
                    # A frame read once drain() began is not served: the
                    # connection closes, and the client sees EOF.
                    break
                if conn.wire_version < WIRE_VERSION_V2 and not line.strip():
                    continue
                try:
                    # Envelope first, body second: an unauthenticated
                    # frame is rejected on its *type* alone, before its
                    # payload is materialised into traces/arrays — a
                    # keyless peer cannot make the server build objects.
                    blocks = None
                    if conn.wire_version >= WIRE_VERSION_V2:
                        request_id, slug, cls, body, blocks = parse_frame_v2(line)
                    else:
                        request_id, slug, cls, body = parse_frame_envelope(line)
                    if not conn.authed and cls not in (AuthRequest, HelloRequest):
                        # Rejected before any engine work: no body
                        # build, no service.handle.  (hello is exempt
                        # like auth: version discovery is transport
                        # plumbing, not a served verb.)
                        await self._send(
                            conn,
                            ErrorEnvelope(
                                code="auth",
                                message="authentication required: complete "
                                "the auth handshake before any other request",
                            ),
                            request_id,
                        )
                        continue
                    if blocks is None:
                        message = materialize_frame(request_id, slug, cls, body)
                    else:
                        message = materialize_frame_v2(
                            request_id, slug, cls, body, blocks
                        )
                except ProtocolError as exc:
                    await self._send(
                        conn,
                        ErrorEnvelope(code="protocol", message=str(exc)),
                        getattr(exc, "request_id", None),
                    )
                    continue
                if isinstance(message, AuthRequest):
                    # Transport-level: handled inline (tagged or not),
                    # never reaches the service facade.
                    reply = self._auth_reply(message, conn)
                    await self._send(conn, reply, request_id)
                    if isinstance(reply, ErrorEnvelope):
                        # Failed proof (or proof without challenge):
                        # drop the connection, so every further guess
                        # costs a fresh TCP dial + challenge — an online
                        # brute force cannot grind one socket.
                        break
                    continue
                if isinstance(message, HelloRequest):
                    # Transport-level: the reply is the framing switch
                    # point.  It goes out in the framing the request
                    # came in, and every frame after it, both ways, uses
                    # the agreed version.
                    agreed = negotiate_wire_version(
                        message.versions, self.wire_versions
                    )
                    await self._send(
                        conn,
                        HelloResponse(version=agreed, versions=self.wire_versions),
                        request_id,
                    )
                    conn.wire_version = agreed
                    continue
                self._active_requests += 1
                self._idle.clear()
                try:
                    try:
                        reply = await self.service.handle(message)
                    except Exception:
                        # handle() promises never to raise; a service
                        # that breaks that contract (or a test that
                        # injects a fault) loses its connection rather
                        # than leaving the client waiting forever.
                        break
                    await self._send(conn, reply, request_id)
                finally:
                    self._active_requests -= 1
                    self._requests_served += 1
                    if not self._active_requests:
                        self._idle.set()
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                pass

    # -- async lifecycle --------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._idle = asyncio.Event()
        if not self._active_requests:
            self._idle.set()
        self._draining = False
        # Let the service's metrics verb see transport-level queue
        # depth and evictions (docs/CLUSTER.md: operator surface).
        self.service.transport_stats = self.transport_stats
        if self.unix_path is not None:
            # A killed/crashed predecessor leaves its socket file behind
            # (asyncio does not unlink on close either), which would make
            # every restart fail with EADDRINUSE.  Only ever remove an
            # actual socket — anything else at that path is a user error.
            import os
            import stat

            try:
                if stat.S_ISSOCK(os.stat(self.unix_path).st_mode):
                    os.unlink(self.unix_path)
            except FileNotFoundError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path, limit=MAX_LINE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=MAX_LINE_BYTES,
            )
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Union[str, Tuple[str, int]]:
        """Where clients connect: a unix path or ``(host, port)``."""
        if self.unix_path is not None:
            return self.unix_path
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown: stop accepting, finish the replies in
        progress, flush streams.

        Three ordered steps: (1) close the listening socket so no new
        connection can arrive, and stop serving open ones: a frame read
        from here on closes its connection unserved; (2) wait until every
        request already read has been served *and its reply written*;
        (3) flush every open streaming window through the cascade so no
        accepted record is lost.  Returns the stream-flush summary
        (``sessions`` / ``windows_flushed`` / ``records_flushed``).
        ``repro serve`` runs this on SIGTERM.
        """
        self._draining = True
        await self.stop()
        if self._idle is not None:
            await self._idle.wait()
        return self.service.drain_streams()

    def transport_stats(self) -> Dict[str, Any]:
        """Transport-level counters (evictions, drain state).

        ``inflight_requests`` is the live queue depth (requests read and
        not yet answered, at most one per connection) and
        ``requests_served`` the lifetime total — the two numbers
        ``repro top`` leads with.
        """
        return {
            "wire_versions": list(self.wire_versions),
            "inflight_requests": self._active_requests,
            "requests_served": self._requests_served,
            "connections_accepted": self._connections,
            "drain_timeout_s": self.drain_timeout_s,
            "slow_consumer_evictions": self._evictions,
            "draining": self._draining,
        }

    def run(self) -> None:
        """Blocking entry point (the ``repro serve`` command)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    # -- background-thread lifecycle (tests, demos, benchmarks) ----------

    def start_background(self) -> Union[str, Tuple[str, int]]:
        """Run the server on a dedicated thread; returns the bound address."""
        if self._thread is not None:
            return self.address
        ready = threading.Event()
        startup: dict = {}

        def _serve() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            # Safe unlocked: readers wait on `ready` (set below), and the
            # Event provides the happens-before for this write.
            self._thread_loop = loop  # lint: allow(CONC001)
            try:
                loop.run_until_complete(self.start())
            except Exception as exc:  # pragma: no cover - bind failures
                startup["error"] = exc
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_default_executor())
                loop.close()

        self._thread = threading.Thread(
            target=_serve, name="mood-service-server", daemon=True
        )
        self._thread.start()
        ready.wait()
        if "error" in startup:
            self._thread.join()
            self._thread = None
            raise startup["error"]
        return self.address

    def stop_background(self) -> None:
        """Stop a :meth:`start_background` server and join its thread."""
        if self._thread is None:
            return
        assert self._thread_loop is not None
        self._thread_loop.call_soon_threadsafe(self._thread_loop.stop)
        self._thread.join()
        self._thread = None
        self._thread_loop = None

    def __enter__(self) -> "ServiceServer":
        self.start_background()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop_background()


# ---------------------------------------------------------------------------
# Endpoint addressing
# ---------------------------------------------------------------------------


def _check_port(port: Any, lowest: int = 1) -> int:
    """*port* if it is an ``int`` other than a ``bool`` in
    *lowest*..65535; ``lowest=0`` admits a server's ephemeral port."""
    if isinstance(port, bool) or not isinstance(port, int) or not lowest <= port <= 65535:
        raise ConfigurationError(
            f"port must be an integer in {lowest}..65535, got {port!r}"
        )
    return port


@dataclass(frozen=True)
class Endpoint:
    """One ``repro serve`` address: TCP ``(host, port)`` or a unix path."""

    host: Optional[str] = None
    port: Optional[int] = None
    unix_path: Optional[str] = None

    def __post_init__(self) -> None:
        tcp = self.host is not None and self.port is not None
        if tcp == (self.unix_path is not None):
            raise ConfigurationError(
                f"an endpoint needs either host+port or unix_path, got {self!r}"
            )
        if tcp:
            _check_port(self.port)
        name, value = ("host", self.host) if tcp else ("unix_path", self.unix_path)
        if not isinstance(value, str) or not value:
            raise ConfigurationError(
                f"an endpoint's {name} must be a non-empty string, got {value!r}"
            )

    def label(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"


def parse_endpoint(spec: Any) -> Endpoint:
    """An :class:`Endpoint` from any of the declarative spellings.

    ``"host:port"``, ``"unix:/path"``, ``("host", port)``,
    ``{"host": ..., "port": ...}``, ``{"unix": "/path"}``, or an
    :class:`Endpoint` — all JSON-friendly, so a ``ProtectionConfig`` can
    carry a cluster.
    """
    if isinstance(spec, Endpoint):
        return spec
    if isinstance(spec, str):
        if spec.startswith("unix:"):
            return Endpoint(unix_path=spec[len("unix:"):])
        host, sep, port = spec.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"endpoint {spec!r} is not 'host:port' or 'unix:/path'"
            )
        try:
            number = int(port)
        except ValueError:
            raise ConfigurationError(
                f"endpoint {spec!r} has a non-numeric port"
            ) from None
        return Endpoint(host=host, port=number)
    if isinstance(spec, Mapping):
        if "unix" in spec:
            return Endpoint(unix_path=spec["unix"])
        if "unix_path" in spec:
            return Endpoint(unix_path=spec["unix_path"])
        if "host" in spec and "port" in spec:
            return Endpoint(host=spec["host"], port=spec["port"])
        raise ConfigurationError(
            f"endpoint dict needs host+port or unix, got {dict(spec)!r}"
        )
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return Endpoint(host=spec[0], port=spec[1])
    raise ConfigurationError(f"cannot parse endpoint {spec!r}")


# ---------------------------------------------------------------------------
# Synchronous client SDK
# ---------------------------------------------------------------------------


class ServiceClient(ServiceClientBase):
    """Synchronous socket client for a running :class:`ServiceServer`.

    Connects over TCP (``host``/``port``) or a unix socket
    (``unix_path``); usable as a context manager.  All verb methods
    (``protect`` / ``upload`` / ``query_count`` / ``top_cells`` /
    ``stats``) come from :class:`~repro.service.api.ServiceClientBase`.

    Every request is tagged with a connection-unique id and the reply's
    id is verified.  A transport failure (timeout, reset, truncated,
    corrupted, or mismatched reply) leaves the stream mid-frame, so the
    client closes the socket and marks itself **broken**: every later
    call raises :class:`~repro.errors.TransportError` until
    :meth:`reconnect` — the one thing it must never do is read the stale
    tail of the aborted exchange as the answer to a fresh request.

    With ``auth_key`` set, the HMAC-blake2b handshake runs as part of
    every (re)connect, before any verb; a rejected key raises
    :class:`~repro.errors.AuthenticationError`.

    With v2 in ``wire_versions`` (the default) every (re)connect ends
    with a ``hello`` exchange: a modern server answers and both sides
    switch to binary framing; a pre-negotiation (v1-only) server
    rejects the hello by version, the client reads its own supported
    versions out of the mismatch error, and the connection simply
    stays on v1 JSON — the downgrade is not an error.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        timeout: float = 60.0,
        auth_key: Optional[bytes] = None,
        wire_versions: Sequence[int] = SUPPORTED_WIRE_VERSIONS,
    ) -> None:
        versions = check_wire_versions(wire_versions)
        self._endpoint = Endpoint(host=host, port=port, unix_path=unix_path)
        self._timeout = check_positive("timeout", timeout)
        self._auth_key = None if auth_key is None else bytes(auth_key)
        self._wire_versions = versions
        self._wire_version = WIRE_VERSION
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self._broken: Optional[str] = None
        self._connect()

    def _connect(self) -> None:
        endpoint = self._endpoint
        if endpoint.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(endpoint.unix_path)
        else:
            sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=self._timeout
            )
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._broken = None
        # Fresh connection, fresh framing: negotiation is per-connection.
        # The handshake runs before any verb, the hello after it.
        self._wire_version = WIRE_VERSION
        if self._auth_key is not None:
            self._setup(
                client_auth_handshake(self._auth_key), "handshake",
                self._request_unlocked,
            )
        if max(self._wire_versions) > WIRE_VERSION:
            self._wire_version = self._setup(
                client_negotiation(self._wire_versions), "negotiation", self._hello
            )

    def _setup(
        self,
        steps: Generator[Message, Message, Any],
        what: str,
        exchange: Callable[[Message], Message],
    ) -> Any:
        """Drive one sans-IO connection-setup generator (the auth
        handshake or the hello) through *exchange* to its return value.

        Any failure marks the connection broken.  An envelope that is
        neither a credential failure nor a version mismatch (e.g. a
        pre-auth server) surfaces as ``ServiceError`` — the server's
        limitation, not a bad key.
        """
        try:
            message = next(steps)
            while True:
                message = steps.send(exchange(message))
        except StopIteration as done:
            return done.value
        except AuthenticationError:
            self._mark_broken(f"{what} failed")
            raise
        except HandshakeRefused as exc:
            self._mark_broken(f"{what} failed")
            raise ServiceError(
                exc.reply.code, f"{what} failed: {exc.reply.message}"
            ) from None
        except ProtocolError:
            self._mark_broken(f"{what} violated the protocol")
            raise

    def _mark_broken(self, why: str) -> None:
        self._broken = why
        self._close_quietly()

    def _close_quietly(self) -> None:
        try:
            if self._file is not None:
                self._file.close()
        except OSError:
            pass
        finally:
            self._file = None
            try:
                if self._sock is not None:
                    self._sock.close()
            except OSError:
                pass
            finally:
                self._sock = None

    def reconnect(self) -> "ServiceClient":
        """Drop the (possibly broken) connection and dial a fresh one."""
        with self._lock:
            self._close_quietly()
            self._connect()
        return self

    def request(self, message: Message) -> Message:
        with self._lock:
            if self._broken is not None:
                raise TransportError(
                    f"connection is broken ({self._broken}); call reconnect()"
                )
            return self._request_unlocked(message)

    def _hello(self, hello: HelloRequest) -> Message:
        """One hello exchange; the server switches framing at its reply,
        and every frame after it (both directions) uses the agreed one."""
        request_id = next(self._ids)
        return self._exchange(encode_hello_frame(hello, request_id=request_id), request_id)

    def _read_exact(self, n: int) -> bytes:
        """Read exactly ``n`` bytes (``BufferedReader.read`` may return
        short under a socket timeout mid-fill); short = peer hung up."""
        assert self._file is not None
        chunks = []
        remaining = n
        while remaining > 0:
            chunk = self._file.read(remaining)
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_binary_reply(self) -> bytes:
        """Read one length-prefixed v2 frame off the negotiated stream."""
        prefix = self._read_exact(V2_PREFIX_LEN)
        if not prefix:
            return b""
        if len(prefix) < V2_PREFIX_LEN:
            self._mark_broken("server closed the connection mid-frame")
            raise TransportError("server closed the connection mid-frame")
        try:
            total = v2_frame_remainder(prefix)
        except ProtocolError as exc:
            self._mark_broken(f"unparseable reply: {exc}")
            raise ProtocolError(
                f"unparseable reply ({exc}); the connection is broken — "
                "reconnect() to continue"
            ) from exc
        rest = self._read_exact(total)
        if len(rest) < total:
            self._mark_broken("server closed the connection mid-frame")
            raise TransportError("server closed the connection mid-frame")
        return prefix + rest

    def _request_unlocked(self, message: Message) -> Message:
        request_id = next(self._ids)
        payload = encode_message_for(
            self._wire_version, message, request_id=request_id
        )
        return self._exchange(payload, request_id)

    def _exchange(self, payload: bytes, request_id: int) -> Message:
        assert self._file is not None
        try:
            self._file.write(payload)
            self._file.flush()
            if self._wire_version >= WIRE_VERSION_V2:
                line = self._read_binary_reply()
            else:
                line = self._file.readline(MAX_LINE_BYTES)
        except (socket.timeout, TimeoutError) as exc:
            # The reply (or its tail) is still in flight: this
            # stream can never be trusted again.
            self._mark_broken("request timed out mid-frame")
            raise TransportError(
                f"request timed out after {self._timeout}s; the stream is "
                "desynchronised — reconnect() to continue"
            ) from exc
        except OSError as exc:
            self._mark_broken(f"socket error: {exc}")
            raise TransportError(f"socket error mid-request: {exc}") from exc
        if not line:
            self._mark_broken("server closed the connection mid-request")
            raise TransportError("server closed the connection mid-request")
        if self._wire_version < WIRE_VERSION_V2 and not line.endswith(b"\n"):
            # A reply longer than the cap would leave its tail unread
            # and desynchronize every later request — fail loudly.
            self._mark_broken("oversized reply truncated mid-frame")
            raise ProtocolError(
                f"reply exceeds {MAX_LINE_BYTES} bytes (truncated); "
                "the connection is broken — reconnect() to continue"
            )
        try:
            reply_id, reply = decode_frame_any(line)
        except ProtocolError as exc:
            # A reply this side cannot parse (corrupted bytes, invalid
            # JSON) proves the stream is compromised: frame boundaries
            # can no longer be trusted, so the connection is done.
            self._mark_broken(f"unparseable reply: {exc}")
            raise ProtocolError(
                f"unparseable reply ({exc}); the connection is broken — "
                "reconnect() to continue"
            ) from exc
        # An untagged reply is a v1 server that ignored the (unknown
        # to it) id key; with exactly one request outstanding the
        # FIFO contract still pairs it correctly.  Only a *wrong*
        # tag proves the stream is desynchronised.
        if reply_id is not None and reply_id != request_id:
            self._mark_broken(
                f"reply id {reply_id!r} does not match request id "
                f"{request_id!r} (stream desynchronised)"
            )
            raise ProtocolError(
                f"reply id {reply_id!r} does not match request id "
                f"{request_id!r}; the connection is broken — "
                "reconnect() to continue"
            )
        return reply

    def close(self) -> None:
        with self._lock:
            self._close_quietly()
            self._broken = "client closed"

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Asynchronous client + multi-endpoint cluster
# ---------------------------------------------------------------------------


class AsyncServiceClient:
    """Asyncio client: many requests in flight on one connection.

    Each request is tagged with a connection-unique id; a background
    reader task matches reply lines to pending futures by id, so replies
    may arrive in any order.  Any transport fault (EOF, reset, oversized
    line, timeout) fails *every* pending request with
    :class:`~repro.errors.TransportError` and poisons the client — the
    cluster layer treats that as "this endpoint is gone".
    """

    def __init__(
        self,
        endpoint: Endpoint,
        timeout: float = 120.0,
        auth_key: Optional[bytes] = None,
        wire_versions: Sequence[int] = SUPPORTED_WIRE_VERSIONS,
    ) -> None:
        versions = check_wire_versions(wire_versions)
        self.endpoint = endpoint
        self.timeout = check_positive("timeout", timeout)
        self._auth_key = None if auth_key is None else bytes(auth_key)
        self._wire_versions = versions
        self._wire_version = WIRE_VERSION
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[RequestId, asyncio.Future] = {}
        self._ids = itertools.count()
        self._broken: Optional[str] = None

    async def connect(self) -> "AsyncServiceClient":
        if self.endpoint.unix_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.endpoint.unix_path, limit=MAX_LINE_BYTES
            )
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self.endpoint.host, self.endpoint.port, limit=MAX_LINE_BYTES
            )
        self._wire_version = WIRE_VERSION
        if max(self._wire_versions) > WIRE_VERSION:
            # Negotiate *before* the background reader starts: the hello
            # reply is read inline, so there is no race between the
            # framing switch and the loop's first read, and the loop is
            # born knowing its final framing.
            self._wire_version = await self._setup(
                client_negotiation(self._wire_versions), "negotiation", self._hello
            )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        if self._auth_key is not None:
            await self._setup(
                client_auth_handshake(self._auth_key), "handshake", self.request
            )
        return self

    async def _setup(
        self,
        steps: Generator[Message, Message, Any],
        what: str,
        exchange: Callable[[Message], Awaitable[Message]],
    ) -> Any:
        """Drive one sans-IO connection-setup generator (the hello or
        the auth handshake) through *exchange* to its return value.

        A credential failure raises :class:`AuthenticationError`; any
        other failure poisons the client and surfaces as
        :class:`TransportError`, so the cluster layer fails over to the
        other endpoints.
        """
        try:
            message = next(steps)
            while True:
                message = steps.send(await exchange(message))
        except StopIteration as done:
            return done.value
        except AuthenticationError:
            self._poison(f"{what} failed")
            raise
        except (HandshakeRefused, ProtocolError, OSError, asyncio.TimeoutError) as exc:
            self._poison(f"{what} failed: {exc}")
            raise TransportError(
                f"{what} with {self.endpoint.label()} failed: {exc}"
            ) from None

    async def _hello(self, hello: HelloRequest) -> Message:
        """One hello exchange, its reply read inline."""
        assert self._reader is not None and self._writer is not None
        request_id = next(self._ids)
        self._writer.write(encode_hello_frame(hello, request_id=request_id))
        await self._writer.drain()
        try:
            line = await asyncio.wait_for(
                read_frame(self._reader, binary=False), self.timeout
            )
        except asyncio.IncompleteReadError:
            line = b""
        if not line:
            raise ConnectionError("the peer closed the connection during negotiation")
        try:
            reply_id, reply = decode_frame(line)
        except ProtocolError as exc:
            raise ProtocolError(f"unparseable negotiation reply: {exc}") from None
        if reply_id is not None and reply_id != request_id:
            raise ProtocolError(
                f"reply id {reply_id!r} does not match {request_id!r}"
            )
        return reply

    async def _read_loop(self) -> None:
        assert self._reader is not None
        # The loop starts after negotiation, so the framing is fixed for
        # the connection's whole lifetime.
        binary = self._wire_version >= WIRE_VERSION_V2
        try:
            while True:
                line = await read_frame(self._reader, binary)
                if not line:
                    raise TransportError(
                        f"{self.endpoint.label()} closed the connection"
                    )
                try:
                    reply_id, message = decode_frame_any(line)
                except ProtocolError as exc:
                    reply_id = getattr(exc, "request_id", None)
                    future = self._pending.pop(reply_id, None)
                    if future is not None and not future.done():
                        # The frame was readable enough to carry a known
                        # id: fail that one request, keep the stream.
                        future.set_exception(exc)
                        continue
                    # Unattributable garbage (corrupted bytes, invalid
                    # JSON): frame boundaries can no longer be trusted —
                    # fail everything now instead of stalling every
                    # pending request to its timeout.
                    raise TransportError(
                        f"unparseable reply from {self.endpoint.label()}: {exc}"
                    ) from exc
                if reply_id is None:
                    # A pre-request-id server ignored the "id" key.  This
                    # client always pipelines, so positional pairing is
                    # unsafe — fail every pending request *now* rather
                    # than letting each stall its full timeout.
                    raise TransportError(
                        f"{self.endpoint.label()} does not echo request ids "
                        "(pre-request-id server?); use the synchronous "
                        "ServiceClient for v1 endpoints"
                    )
                future = self._pending.pop(reply_id, None)
                if future is not None and not future.done():
                    future.set_result(message)
        except asyncio.CancelledError:
            raise
        except asyncio.IncompleteReadError:
            self._poison(f"{self.endpoint.label()} closed the connection mid-frame")
        except ProtocolError as exc:  # from read_frame: the stream is lost
            self._poison(f"{self.endpoint.label()}: {exc}")
        except TransportError as exc:
            self._poison(str(exc), exc)
        except Exception as exc:  # noqa: BLE001 - any fault poisons the link
            self._poison(f"read loop failed: {exc}", exc)

    def _poison(self, why: str, cause: Optional[Exception] = None) -> None:
        if self._broken is None:
            self._broken = why
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                exc = cause if isinstance(cause, TransportError) else TransportError(why)
                future.set_exception(exc)
        if self._writer is not None:
            self._writer.close()

    async def request(self, message: Message) -> Message:
        """Send *message*; resolves to the reply (possibly an envelope)."""
        if self._broken is not None:
            raise TransportError(
                f"connection to {self.endpoint.label()} is broken: {self._broken}"
            )
        assert self._writer is not None
        request_id = next(self._ids)
        # Encode before registering the future: an unencodable message
        # (e.g. a NaN coordinate, ProtocolError) must propagate to the
        # caller without leaking a never-resolved pending entry.
        payload = encode_message_for(
            self._wire_version, message, request_id=request_id
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(payload)
            await self._writer.drain()
        except (OSError, ConnectionError) as exc:
            self._pending.pop(request_id, None)
            self._poison(f"write failed: {exc}", None)
            raise TransportError(
                f"write to {self.endpoint.label()} failed: {exc}"
            ) from exc
        try:
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError as exc:
            # The reply may still land on the shared stream later; the
            # whole connection is no longer trustworthy.
            self._poison(f"request timed out after {self.timeout}s", None)
            raise TransportError(
                f"request to {self.endpoint.label()} timed out after "
                f"{self.timeout}s"
            ) from exc

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        self._poison("client closed")

