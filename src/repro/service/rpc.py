"""Socket transport for the protection service (TCP or unix domain).

The server is an asyncio shell around
:class:`repro.service.api.ProtectionService`: JSON lines in, JSON lines
out, connections multiplexed on the event loop while protection work
runs on the pool.  Every connection starts on v1 JSON framing; a
client may offer the negotiated v2 binary framing with a ``hello``
exchange (see ``docs/SERVICE.md``), after which both directions carry
length-prefixed frames with columnar ndarray payloads — a v1-only peer
never sees a v2 frame, and ``ServiceServer(wire_versions=(1,))`` pins
an endpoint to v1 for mixed-version clusters.  Requests that carry an
``"id"`` tag are handled
*concurrently* per connection — each reply echoes its request's id, so
a pipelining client can correlate replies arriving out of order — under
a server-wide in-flight semaphore that provides backpressure: when
``max_inflight`` requests are being served, the server stops reading
new lines and the kernel's TCP window pushes back on the clients.
Untagged requests keep the v1 FIFO contract (handled inline, strictly
in order), so old clients work unchanged.

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
:class:`AsyncServiceClient` connections: placement (user → shard) is
content-addressed, which endpoint serves a shard depends on load, and a
request whose frame may have reached an endpoint is never offered to
that endpoint again.  This module holds only the transports.

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
import socket
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    ServiceError,
    TransportError,
)
from repro.service.api import (
    AuthChallenge,
    AuthHandshakeRefused,
    AuthRequest,
    AuthResponse,
    ErrorEnvelope,
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
    client_auth_handshake,
    decode_frame,
    decode_frame_any,
    encode_hello_frame,
    encode_message,
    encode_message_for,
    encode_reply,
    encode_reply_for,
    load_auth_key,
    materialize_frame,
    materialize_frame_v2,
    negotiate_wire_version,
    new_auth_nonce,
    parse_frame_envelope,
    parse_frame_v2,
    peer_versions_from_error,
    v2_frame_lengths,
    verify_auth_proof,
)

#: Generous per-line cap: a month-long trace at 1 Hz is ~10 MB of JSON.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Default bound on concurrently-served requests (`repro serve --workers`).
DEFAULT_MAX_INFLIGHT = 32

#: Default bound on the summed size of tagged request lines being served
#: at once, across all connections.  Complements ``max_inflight`` (a
#: *count* bound): 32 small queries and 32 month-long traces cost very
#: different amounts of memory.
DEFAULT_MAX_INFLIGHT_BYTES = 256 * 1024 * 1024

#: How long a reply write may sit in :meth:`StreamWriter.drain` before
#: the connection is declared a slow consumer and evicted.
DEFAULT_DRAIN_TIMEOUT_S = 30.0


class _FrameReadError(Exception):
    """Internal: the connection's next frame can never be served (it is
    oversized, or violates the negotiated framing).  The message is
    reported to the peer and the connection closed — after either fault
    the byte stream cannot be resynchronised."""


class _ByteBudget:
    """Counting byte semaphore with an oversized-frame escape hatch.

    ``acquire(n)`` blocks while admitting *n* more bytes would exceed
    the budget **and** something else is already admitted; a frame
    larger than the whole budget is therefore admitted alone (when
    ``used == 0``) instead of deadlocking — the budget degrades to
    serial service for pathological frames rather than wedging.
    """

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.used = 0
        self._cond = asyncio.Condition()

    async def acquire(self, n: int) -> None:
        async with self._cond:
            while self.used > 0 and self.used + n > self.limit:
                await self._cond.wait()
            self.used += n

    async def release(self, n: int) -> None:
        async with self._cond:
            self.used = max(0, self.used - n)
            self._cond.notify_all()


class ServiceServer:
    """Serve a :class:`ProtectionService` over TCP or a unix socket.

    Exactly one of ``(host, port)`` or ``unix_path`` addresses the
    server.  ``port=0`` binds an ephemeral port; the bound address is
    available as :attr:`address` once started.  ``max_inflight`` bounds
    the number of tagged requests being served at once across all
    connections — the backpressure knob (``repro serve --workers``).

    With ``auth_key`` set, every connection must complete the
    HMAC-blake2b challenge/response handshake (``auth_request`` →
    ``auth_challenge`` → ``auth_request`` with proof → ``auth_response``)
    before any other verb is served: an unauthenticated request is
    answered with an ``error`` envelope of code ``auth`` **before any
    engine work** — it never reaches :meth:`ProtectionService.handle`,
    never takes an in-flight slot.  Without a key the handshake is a
    no-op (an ``auth_request`` is answered ``ok`` immediately), so keyed
    clients interoperate with keyless servers and vice versa.
    """

    def __init__(
        self,
        service: ProtectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        auth_key: Optional[bytes] = None,
        max_inflight_bytes: int = DEFAULT_MAX_INFLIGHT_BYTES,
        max_conn_inflight_bytes: Optional[int] = None,
        drain_timeout_s: Optional[float] = DEFAULT_DRAIN_TIMEOUT_S,
        wire_versions: Sequence[int] = SUPPORTED_WIRE_VERSIONS,
    ) -> None:
        versions = tuple(sorted({int(v) for v in wire_versions}))
        if WIRE_VERSION not in versions:
            raise ConfigurationError(
                f"wire_versions must include v{WIRE_VERSION} (the JSON "
                f"floor every peer speaks), got {tuple(wire_versions)!r}"
            )
        unknown = set(versions) - set(SUPPORTED_WIRE_VERSIONS)
        if unknown:
            raise ConfigurationError(
                f"unsupported wire_versions {sorted(unknown)}; this build "
                f"speaks {SUPPORTED_WIRE_VERSIONS}"
            )
        if int(max_inflight) < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if int(max_inflight_bytes) < 1:
            raise ConfigurationError(
                f"max_inflight_bytes must be >= 1, got {max_inflight_bytes}"
            )
        if max_conn_inflight_bytes is not None and int(max_conn_inflight_bytes) < 1:
            raise ConfigurationError(
                "max_conn_inflight_bytes must be >= 1 (or None), "
                f"got {max_conn_inflight_bytes}"
            )
        if drain_timeout_s is not None and float(drain_timeout_s) <= 0.0:
            raise ConfigurationError(
                f"drain_timeout_s must be > 0 (or None), got {drain_timeout_s}"
            )
        if auth_key is not None and not auth_key:
            raise ConfigurationError("auth_key must be non-empty bytes (or None)")
        self.service = service
        self.host = host
        self.port = int(port)
        self.unix_path = unix_path
        self.max_inflight = int(max_inflight)
        self.max_inflight_bytes = int(max_inflight_bytes)
        self.max_conn_inflight_bytes = (
            None if max_conn_inflight_bytes is None else int(max_conn_inflight_bytes)
        )
        self.drain_timeout_s = (
            None if drain_timeout_s is None else float(drain_timeout_s)
        )
        self.auth_key = None if auth_key is None else bytes(auth_key)
        #: Versions this endpoint will negotiate; ``(1,)`` makes it a
        #: v1-only endpoint (hellos are answered, but always with v1, so
        #: the connection never switches to binary framing).
        self.wire_versions = versions
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight: Optional[asyncio.Semaphore] = None
        self._byte_budget: Optional[_ByteBudget] = None
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

        A client that stops reading its socket parks every reply behind
        the kernel send buffer; without a deadline those replies (and
        their in-flight slots and bytes) are pinned forever.  After
        ``drain_timeout_s`` the transport is aborted — RST, no lingering
        FIN handshake — and the connection handler unwinds through its
        normal disconnect path.
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

    async def _serve_tagged(
        self,
        request_id: RequestId,
        message: Message,
        write_lock: asyncio.Lock,
        writer: asyncio.StreamWriter,
        cost: int,
        conn_budget: Optional[_ByteBudget],
        conn: Dict[str, Any],
    ) -> None:
        """One concurrently-handled request; owns one semaphore slot.

        The slot (and the request's byte reservation) is held until the
        reply has been written (or the write failed): releasing earlier
        would let a client that pipelines without reading accumulate
        unbounded finished replies behind the write lock, defeating the
        backpressure bound.  The reply's framing is decided under the
        write lock: a hello that switches the connection to v2 while
        this request is in flight switches every reply written after it
        in the byte stream too.
        """
        assert self._inflight is not None
        self._active_requests += 1
        try:
            try:
                reply = await self.service.handle(message)
            except asyncio.CancelledError:
                raise
            except Exception:
                # handle() promises never to raise; a service that breaks
                # that contract (or a test that injects a fault) kills the
                # connection rather than leaving the client waiting forever.
                writer.close()
                return
            try:
                async with write_lock:
                    writer.write(
                        encode_reply_for(
                            conn["wire_version"], reply, request_id=request_id
                        )
                    )
                    await self._drain_or_evict(writer)
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            self._active_requests -= 1
            self._requests_served += 1
            self._inflight.release()
            if self._byte_budget is not None:
                await self._byte_budget.release(cost)
            if conn_budget is not None:
                await conn_budget.release(cost)

    def _auth_reply(self, message: AuthRequest, conn_auth: Dict[str, Any]) -> Message:
        """One handshake leg; mutates the connection's auth state.

        The nonce is single-use: a failed proof (or a proof without a
        preceding challenge) must restart the handshake, so an attacker
        cannot grind one challenge offline while the connection idles.
        """
        if self.auth_key is None:
            return AuthResponse(ok=True)
        if message.proof is None:
            conn_auth["nonce"] = new_auth_nonce()
            return AuthChallenge(nonce=conn_auth["nonce"])
        nonce = conn_auth.pop("nonce", None)
        if nonce is None:
            return ErrorEnvelope(
                code="auth",
                message="no challenge outstanding; send auth_request without proof first",
            )
        if not verify_auth_proof(self.auth_key, nonce, message.proof):
            return ErrorEnvelope(
                code="auth", message="bad credentials: proof does not match"
            )
        conn_auth["ok"] = True
        return AuthResponse(ok=True)

    async def _read_frame(
        self, reader: asyncio.StreamReader, wire_version: int
    ) -> bytes:
        """The connection's next frame, in its negotiated framing.

        Returns ``b""`` at EOF (including a peer that vanished
        mid-frame — there is nobody left to answer).  Raises
        :class:`_FrameReadError` for streams that can never be served.

        v2 framing reads the fixed 16-byte prefix first and enforces the
        size cap from the *declared* lengths before the payload read —
        an oversized binary frame is rejected without ever being
        buffered, and its byte cost is known exactly (prefix + header +
        columnar blocks) before a budget is charged.
        """
        if wire_version < WIRE_VERSION_V2:
            try:
                return await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                raise _FrameReadError(
                    f"line exceeds {MAX_LINE_BYTES} bytes"
                ) from None
        try:
            prefix = await reader.readexactly(V2_PREFIX_LEN)
        except asyncio.IncompleteReadError:
            return b""
        try:
            header_len, blocks_len = v2_frame_lengths(prefix)
        except ProtocolError as exc:
            raise _FrameReadError(
                f"peer broke the negotiated v2 framing: {exc}"
            ) from None
        total = header_len + blocks_len
        if V2_PREFIX_LEN + total > MAX_LINE_BYTES:
            raise _FrameReadError(
                f"frame of {V2_PREFIX_LEN + total} bytes exceeds "
                f"{MAX_LINE_BYTES} bytes"
            )
        try:
            return prefix + await reader.readexactly(total)
        except asyncio.IncompleteReadError:
            return b""

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Cancellation (server shutdown) is absorbed so the connection
        # task always finishes cleanly: a task left in cancelled state
        # trips asyncio's stream done-callback on Python 3.11.
        assert self._inflight is not None
        self._connections += 1
        write_lock = asyncio.Lock()
        tasks: set = set()
        conn_auth: Dict[str, Any] = {"ok": self.auth_key is None}
        # Per-connection negotiated framing; every connection starts on
        # v1 JSON and only a hello exchange can raise it, so a v1-only
        # peer never sees a v2 frame.
        conn: Dict[str, Any] = {"wire_version": WIRE_VERSION}
        conn_budget: Optional[_ByteBudget] = None
        if self.max_conn_inflight_bytes is not None:
            conn_budget = _ByteBudget(self.max_conn_inflight_bytes)
        try:
            while True:
                try:
                    line = await self._read_frame(reader, conn["wire_version"])
                except _FrameReadError as exc:
                    async with write_lock:
                        writer.write(
                            encode_reply_for(
                                conn["wire_version"],
                                ErrorEnvelope(code="protocol", message=str(exc)),
                            )
                        )
                        await self._drain_or_evict(writer)
                    break
                if not line:
                    break
                if conn["wire_version"] < WIRE_VERSION_V2 and not line.strip():
                    continue
                try:
                    # Envelope first, body second: an unauthenticated
                    # frame is rejected on its *type* alone, before its
                    # payload is materialised into traces/arrays — a
                    # keyless peer cannot make the server build objects.
                    blocks = None
                    if conn["wire_version"] >= WIRE_VERSION_V2:
                        request_id, slug, cls, body, blocks = parse_frame_v2(line)
                    else:
                        request_id, slug, cls, body = parse_frame_envelope(line)
                    if not conn_auth["ok"] and cls not in (
                        AuthRequest,
                        HelloRequest,
                    ):
                        # Rejected before any engine work: no body
                        # build, no service.handle, no in-flight slot.
                        # (hello is exempt like auth: version discovery
                        # is transport plumbing, not a served verb.)
                        payload = encode_reply_for(
                            conn["wire_version"],
                            ErrorEnvelope(
                                code="auth",
                                message="authentication required: complete "
                                "the auth handshake before any other request",
                            ),
                            request_id=request_id,
                        )
                        async with write_lock:
                            writer.write(payload)
                            await self._drain_or_evict(writer)
                        continue
                    if blocks is None:
                        message = materialize_frame(request_id, slug, cls, body)
                    else:
                        message = materialize_frame_v2(
                            request_id, slug, cls, body, blocks
                        )
                except ProtocolError as exc:
                    async with write_lock:
                        writer.write(
                            encode_reply_for(
                                conn["wire_version"],
                                ErrorEnvelope(code="protocol", message=str(exc)),
                                request_id=getattr(exc, "request_id", None),
                            )
                        )
                        await self._drain_or_evict(writer)
                    continue
                if isinstance(message, AuthRequest):
                    # Transport-level: handled inline (tagged or not),
                    # never reaches the service facade.
                    reply = self._auth_reply(message, conn_auth)
                    payload = encode_reply_for(
                        conn["wire_version"], reply, request_id=request_id
                    )
                    async with write_lock:
                        writer.write(payload)
                        await self._drain_or_evict(writer)
                    if isinstance(reply, ErrorEnvelope):
                        # Failed proof (or proof without challenge):
                        # drop the connection, so every further guess
                        # costs a fresh TCP dial + challenge — an online
                        # brute force cannot grind one socket.
                        break
                    continue
                if isinstance(message, HelloRequest):
                    # Transport-level: the reply is the framing switch
                    # point.  The agreed version applies to every frame
                    # after this reply in the byte stream — concurrent
                    # in-flight replies pick it up at their own write —
                    # so the write and the switch share the write lock.
                    agreed = negotiate_wire_version(
                        message.versions, self.wire_versions
                    )
                    payload = encode_reply_for(
                        conn["wire_version"],
                        HelloResponse(version=agreed, versions=self.wire_versions),
                        request_id=request_id,
                    )
                    async with write_lock:
                        writer.write(payload)
                        await self._drain_or_evict(writer)
                        conn["wire_version"] = agreed
                    continue
                if request_id is None:
                    # Untagged = legacy FIFO: handled inline, replies in
                    # request order, exactly the v1 behaviour.
                    self._active_requests += 1
                    try:
                        payload = encode_reply_for(
                            conn["wire_version"], await self.service.handle(message)
                        )
                    finally:
                        self._active_requests -= 1
                        self._requests_served += 1
                    async with write_lock:
                        writer.write(payload)
                        await self._drain_or_evict(writer)
                    continue
                # Tagged: acquire an in-flight slot *before* reading the
                # next line — a full server stops consuming input, and
                # TCP flow control backpressures the client.  Byte
                # budgets are reserved first (per-connection, then
                # global) so one connection full of huge frames cannot
                # starve the global budget while also holding count
                # slots: a blocked connection stops being read, and TCP
                # pushes back.  The cost is the frame's actual size on
                # the wire — for a v2 frame that is prefix + header +
                # columnar blocks, not a stringified estimate.
                cost = len(line)
                if conn_budget is not None:
                    await conn_budget.acquire(cost)
                if self._byte_budget is not None:
                    await self._byte_budget.acquire(cost)
                await self._inflight.acquire()
                task = asyncio.ensure_future(
                    self._serve_tagged(
                        request_id,
                        message,
                        write_lock,
                        writer,
                        cost,
                        conn_budget,
                        conn,
                    )
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            if tasks:
                # Let in-flight replies finish (the client may be
                # half-closed but still reading).  Server stop can
                # cancel this handler a second time while it drains
                # here — swallow it and fall through to the close, or
                # asyncio logs a spurious CancelledError at teardown.
                try:
                    await asyncio.gather(*tasks, return_exceptions=True)
                except asyncio.CancelledError:
                    pass
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
        self._inflight = asyncio.Semaphore(self.max_inflight)
        self._byte_budget = _ByteBudget(self.max_inflight_bytes)
        self._draining = False
        # Let the service's metrics verb see transport-level queue
        # depth and byte budgets (docs/CLUSTER.md: operator surface).
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
        """Graceful shutdown: stop accepting, finish in-flight, flush streams.

        Three ordered steps: (1) close the listening socket so no new
        connection can arrive; (2) acquire every in-flight slot, which
        completes only once all tagged requests have been served *and
        their replies written*; (3) flush every open streaming window
        through the cascade so no accepted record is lost.  Returns the
        stream-flush summary (``sessions`` / ``windows_flushed`` /
        ``records_flushed``).  ``repro serve`` runs this on SIGTERM.
        """
        self._draining = True
        await self.stop()
        if self._inflight is not None:
            for _ in range(self.max_inflight):
                await self._inflight.acquire()
        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(None, self.service.drain_streams)

    def transport_stats(self) -> Dict[str, Any]:
        """Transport-level counters (budgets, evictions, drain state).

        ``inflight_requests`` is the live queue depth (requests being
        handled right now) and ``requests_served`` the lifetime total —
        the two numbers ``repro top`` leads with.
        """
        used = 0 if self._byte_budget is None else self._byte_budget.used
        return {
            "wire_versions": list(self.wire_versions),
            "max_inflight": self.max_inflight,
            "inflight_requests": self._active_requests,
            "requests_served": self._requests_served,
            "connections_accepted": self._connections,
            "max_inflight_bytes": self.max_inflight_bytes,
            "inflight_bytes": used,
            "max_conn_inflight_bytes": self.max_conn_inflight_bytes,
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
            return Endpoint(host=host, port=int(port))
        except ValueError:
            raise ConfigurationError(
                f"endpoint {spec!r} has a non-numeric port"
            ) from None
    if isinstance(spec, Mapping):
        if "unix" in spec:
            return Endpoint(unix_path=str(spec["unix"]))
        if "unix_path" in spec:
            return Endpoint(unix_path=str(spec["unix_path"]))
        if "host" in spec and "port" in spec:
            return Endpoint(host=str(spec["host"]), port=int(spec["port"]))
        raise ConfigurationError(
            f"endpoint dict needs host+port or unix, got {dict(spec)!r}"
        )
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return Endpoint(host=str(spec[0]), port=int(spec[1]))
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
        if unix_path is None and (host is None or port is None):
            raise ConfigurationError(
                "ServiceClient needs either host+port or unix_path"
            )
        versions = tuple(sorted({int(v) for v in wire_versions}))
        if WIRE_VERSION not in versions:
            raise ConfigurationError(
                f"wire_versions must include v{WIRE_VERSION} (the JSON "
                f"fallback every peer speaks); got {list(versions)}"
            )
        unknown = [v for v in versions if v not in SUPPORTED_WIRE_VERSIONS]
        if unknown:
            raise ConfigurationError(
                f"unsupported wire version(s) {unknown}; this build speaks "
                f"{list(SUPPORTED_WIRE_VERSIONS)}"
            )
        self._host = host
        self._port = None if port is None else int(port)
        self._unix_path = unix_path
        self._timeout = timeout
        self._auth_key = None if auth_key is None else bytes(auth_key)
        self._wire_versions = versions
        self._wire_version = WIRE_VERSION
        self._lock = threading.Lock()
        self._next_id = 0
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self._broken: Optional[str] = None
        self._connect()

    def _connect(self) -> None:
        if self._unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(self._unix_path)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._broken = None
        # Fresh connection, fresh framing: negotiation is per-connection.
        self._wire_version = WIRE_VERSION
        if self._auth_key is not None:
            self._handshake()
        if max(self._wire_versions) > WIRE_VERSION:
            self._negotiate()

    def _handshake(self) -> None:
        """Authenticate the fresh connection (runs before any verb).

        Drives the shared sans-IO state machine
        (:func:`~repro.service.api.client_auth_handshake`); only the
        failure classification is transport-specific: a non-``auth``
        envelope (e.g. a pre-auth server) surfaces as ``ServiceError``
        — the server's limitation, not a credential failure.
        """
        steps = client_auth_handshake(self._auth_key)
        try:
            request = next(steps)
            while True:
                request = steps.send(self._request_unlocked(request))
        except StopIteration:
            return  # authenticated (or the server never required auth)
        except AuthenticationError:
            self._mark_broken("handshake failed")
            raise
        except AuthHandshakeRefused as exc:
            self._mark_broken("handshake failed")
            raise ServiceError(
                exc.reply.code, f"handshake failed: {exc.reply.message}"
            ) from None
        except ProtocolError:
            self._mark_broken("handshake violated the protocol")
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

    def _negotiate(self) -> None:
        """Offer v2 framing; downgrade silently if the peer is v1-only.

        The hello frame is deliberately tagged ``"v": 2`` so a
        pre-negotiation server rejects it on *version* (an error whose
        wording names the versions it speaks) rather than on the
        unknown slug.  That rejection is the downgrade signal: the
        connection stays on v1 JSON and stays healthy.  Only a reply
        that is neither a hello answer nor a recognisable version
        mismatch marks the connection broken.
        """
        request_id = self._next_id
        self._next_id += 1
        hello = HelloRequest(versions=self._wire_versions)
        payload = encode_hello_frame(hello, request_id=request_id)
        reply = self._exchange(payload, request_id)
        if isinstance(reply, HelloResponse):
            agreed = int(reply.version)
            if agreed not in self._wire_versions:
                self._mark_broken("negotiation violated the protocol")
                raise ProtocolError(
                    f"server agreed to wire v{agreed}, which this client "
                    f"never offered ({list(self._wire_versions)}); the "
                    "connection is broken — reconnect() to continue"
                )
            # The server switched at its reply; every frame from here
            # on (both directions) uses the agreed framing.
            self._wire_version = agreed
            return
        if isinstance(reply, ErrorEnvelope):
            if peer_versions_from_error(reply.message) is not None:
                # A v1-only peer: keep talking JSON, nothing is broken.
                self._wire_version = WIRE_VERSION
                return
            self._mark_broken("negotiation rejected")
            raise ServiceError(
                reply.code, f"negotiation failed: {reply.message}"
            )
        self._mark_broken("negotiation violated the protocol")
        raise ProtocolError(
            f"expected hello_response or error during negotiation, got "
            f"{type(reply).__name__}; the connection is broken — "
            "reconnect() to continue"
        )

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
            header_len, blocks_len = v2_frame_lengths(prefix)
        except ProtocolError as exc:
            self._mark_broken(f"unparseable reply: {exc}")
            raise ProtocolError(
                f"unparseable reply ({exc}); the connection is broken — "
                "reconnect() to continue"
            ) from exc
        total = header_len + blocks_len
        if V2_PREFIX_LEN + total > MAX_LINE_BYTES:
            self._mark_broken("oversized reply")
            raise ProtocolError(
                f"reply declares {V2_PREFIX_LEN + total} bytes, over the "
                f"{MAX_LINE_BYTES} byte cap; the connection is broken — "
                "reconnect() to continue"
            )
        rest = self._read_exact(total)
        if len(rest) < total:
            self._mark_broken("server closed the connection mid-frame")
            raise TransportError("server closed the connection mid-frame")
        return prefix + rest

    def _request_unlocked(self, message: Message) -> Message:
        request_id = self._next_id
        self._next_id += 1
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
        versions = tuple(sorted({int(v) for v in wire_versions}))
        if WIRE_VERSION not in versions:
            raise ConfigurationError(
                f"wire_versions must include v{WIRE_VERSION} (the JSON "
                f"fallback every peer speaks); got {list(versions)}"
            )
        unknown = [v for v in versions if v not in SUPPORTED_WIRE_VERSIONS]
        if unknown:
            raise ConfigurationError(
                f"unsupported wire version(s) {unknown}; this build speaks "
                f"{list(SUPPORTED_WIRE_VERSIONS)}"
            )
        self.endpoint = endpoint
        self.timeout = timeout
        self._auth_key = None if auth_key is None else bytes(auth_key)
        self._wire_versions = versions
        self._wire_version = WIRE_VERSION
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[RequestId, asyncio.Future] = {}
        self._next_id = 0
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
            await self._negotiate()
        self._reader_task = asyncio.ensure_future(self._read_loop())
        if self._auth_key is not None:
            await self._handshake()
        return self

    async def _negotiate(self) -> None:
        """Offer v2 framing inline; downgrade silently on a v1-only peer.

        Mirrors :meth:`ServiceClient._negotiate`: a hello answer
        switches the connection to the agreed framing; a version
        mismatch whose wording names the peer's versions keeps it on
        v1 JSON (not an error); anything else poisons the client.
        """
        assert self._reader is not None and self._writer is not None
        request_id = self._next_id
        self._next_id += 1
        hello = HelloRequest(versions=self._wire_versions)
        try:
            self._writer.write(encode_hello_frame(hello, request_id=request_id))
            await self._writer.drain()
            line = await asyncio.wait_for(
                self._reader.readline(), self.timeout
            )
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            self._poison(f"negotiation failed: {exc}", None)
            raise TransportError(
                f"negotiation with {self.endpoint.label()} failed: {exc}"
            ) from exc
        except (asyncio.LimitOverrunError, ValueError) as exc:
            self._poison("negotiation reply oversized", None)
            raise TransportError(
                f"negotiation reply from {self.endpoint.label()} exceeds "
                f"{MAX_LINE_BYTES} bytes"
            ) from exc
        if not line:
            self._poison("connection closed during negotiation", None)
            raise TransportError(
                f"{self.endpoint.label()} closed the connection during "
                "negotiation"
            )
        try:
            reply_id, reply = decode_frame(line)
        except ProtocolError as exc:
            self._poison(f"unparseable negotiation reply: {exc}", None)
            raise TransportError(
                f"unparseable negotiation reply from "
                f"{self.endpoint.label()}: {exc}"
            ) from exc
        if reply_id is not None and reply_id != request_id:
            self._poison("negotiation reply id mismatch", None)
            raise TransportError(
                f"negotiation reply id {reply_id!r} from "
                f"{self.endpoint.label()} does not match {request_id!r}"
            )
        if isinstance(reply, HelloResponse):
            agreed = int(reply.version)
            if agreed not in self._wire_versions:
                self._poison("negotiation violated the protocol", None)
                raise TransportError(
                    f"{self.endpoint.label()} agreed to wire v{agreed}, "
                    f"which this client never offered "
                    f"({list(self._wire_versions)})"
                )
            self._wire_version = agreed
            return
        if isinstance(reply, ErrorEnvelope):
            if peer_versions_from_error(reply.message) is not None:
                # A v1-only peer: keep talking JSON, nothing is broken.
                self._wire_version = WIRE_VERSION
                return
            self._poison("negotiation rejected", None)
            raise TransportError(
                f"negotiation with {self.endpoint.label()} failed: "
                f"[{reply.code}] {reply.message}"
            )
        self._poison("negotiation violated the protocol", None)
        raise TransportError(
            f"expected hello_response or error from "
            f"{self.endpoint.label()} during negotiation, got "
            f"{type(reply).__name__}"
        )

    async def _handshake(self) -> None:
        """Authenticate before the connection carries any verb.

        Same sans-IO state machine as the sync client; here a
        non-``auth`` envelope (e.g. a pre-auth server) surfaces as
        :class:`TransportError` so the cluster layer fails over to the
        other endpoints instead of treating it as a credential failure.
        """
        steps = client_auth_handshake(self._auth_key)
        try:
            request = next(steps)
            while True:
                request = steps.send(await self.request(request))
        except StopIteration:
            return  # authenticated (or the server never required auth)
        except AuthenticationError:
            self._poison("handshake failed")
            raise
        except AuthHandshakeRefused as exc:
            self._poison("handshake failed")
            raise TransportError(
                f"handshake with {self.endpoint.label()} failed: "
                f"[{exc.reply.code}] {exc.reply.message}"
            ) from None
        except ProtocolError:
            self._poison("handshake violated the protocol")
            raise

    async def _read_loop(self) -> None:
        assert self._reader is not None
        # The loop starts after negotiation, so the framing is fixed for
        # the connection's whole lifetime.
        binary = self._wire_version >= WIRE_VERSION_V2
        try:
            while True:
                if binary:
                    try:
                        prefix = await self._reader.readexactly(V2_PREFIX_LEN)
                    except asyncio.IncompleteReadError as exc:
                        if not exc.partial:
                            raise TransportError(
                                f"{self.endpoint.label()} closed the "
                                "connection"
                            ) from exc
                        raise TransportError(
                            f"{self.endpoint.label()} closed the connection "
                            "mid-frame"
                        ) from exc
                    try:
                        header_len, blocks_len = v2_frame_lengths(prefix)
                    except ProtocolError as exc:
                        raise TransportError(
                            f"{self.endpoint.label()} broke the negotiated "
                            f"v2 framing: {exc}"
                        ) from exc
                    total = header_len + blocks_len
                    if V2_PREFIX_LEN + total > MAX_LINE_BYTES:
                        raise TransportError(
                            f"reply from {self.endpoint.label()} declares "
                            f"{V2_PREFIX_LEN + total} bytes, over the "
                            f"{MAX_LINE_BYTES} byte cap"
                        )
                    try:
                        line = prefix + await self._reader.readexactly(total)
                    except asyncio.IncompleteReadError as exc:
                        raise TransportError(
                            f"{self.endpoint.label()} closed the connection "
                            "mid-frame"
                        ) from exc
                else:
                    line = await self._reader.readline()
                    if not line:
                        raise TransportError(
                            f"{self.endpoint.label()} closed the connection"
                        )
                    if not line.endswith(b"\n"):
                        raise TransportError(
                            f"reply from {self.endpoint.label()} exceeds "
                            f"{MAX_LINE_BYTES} bytes (truncated)"
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
        request_id = self._next_id
        self._next_id += 1
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

