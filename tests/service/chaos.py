"""ChaosProxy: a fault-injecting TCP relay for service-layer tests.

Sits between a client and a real ``ServiceServer`` and injects
packet-level faults on the server→client reply stream, turning one-off
"endpoint killed mid-batch" tests into a parametrized fault matrix:

======================  ====================================================
fault                   behaviour on the targeted reply frame(s)
======================  ====================================================
``none``                transparent relay (the control leg)
``delay``               hold the frame for ``delay_s``, then forward it
``drop``                swallow the frame; the connection stays up (the
                        client's timeout machinery must fire)
``truncate``            forward only the first half of the frame's bytes,
                        then close both sides (mid-frame EOF)
``corrupt``             flip bytes inside the frame, forward it (the
                        client must detect garbage, not act on it)
``disconnect``          close both sides instead of forwarding (reply
                        lost mid-exchange — the mid-reply disconnect)
``delay_ack``           forward the frame ``delay_s`` later on a timer,
                        letting *subsequent* replies overtake it — the
                        out-of-order ack (``delay`` blocks the whole
                        pump; this one reorders)
``throttle``            slow-consumer/slow-producer: the client→server
                        direction trickles through in
                        ``throttle_chunk_bytes`` slices with
                        ``throttle_sleep_s`` pauses, for every
                        connection (direction-level, not per-frame)
======================  ====================================================

Frame faults target proxy-global reply ordinals (``after_replies``
onward, ``n_faults`` frames wide), so a test can hit "the third reply
of the batch" regardless of which connection carries it; ``throttle``
is direction-level and ignores the ordinal window.  The relay is
byte-transparent for everything else — auth handshakes, request
pipelining, and request-id framing all pass through untouched.

Flapping is modelled explicitly: :meth:`ChaosProxy.go_down` kills every
live relay and **unbinds the listener**, so new dials are refused at the
TCP level (a dial-phase failure, retryable on the same endpoint);
:meth:`ChaosProxy.go_up` re-binds the same port — the endpoint
disappears and later rejoins under the same address, which is exactly
what endpoint rehabilitation must survive.

**v1 framing only**: the reply pump splits frames on newlines, so it
understands the v1 JSON-lines framing and nothing else.  Clients and
executors that talk through a proxy must pin ``wire_versions=(1,)`` /
``"wire": [1]`` — otherwise the hello exchange both shifts every reply
ordinal by one per connection and switches the stream to binary frames
the pump would mis-split.  (v2-specific fault coverage lives in
``tests/service/test_wire_v2.py``, which scripts the binary framing
directly.)
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional, Tuple

__all__ = ["ChaosProxy", "FAULTS"]

#: The fault vocabulary (flap is driven via go_down/go_up).
FAULTS = (
    "none",
    "delay",
    "drop",
    "truncate",
    "corrupt",
    "disconnect",
    "delay_ack",
    "throttle",
)


class ChaosProxy:
    """Fault-injecting TCP relay in front of one upstream endpoint."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        fault: str = "none",
        after_replies: int = 0,
        n_faults: int = 1,
        delay_s: float = 0.3,
        throttle_chunk_bytes: int = 512,
        throttle_sleep_s: float = 0.005,
        host: str = "127.0.0.1",
        start_down: bool = False,
    ) -> None:
        if fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
        self.upstream = (upstream_host, int(upstream_port))
        self.fault = fault
        self.after_replies = int(after_replies)
        self.n_faults = int(n_faults)
        self.delay_s = float(delay_s)
        self.throttle_chunk_bytes = int(throttle_chunk_bytes)
        self.throttle_sleep_s = float(throttle_sleep_s)
        self._lock = threading.Lock()
        self._updown = threading.Lock()
        self._closed = False
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._pairs: List[Tuple[socket.socket, socket.socket]] = []
        self._threads: List[threading.Thread] = []
        self.replies_relayed = 0
        self.faults_injected = 0
        self.connections_accepted = 0
        listener = self._bind(host, 0)
        self.host, self.port = listener.getsockname()
        if start_down:
            listener.close()
        else:
            self._start_accepting(listener)

    def _bind(self, host: str, port: int) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        return listener

    def _start_accepting(self, listener: socket.socket) -> None:
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,), name="chaos-accept", daemon=True
        )
        self._accept_thread.start()

    # -- public surface ---------------------------------------------------

    @property
    def endpoint(self) -> str:
        """The ``host:port`` clients should dial."""
        return f"{self.host}:{self.port}"

    @property
    def is_up(self) -> bool:
        return self._listener is not None

    def go_down(self) -> None:
        """Flap down: kill live relays; new dials are refused (ECONNREFUSED)."""
        with self._updown:
            listener, self._listener = self._listener, None
            thread, self._accept_thread = self._accept_thread, None
            if listener is not None:
                # shutdown() before close(): merely closing a listening
                # socket does not wake a thread blocked in accept().
                try:
                    listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    listener.close()
                except OSError:
                    pass
        self._kill_pairs()
        if thread is not None:
            thread.join(timeout=5.0)

    def go_up(self) -> None:
        """Flap up: re-bind the same port and start relaying again."""
        with self._updown:
            if self._closed or self._listener is not None:
                return
            self._start_accepting(self._bind(self.host, self.port))

    def close(self) -> None:
        self._closed = True
        self.go_down()
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _kill_pairs(self) -> None:
        with self._lock:
            pairs, self._pairs = self._pairs, []
        for a, b in pairs:
            self._close_pair(a, b)

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: this up-phase is over
            try:
                upstream = socket.create_connection(self.upstream, timeout=10.0)
            except OSError:
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            self.connections_accepted += 1
            with self._lock:
                self._pairs.append((conn, upstream))
            fwd = threading.Thread(
                target=self._pump_raw,
                args=(conn, upstream),
                name="chaos-c2s",
                daemon=True,
            )
            rev = threading.Thread(
                target=self._pump_replies,
                args=(upstream, conn),
                name="chaos-s2c",
                daemon=True,
            )
            self._threads += [fwd, rev]
            fwd.start()
            rev.start()

    @staticmethod
    def _close_pair(a: socket.socket, b: socket.socket) -> None:
        for sock in (a, b):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _pump_raw(self, src: socket.socket, dst: socket.socket) -> None:
        """client → server: byte-transparent (trickled under ``throttle``)."""
        throttled = self.fault == "throttle"
        if throttled:
            with self._lock:
                self.faults_injected += 1
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                if throttled:
                    # A slow producer as the server sees it: the bytes
                    # arrive, but over many small writes with pauses —
                    # the server must hold a half-read line without
                    # counting it as a request or buffering unboundedly.
                    for i in range(0, len(data), self.throttle_chunk_bytes):
                        dst.sendall(data[i : i + self.throttle_chunk_bytes])
                        time.sleep(self.throttle_sleep_s)
                else:
                    dst.sendall(data)
        except OSError:
            pass
        finally:
            self._close_pair(src, dst)

    def _take_fault_slot(self) -> bool:
        """Atomically decide whether the next reply frame is targeted."""
        with self._lock:
            ordinal = self.replies_relayed
            self.replies_relayed += 1
            hit = (
                self.after_replies
                <= ordinal
                < self.after_replies + self.n_faults
            )
            # "throttle" is direction-level (client→server), never a
            # reply-frame fault: replies relay untouched.
            if hit and self.fault not in ("none", "throttle"):
                self.faults_injected += 1
                return True
            return False

    def _pump_replies(self, src: socket.socket, dst: socket.socket) -> None:
        """server → client: frame-aware, applies the fault policy."""
        buffer = b""
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                buffer += data
                while b"\n" in buffer:
                    frame, buffer = buffer.split(b"\n", 1)
                    frame += b"\n"
                    if not self._take_fault_slot():
                        dst.sendall(frame)
                        continue
                    if self.fault == "delay":
                        time.sleep(self.delay_s)
                        dst.sendall(frame)
                    elif self.fault == "drop":
                        continue  # swallowed; connection stays up
                    elif self.fault == "truncate":
                        dst.sendall(frame[: max(1, len(frame) // 2)])
                        return  # finally closes both sides: mid-frame EOF
                    elif self.fault == "corrupt":
                        mutated = bytearray(frame)
                        for i in range(1, len(mutated) - 1, 7):
                            mutated[i] ^= 0x5A
                        dst.sendall(bytes(mutated))
                    elif self.fault == "disconnect":
                        return  # reply lost, connection torn down
                    elif self.fault == "delay_ack":
                        # Deliver *later*, off-thread: replies behind
                        # this one overtake it, so an id-matching client
                        # sees acks out of order (and a FIFO client must
                        # not mis-correlate).
                        def _late(frame: bytes = frame) -> None:
                            try:
                                dst.sendall(frame)
                            except OSError:
                                pass

                        timer = threading.Timer(self.delay_s, _late)
                        timer.daemon = True
                        timer.start()
        except OSError:
            pass
        finally:
            self._close_pair(src, dst)
