"""Membership plumbing: client subscriptions and worker announcers.

Two small pieces sit on either side of the coordinator's registry:

* :class:`MembershipSubscription` — how an
  :class:`~repro.cluster.elastic.ElasticClusterClient` learns the
  membership: the coordinator endpoint to poll, how often, and with
  what credentials.  Plain configuration; the elastic client owns the
  polling coroutine so the subscription needs no event loop of its own.
* :class:`ClusterAnnouncer` — how a worker (``repro serve
  --cluster-join``) keeps itself registered: a daemon thread that joins
  on start, heartbeats on an interval, re-joins automatically when the
  coordinator restarts (a heartbeat answered ``known=False``), and
  leaves gracefully on stop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError, check_count, check_positive
from repro.service.rpc import ServiceClient, parse_endpoint

#: Default worker heartbeat interval (seconds).
DEFAULT_HEARTBEAT_S = 5.0

#: Default coordinator poll interval for elastic clients (seconds).
DEFAULT_POLL_S = 0.5


@dataclass(frozen=True)
class MembershipSubscription:
    """Where and how an elastic client polls cluster membership."""

    coordinator: str
    poll_s: float = DEFAULT_POLL_S
    timeout: float = 10.0
    auth_key: Optional[bytes] = None

    def __post_init__(self) -> None:
        parse_endpoint(self.coordinator)  # fail fast on a bad spec
        check_positive("membership poll_s", self.poll_s)
        check_positive("membership timeout", self.timeout)


class ClusterAnnouncer:
    """Keep one worker endpoint registered with a coordinator.

    ``start()`` spawns a daemon thread that immediately joins, then
    heartbeats every ``heartbeat_s``.  Transport faults are absorbed
    (the thread reconnects and re-joins on the next tick), so a flapping
    coordinator cannot take a worker down with it.  ``stop()`` sends a
    graceful ``cluster_leave`` when the coordinator is reachable.
    """

    def __init__(
        self,
        coordinator: str,
        advertise: str,
        *,
        worker_id: str = "",
        capacity: int = 0,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        timeout: float = 10.0,
        auth_key: Optional[bytes] = None,
    ) -> None:
        self.coordinator = parse_endpoint(coordinator)
        self.advertise = parse_endpoint(advertise).label()
        self.worker_id = worker_id
        self.capacity = check_count("capacity", capacity, minimum=0)
        self.heartbeat_s = check_positive("heartbeat_s", heartbeat_s)
        self.timeout = check_positive("timeout", timeout)
        self.auth_key = None if auth_key is None else bytes(auth_key)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._client: Optional[ServiceClient] = None
        #: Guards the introspection fields and the cached client: the
        #: announcer thread writes them while callers poll.
        self._mutex = threading.Lock()
        #: Introspection: True once the registry has acknowledged us.
        self.joined = False
        self.heartbeats = 0
        self.join_attempts = 0

    def _connect(self) -> ServiceClient:
        if self._client is None:
            client = ServiceClient(
                host=self.coordinator.host,
                port=self.coordinator.port,
                unix_path=self.coordinator.unix_path,
                timeout=self.timeout,
                auth_key=self.auth_key,
            )
            with self._mutex:
                self._client = client
        return self._client

    def _drop_client(self) -> None:
        client = self._client
        if client is not None:
            try:
                client.close()
            except Exception:
                pass
            with self._mutex:
                self._client = None

    def _tick(self) -> None:
        client = self._connect()
        if not self.joined:
            with self._mutex:
                self.join_attempts += 1
            client.cluster_join(
                self.advertise, worker_id=self.worker_id, capacity=self.capacity
            )
            with self._mutex:
                self.joined = True
            return
        ack = client.cluster_heartbeat(self.advertise)
        with self._mutex:
            self.heartbeats += 1
        if not ack.known:
            # The coordinator restarted (fresh registry): re-join now
            # rather than waiting out another interval unregistered.
            with self._mutex:
                self.joined = False
            self._tick()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick()
            except (ReproError, OSError):
                # Unreachable or refusing coordinator: reconnect and
                # re-announce on the next tick.
                with self._mutex:
                    self.joined = False
                self._drop_client()
            self._stop.wait(self.heartbeat_s)
        try:
            if self.joined:
                self._connect().cluster_leave(self.advertise, reason="shutdown")
        except (ReproError, OSError):
            pass
        finally:
            with self._mutex:
                self.joined = False
            self._drop_client()

    def start(self) -> "ClusterAnnouncer":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="cluster-announcer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None
