"""Cluster membership registry (the coordinator's source of truth).

One :class:`ClusterRegistry` lives inside every
:class:`~repro.service.api.ProtectionService`, so any deployment can act
as the coordinator of an elastic cluster: workers announce themselves
with ``cluster_join``, refresh liveness with ``cluster_heartbeat``,
deregister with ``cluster_leave``, and clients subscribe by polling
``cluster_membership_request``.

The registry is deliberately a *seed-node* model, not a consensus
protocol: membership is advisory for scheduling only.  Correctness of
published bytes never depends on the registry being right — under the
elastic dispatcher (:mod:`repro.cluster.elastic`) any member may serve
any request, the bytes rest on per-user seeds and fresh sessions, and
the never-replay rule guards against a stale view dispatching a request
twice.  A wrong registry can only cost throughput.

Every mutation bumps ``epoch`` so subscribers can skip diffing
unchanged snapshots.  Liveness is wall-clock-free: ``time.monotonic``
ages, never absolute timestamps, so snapshots are comparable only
within the serving process (which is all the operator surface needs).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, check_positive

#: A member whose heartbeat is older than this is reported ``stale``
#: (still schedulable — the data plane finds out the hard way and
#: rehabilitation handles it; staleness is an operator signal).
DEFAULT_STALE_AFTER_S = 15.0

#: Member lifecycle states as reported in snapshots.
STATE_ALIVE = "alive"
STATE_STALE = "stale"
STATE_LEFT = "left"


def canonical_endpoint(spec: str) -> str:
    """Validate and canonicalise a member endpoint label.

    Accepts the same spellings as the socket transport:
    ``host:port`` or ``unix:/path``.  Raises
    :class:`~repro.errors.ConfigurationError` on anything else, so a
    malformed ``cluster_join`` comes back as a ``bad_request`` envelope
    instead of poisoning the registry.
    """
    # Local import: repro.service.rpc imports repro.service.api, which
    # lazily imports this module — keep module import time cycle-free.
    from repro.service.rpc import parse_endpoint

    return parse_endpoint(spec).label()


@dataclass
class ClusterMember:
    """One registered worker endpoint."""

    endpoint: str
    worker_id: str = ""
    capacity: int = 0
    state: str = STATE_ALIVE
    joined_epoch: int = 0
    inflight: int = 0
    last_seen: float = field(default_factory=time.monotonic)

    def entry(self, now: float, stale_after_s: float) -> Dict[str, Any]:
        """The open-dict wire form of this member."""
        state = self.state
        age = max(0.0, now - self.last_seen)
        if state == STATE_ALIVE and age > stale_after_s:
            state = STATE_STALE
        return {
            "endpoint": self.endpoint,
            "worker_id": self.worker_id,
            "capacity": self.capacity,
            "state": state,
            "joined_epoch": self.joined_epoch,
            "inflight": self.inflight,
            "age_s": round(age, 3),
        }


class ClusterRegistry:
    """Thread-safe membership table with an epoch counter.

    All methods may be called from any thread: service handlers run on
    the threads of the loops that serve them, heartbeat announcers on
    their own threads.
    """

    def __init__(self, stale_after_s: float = DEFAULT_STALE_AFTER_S) -> None:
        self.stale_after_s = check_positive("stale_after_s", stale_after_s)
        self._lock = threading.Lock()
        self._members: Dict[str, ClusterMember] = {}
        self._epoch = 0

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def __len__(self) -> int:
        with self._lock:
            return sum(
                1 for m in self._members.values() if m.state != STATE_LEFT
            )

    # -- mutations --------------------------------------------------------

    def join(
        self, endpoint: str, worker_id: str = "", capacity: int = 0
    ) -> Tuple[int, bool]:
        """Register *endpoint*; returns ``(epoch, rejoined)``.

        Idempotent: joining an alive member only refreshes its liveness
        clock (no epoch bump), so heartbeat-by-rejoin is cheap.  A
        member that previously left re-enters with a fresh epoch.
        """
        label = canonical_endpoint(endpoint)
        now = time.monotonic()
        with self._lock:
            member = self._members.get(label)
            rejoined = member is not None and member.state == STATE_LEFT
            if member is None or rejoined:
                self._epoch += 1
                self._members[label] = ClusterMember(
                    endpoint=label,
                    worker_id=worker_id,
                    capacity=capacity,
                    joined_epoch=self._epoch,
                    last_seen=now,
                )
            else:
                member.last_seen = now
                if worker_id:
                    member.worker_id = worker_id
                if capacity:
                    member.capacity = capacity
            return self._epoch, rejoined

    def leave(self, endpoint: str, reason: str = "") -> bool:
        """Mark *endpoint* as departed; returns False for unknown members."""
        try:
            label = canonical_endpoint(endpoint)
        except ConfigurationError:
            return False
        with self._lock:
            member = self._members.get(label)
            if member is None or member.state == STATE_LEFT:
                return False
            member.state = STATE_LEFT
            member.last_seen = time.monotonic()
            self._epoch += 1
            return True

    def heartbeat(self, endpoint: str, inflight: int = 0) -> bool:
        """Refresh liveness; returns False (re-join needed) when unknown."""
        try:
            label = canonical_endpoint(endpoint)
        except ConfigurationError:
            return False
        with self._lock:
            member = self._members.get(label)
            if member is None or member.state == STATE_LEFT:
                return False
            member.last_seen = time.monotonic()
            member.inflight = int(inflight)
            return True

    def prune(self, max_age_s: Optional[float] = None) -> int:
        """Drop departed members and those silent beyond *max_age_s*.

        Pruning is explicit (an operator/maintenance action), never a
        side effect of reads: a snapshot must show ``left``/``stale``
        members so churn is observable.
        """
        horizon = self.stale_after_s if max_age_s is None else float(max_age_s)
        now = time.monotonic()
        with self._lock:
            doomed = [
                label
                for label, m in self._members.items()
                if m.state == STATE_LEFT or (now - m.last_seen) > horizon
            ]
            for label in doomed:
                del self._members[label]
            if doomed:
                self._epoch += 1
            return len(doomed)

    # -- reads ------------------------------------------------------------

    def snapshot(self) -> Tuple[int, Tuple[Dict[str, Any], ...]]:
        """``(epoch, member entries)`` in stable (join-order) form."""
        now = time.monotonic()
        with self._lock:
            entries = tuple(
                m.entry(now, self.stale_after_s)
                for m in sorted(
                    self._members.values(), key=lambda m: m.joined_epoch
                )
            )
            return self._epoch, entries

    def alive(self) -> List[str]:
        """Labels of members currently schedulable (alive or stale)."""
        _, entries = self.snapshot()
        return [e["endpoint"] for e in entries if e["state"] != STATE_LEFT]
