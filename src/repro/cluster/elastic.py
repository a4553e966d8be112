"""Cluster dispatch: work stealing over a pool of service endpoints.

This is the one dispatch loop behind the ``remote`` executor, whether
its pool is a static ``endpoints`` list (fixed membership) or is
discovered from a coordinator.  Every ``(shard, request)`` pair sits in
one shared queue and each live member runs ``max_inflight`` worker
loops that pull from it, so a busy member simply pulls less.

**The dispatch rule.**  Placement (user → shard) is content-addressed:
users are placed into shards by stable blake2b hashing before dispatch
(``_partition_items``), and byte identity rests on it.  Which endpoint
serves a shard depends on load: every request carries exactly one
user's trace and each endpoint derives pseudonyms and noise per user
from its own fresh session state, so the endpoint never touches the
published bytes.  A request whose frame may have reached an endpoint is
never offered to that endpoint again — the serving side's pseudonym
counter could have advanced, so a replay there could drift.  Dial-phase
failures (provably no frame sent) keep the member retryable.

**Fault policy.**  A transport fault (refused, reset, timed out,
mid-frame EOF, corrupted reply) moves a member through its
:class:`EndpointHealth` (healthy → probation → retired).  One dead
connection costs one budget point however many requests it carried.
An authentication failure is fatal for the whole batch and charges no
budget: a wrong key fails identically everywhere.

**Membership.**  Pass a
:class:`~repro.cluster.membership.MembershipSubscription` and the
client polls the coordinator's ``cluster_membership_request`` during a
run, adding newly-joined members (their workers spawn immediately and
start stealing *not-yet-dispatched* work) and marking departed members
so they take no new work while requests already in flight on them
finish.  With a subscription active the client may even start with
**zero** endpoints: requests wait up to ``join_grace_s`` for a member
to appear before failing.  Without one the membership is fixed and a
request no member can serve fails at once.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    TransportError,
)
from repro.service.api import (
    ClusterMembershipRequest,
    ClusterMembershipResponse,
    ErrorEnvelope,
    Message,
    MessageEncodeError,
)
from repro.service.rpc import (
    SUPPORTED_WIRE_VERSIONS,
    AsyncServiceClient,
    Endpoint,
    parse_endpoint,
)
from repro.cluster.registry import STATE_LEFT

#: How long queued requests wait for a member to appear (or rejoin)
#: when a membership subscription is active before giving up.
DEFAULT_JOIN_GRACE_S = 30.0


class _EndpointUnavailable(Exception):
    """Internal: the endpoint went on probation / got retired while this
    coroutine was queued for its connection lock — re-evaluate, nothing
    new to record."""


class _DialFailed(Exception):
    """Internal: connecting (or handshaking) failed before any request
    frame was sent.  The failure is already recorded against the
    endpoint; the request itself remains retryable there later."""


@dataclass
class EndpointHealth:
    """Rehabilitation state for one endpoint (healthy → probation → retired).

    * **healthy** — ``failures == 0``: serves requests normally.
    * **probation** — after a fault the endpoint sits out until
      ``available_at`` (exponential backoff per consecutive failure);
      once the deadline passes, the member's worker probes it with a
      fresh connection.  A served request resets the state to healthy —
      a *flapping* endpoint rejoins.
    * **retired** — more than ``retry_budget`` consecutive failures:
      permanently out for this client's lifetime — a *dead* endpoint
      stops being probed.
    """

    failures: int = 0
    retired: bool = False
    #: Monotonic deadline while on probation (0.0 = available now).
    available_at: float = 0.0
    #: Connections already blamed, so one poisoned connection that kills
    #: many in-flight requests counts as ONE failure, not many.
    blamed: List[Any] = field(default_factory=list)


class _Item:
    """One queued request: placement, payload, result future."""

    __slots__ = ("index", "shard", "message", "future", "attempted", "last")

    def __init__(
        self, index: int, shard: int, message: Message, future: "asyncio.Future"
    ) -> None:
        self.index = index
        self.shard = shard
        self.message = message
        self.future = future
        #: Labels of members this request's frame may have reached —
        #: never offered to them again (byte-identity rule).
        self.attempted: Set[str] = set()
        self.last: Optional[Exception] = None


class _Member:
    """One endpoint in the pool: connection, health, worker tasks."""

    __slots__ = (
        "endpoint",
        "label",
        "source",
        "health",
        "client",
        "conn_lock",
        "departed",
        "workers",
        "requests_served",
        "shards_served",
    )

    def __init__(self, endpoint: Endpoint, source: str) -> None:
        self.endpoint = endpoint
        self.label = endpoint.label()
        self.source = source  # "seed" | "membership" | "manual"
        self.health = EndpointHealth()
        self.client: Optional[AsyncServiceClient] = None
        # asyncio primitives must be created inside the running loop.
        self.conn_lock: Optional[asyncio.Lock] = None
        self.departed = False
        self.workers: List["asyncio.Task"] = []
        self.requests_served = 0
        self.shards_served: Set[int] = set()


class ElasticClusterClient:
    """Work-stealing dispatch over a fixed or dynamic pool of endpoints.

    ``run()`` takes ``(shard, request)`` pairs and returns the replies
    positionally.  ``max_inflight`` is the number of worker loops (and
    requests in flight) per member; ``retry_budget`` and ``backoff_*``
    set the :class:`EndpointHealth` policy.  Without ``membership`` (a
    coordinator subscription, polled during :meth:`run`) the pool is
    fixed to ``endpoints``; with one, ``join_grace_s`` bounds how long
    unservable requests wait for a (re)join before failing.

    :meth:`add_endpoint` / :meth:`mark_departed` are the programmatic
    membership surface (the subscription uses them too); during a run
    they must be called on the run's event loop.
    """

    def __init__(
        self,
        endpoints: Sequence[Any] = (),
        *,
        membership: Optional[Any] = None,
        timeout: float = 120.0,
        max_inflight: int = 4,
        retry_budget: int = 3,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 2.0,
        auth_key: Optional[bytes] = None,
        join_grace_s: float = DEFAULT_JOIN_GRACE_S,
        wire_versions: Sequence[int] = SUPPORTED_WIRE_VERSIONS,
    ) -> None:
        parsed = [parse_endpoint(e) for e in endpoints]
        if not parsed and membership is None:
            raise ConfigurationError(
                "ElasticClusterClient needs >= 1 endpoint or a membership "
                "subscription"
            )
        if int(max_inflight) < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if int(retry_budget) < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {retry_budget}"
            )
        if float(backoff_base) <= 0 or float(backoff_max) <= 0:
            raise ConfigurationError(
                f"backoff times must be positive, got base={backoff_base}, "
                f"max={backoff_max}"
            )
        if float(backoff_factor) < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        if float(join_grace_s) <= 0:
            raise ConfigurationError(
                f"join_grace_s must be positive, got {join_grace_s}"
            )
        self.timeout = float(timeout)
        self.max_inflight = int(max_inflight)
        self.retry_budget = int(retry_budget)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_max = float(backoff_max)
        self.auth_key = None if auth_key is None else bytes(auth_key)
        # Validated per connection by AsyncServiceClient; a v1-only
        # member simply downgrades its own connection.
        self.wire_versions = tuple(sorted({int(v) for v in wire_versions}))
        self.join_grace_s = float(join_grace_s)
        self._membership = membership
        self._members: Dict[str, _Member] = {}
        for endpoint in parsed:
            label = endpoint.label()
            if label not in self._members:
                self._members[label] = _Member(endpoint, "seed")
        self._cond: Optional[asyncio.Condition] = None
        self._pending: Deque[_Item] = deque()
        self._items: List[_Item] = []
        self._running = False

    # -- membership surface ----------------------------------------------

    def add_endpoint(self, spec: Any, source: str = "manual") -> bool:
        """Add (or revive) a member; returns True when it is new.

        During a run, the member's workers spawn immediately and start
        stealing queued — i.e. not-yet-dispatched — requests.
        """
        endpoint = parse_endpoint(spec)
        label = endpoint.label()
        member = self._members.get(label)
        if member is not None:
            revived = member.departed and not member.health.retired
            member.departed = False
            if revived and self._running:
                self._spawn_workers(member)
            return False
        member = _Member(endpoint, source)
        self._members[label] = member
        if self._running:
            self._spawn_workers(member)
        return True

    def mark_departed(self, spec: Any) -> bool:
        """Stop offering *new* work to a member (graceful departure).

        Requests already in flight on it are allowed to finish — the
        never-replay rule forbids moving them anyway.
        """
        try:
            label = parse_endpoint(spec).label()
        except ConfigurationError:
            return False
        member = self._members.get(label)
        if member is None or member.departed:
            return False
        member.departed = True
        return True

    def health(self) -> Dict[str, EndpointHealth]:
        """Per-member rehabilitation state (introspection for tests)."""
        return {label: m.health for label, m in self._members.items()}

    def member_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-member dispatch accounting (the bench's joiner assertion)."""
        return {
            label: {
                "state": self._state_of(m),
                "source": m.source,
                "requests_served": m.requests_served,
                "shards_served": sorted(m.shards_served),
            }
            for label, m in self._members.items()
        }

    def _state_of(self, member: _Member) -> str:
        if member.health.retired:
            return "retired"
        if member.departed:
            return "departed"
        if member.health.available_at > time.monotonic():
            return "probation"
        return "healthy"

    # -- health bookkeeping ----------------------------------------------

    def _record_failure(self, member: _Member, client: Optional[Any]) -> None:
        health = member.health
        if client is not None:
            if any(blamed is client for blamed in health.blamed):
                return  # this connection's death was already counted
            health.blamed.append(client)
        health.failures += 1
        if health.failures > self.retry_budget:
            health.retired = True
            return
        backoff = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (health.failures - 1),
        )
        health.available_at = time.monotonic() + backoff

    def _record_success(self, member: _Member) -> None:
        health = member.health
        health.failures = 0
        health.available_at = 0.0
        health.blamed.clear()

    # -- connection management -------------------------------------------

    async def _connect(self, member: _Member) -> AsyncServiceClient:
        if member.conn_lock is None:
            member.conn_lock = asyncio.Lock()
        async with member.conn_lock:
            client = member.client
            if client is not None and client._broken is None:
                return client
            member.client = None
            health = member.health
            if health.retired or health.available_at > time.monotonic():
                raise _EndpointUnavailable()
            client = AsyncServiceClient(
                member.endpoint,
                timeout=self.timeout,
                auth_key=self.auth_key,
                wire_versions=self.wire_versions,
            )
            try:
                await client.connect()
            except AuthenticationError:
                await client.close()
                raise
            except (TransportError, ProtocolError, ConnectionError, OSError) as exc:
                await client.close()
                # One down endpoint costs one budget point per actual
                # dial, recorded under the connection lock.
                self._record_failure(member, None)
                raise _DialFailed() from exc
            member.client = client
            return client

    # -- the work-stealing scheduler -------------------------------------

    def _eligible(self, item: _Item) -> bool:
        return any(
            not m.health.retired
            and not m.departed
            and m.label not in item.attempted
            for m in self._members.values()
        )

    def _fail_unservable_locked(self, why: Optional[str] = None) -> None:
        for item in list(self._pending):
            if self._eligible(item):
                continue
            self._pending.remove(item)
            if not item.future.done():
                reason = why or f"all {len(self._members)} endpoints failed"
                item.future.set_exception(
                    TransportError(f"{reason}; last error: {item.last}")
                )

    def _pop_locked(self, member: _Member) -> Optional[_Item]:
        for item in self._pending:
            if member.label not in item.attempted:
                self._pending.remove(item)
                return item
        return None

    async def _requeue(self, item: _Item, exc: Optional[Exception]) -> None:
        if exc is not None:
            item.last = exc
        assert self._cond is not None
        async with self._cond:
            if not item.future.done():
                self._pending.append(item)
            if self._membership is None:
                # Fixed membership: a request with nowhere left to go fails
                # now (and a retirement may strand other queued items).
                self._fail_unservable_locked()
            self._cond.notify_all()

    async def _fatal_all(self, exc: Exception) -> None:
        assert self._cond is not None
        async with self._cond:
            self._pending.clear()
            for item in self._items:
                if not item.future.done():
                    item.future.set_exception(exc)
            self._cond.notify_all()

    async def _serve(self, member: _Member, item: _Item) -> None:
        try:
            client = await self._connect(member)
        except _EndpointUnavailable:
            # State moved while queued for the lock — nothing to record.
            await self._requeue(item, None)
            return
        except _DialFailed as exc:
            # No frame was sent: the member stays retryable for this
            # request once its probation expires.
            await self._requeue(item, exc.__cause__)
            return
        except AuthenticationError as exc:
            await self._fatal_all(exc)
            return
        if client._broken is not None:
            # Broke before our frame went out — retryable here later.
            self._record_failure(member, client)
            await self._requeue(
                item,
                TransportError(
                    f"connection to {member.label} broke while queued: "
                    f"{client._broken}"
                ),
            )
            return
        try:
            reply = await client.request(item.message)
        except AuthenticationError as exc:
            await self._fatal_all(exc)
            return
        except MessageEncodeError as exc:
            # Our own message is unencodable: deterministic on every
            # member — propagate without blaming the endpoint.
            if not item.future.done():
                item.future.set_exception(exc)
            return
        except (TransportError, ProtocolError, ConnectionError, OSError) as exc:
            # The frame may have reached the member: never again there.
            self._record_failure(member, client)
            item.attempted.add(member.label)
            await self._requeue(item, exc)
            return
        if isinstance(reply, ErrorEnvelope) and reply.code == "auth":
            await self._fatal_all(AuthenticationError(reply.message))
            return
        self._record_success(member)
        member.requests_served += 1
        member.shards_served.add(item.shard)
        if not item.future.done():
            item.future.set_result(reply)

    async def _worker(self, member: _Member) -> None:
        assert self._cond is not None
        while True:
            item: Optional[_Item] = None
            delay: Optional[float] = None
            async with self._cond:
                while True:
                    if member.departed or member.health.retired:
                        return
                    now = time.monotonic()
                    if member.health.available_at > now:
                        delay = member.health.available_at - now
                        break
                    item = self._pop_locked(member)
                    if item is not None:
                        break
                    await self._cond.wait()
            if item is None:
                # On probation: sleep (bounded, so departure/retirement
                # are noticed promptly), then probe again.
                await asyncio.sleep(min((delay or 0.0) + 1e-3, 0.5))
                continue
            await self._serve(member, item)

    def _spawn_workers(self, member: _Member) -> None:
        member.workers = [w for w in member.workers if not w.done()]
        while len(member.workers) < self.max_inflight:
            member.workers.append(asyncio.ensure_future(self._worker(member)))

    # -- membership polling ----------------------------------------------

    def _apply_membership(self, entries: Sequence[Dict[str, Any]]) -> None:
        seen: Set[str] = set()
        for entry in entries:
            label = entry.get("endpoint")
            if not label or entry.get("state") == STATE_LEFT:
                continue
            try:
                seen.add(parse_endpoint(label).label())
            except ConfigurationError:
                continue
        for label in seen:
            self.add_endpoint(label, source="membership")
        for member in self._members.values():
            if (
                member.source == "membership"
                and not member.departed
                and member.label not in seen
            ):
                member.departed = True

    async def _membership_loop(self) -> None:
        sub = self._membership
        assert sub is not None
        endpoint = parse_endpoint(sub.coordinator)
        auth_key = self.auth_key if sub.auth_key is None else sub.auth_key
        client: Optional[AsyncServiceClient] = None
        last_epoch: Optional[int] = None
        try:
            while True:
                try:
                    if client is None or client._broken is not None:
                        if client is not None:
                            await client.close()
                        client = AsyncServiceClient(
                            endpoint,
                            timeout=sub.timeout,
                            auth_key=auth_key,
                            wire_versions=self.wire_versions,
                        )
                        await client.connect()
                    reply = await client.request(ClusterMembershipRequest())
                except AuthenticationError as exc:
                    await self._fatal_all(exc)
                    return
                except (
                    TransportError,
                    ProtocolError,
                    ConnectionError,
                    OSError,
                ):
                    # Coordinator unreachable: scheduling keeps running
                    # on the last known membership.
                    await asyncio.sleep(sub.poll_s)
                    continue
                if isinstance(reply, ErrorEnvelope) and reply.code == "auth":
                    await self._fatal_all(AuthenticationError(reply.message))
                    return
                if (
                    isinstance(reply, ClusterMembershipResponse)
                    and reply.epoch != last_epoch
                ):
                    last_epoch = reply.epoch
                    self._apply_membership(reply.members)
                    assert self._cond is not None
                    async with self._cond:
                        self._cond.notify_all()
                await asyncio.sleep(sub.poll_s)
        finally:
            if client is not None:
                await client.close()

    async def _grace_loop(self) -> None:
        """Fail requests no live member can serve after ``join_grace_s``.

        Only runs with a membership subscription: a fixed pool fails
        unservable requests immediately.
        """
        assert self._cond is not None
        tick = max(0.05, min(0.25, self.join_grace_s / 4))
        since: Optional[float] = None
        while True:
            await asyncio.sleep(tick)
            async with self._cond:
                stuck = any(not self._eligible(it) for it in self._pending)
                if not stuck:
                    since = None
                    continue
                now = time.monotonic()
                if since is None:
                    since = now
                if now - since < self.join_grace_s:
                    continue
                since = None
                self._fail_unservable_locked(
                    f"no servable cluster member within {self.join_grace_s}s"
                )

    # -- dispatch ---------------------------------------------------------

    async def run(
        self, requests: Sequence[Tuple[int, Message]]
    ) -> List[Message]:
        """Dispatch every ``(shard, request)``; replies positionally."""
        loop = asyncio.get_running_loop()
        self._cond = asyncio.Condition()
        self._items = [
            _Item(i, shard, message, loop.create_future())
            for i, (shard, message) in enumerate(requests)
        ]
        self._pending = deque(self._items)
        self._running = True
        helpers: List["asyncio.Task"] = []
        try:
            for member in list(self._members.values()):
                if not member.departed and not member.health.retired:
                    self._spawn_workers(member)
            if self._membership is not None:
                helpers.append(asyncio.ensure_future(self._membership_loop()))
                helpers.append(asyncio.ensure_future(self._grace_loop()))
            else:
                async with self._cond:
                    # A fully-retired fixed pool must fail, not hang.
                    self._fail_unservable_locked()
            results = await asyncio.gather(
                *(item.future for item in self._items), return_exceptions=True
            )
        finally:
            self._running = False
            tasks = helpers + [
                w for m in self._members.values() for w in m.workers
            ]
            # Cancel until every task has stopped: before Python 3.12,
            # asyncio.wait_for swallows a cancellation that lands just as
            # its inner future completes, and the task would run on.
            pending = set(tasks)
            while pending:
                for task in pending:
                    task.cancel()
                _, pending = await asyncio.wait(pending, timeout=0.1)
            await asyncio.gather(*tasks, return_exceptions=True)
            for member in self._members.values():
                member.workers = []
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return list(results)

    async def close(self) -> None:
        for member in self._members.values():
            if member.client is not None:
                await member.client.close()
                member.client = None
