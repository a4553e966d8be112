"""The unified protection engine (paper §3, Algorithm 1) and batch API.

This module is the system's front door.  It hosts:

* the MooD cascade itself — :class:`ProtectionEngine.protect` runs the
  three stages of Algorithm 1 (single-LPPM search, multi-LPPM
  composition search, recursive fine-grained splitting) for one user;
* the dataset-level batch API — :meth:`ProtectionEngine.protect_dataset`
  and :meth:`ProtectionEngine.evaluate` (the ``lppm``, ``hybrid`` and
  ``mood`` protocols) fan the per-user work out over a pluggable
  executor;
* the executors — ``serial``, ``process`` (one local
  :mod:`multiprocessing` pool) and ``remote`` (deterministic user-hash
  partitioning, dispatched to ``repro serve`` endpoints).  Per-user
  protection is embarrassingly parallel and every random draw derives
  from :func:`repro.rng.stable_user_seed`, so every backend publishes
  byte-identical datasets to the serial one;
* the declarative entry point — :meth:`ProtectionEngine.from_config`
  rebuilds the whole engine from a :class:`repro.config.ProtectionConfig`
  via the component registries.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.composition import ComposedLPPM, enumerate_compositions
from repro.core.dataset import MobilityDataset
from repro.core.featurecache import FeatureCache
from repro.core.search import CompositionSearchStrategy
from repro.core.split import split_fixed_time, split_in_half
from repro.core.trace import Trace
from repro.errors import ConfigurationError, check_count, check_integer, check_positive
from repro.lppm.base import LPPM
from repro.lppm.hybrid import HybridLPPM, HybridResult, is_protected
from repro.metrics.dataloss import data_loss
from repro.metrics.distortion import spatial_temporal_distortion
from repro.registry import (
    build,
    normalize_spec,
    register_executor,
    register_split_policy,
)
from repro.rng import make_rng, stable_user_seed
from repro.types import NO_GUESS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.attacks.base import Attack
    from repro.config import ProtectionConfig

#: Paper defaults (§4.2): recursion floor and crowdsensing chunk length.
DEFAULT_DELTA_S = 4 * 3600.0
DEFAULT_CHUNK_S = 24 * 3600.0


# ---------------------------------------------------------------------------
# Per-user results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtectedPiece:
    """One published sub-trace: obfuscated data under a fresh pseudonym."""

    pseudonym: str
    original_user: str
    #: The raw sub-trace this piece protects.
    original: Trace
    #: The published, obfuscated sub-trace (``user_id == pseudonym``).
    published: Trace
    #: Name of the protecting mechanism or composition chain.
    mechanism: str
    #: STD of the published piece against its raw sub-trace, metres.
    distortion_m: float


@dataclass
class MoodResult:
    """Outcome of protecting one user's trace."""

    user_id: str
    pieces: List[ProtectedPiece] = field(default_factory=list)
    #: Raw sub-traces that could not be protected and were erased.
    erased: List[Trace] = field(default_factory=list)
    #: Record count of the input trace.
    original_records: int = 0

    @property
    def erased_records(self) -> int:
        return sum(len(t) for t in self.erased)

    @property
    def published_records(self) -> int:
        """Records of the *raw* sub-traces that got published protected."""
        return sum(len(p.original) for p in self.pieces)

    @property
    def fully_protected(self) -> bool:
        """True iff nothing was erased (the user's "disease" was cured)."""
        return self.original_records > 0 and self.erased_records == 0

    @property
    def whole_trace_protected(self) -> bool:
        """True iff the trace was protected without fine-grained splitting."""
        return self.fully_protected and len(self.pieces) == 1

    @property
    def data_loss(self) -> float:
        """Per-user share of erased records (Eq. 7 restricted to this user)."""
        if self.original_records == 0:
            return 0.0
        return self.erased_records / self.original_records

    def mean_distortion_m(self) -> float:
        """Record-weighted mean STD over published pieces (``inf`` if none)."""
        total = self.published_records
        if total == 0:
            return float("inf")
        return sum(p.distortion_m * len(p.original) for p in self.pieces) / total


def _renew_ids(result: MoodResult) -> None:
    """Line 34: publish each piece under a fresh pseudonym ``user#k``.

    Pseudonyms are deterministic (piece order) so repeated runs publish
    identical datasets.  A single whole-trace piece keeps suffix 0 as
    well — the published id never reveals whether splitting happened.
    """
    renewed: List[ProtectedPiece] = []
    for k, piece in enumerate(result.pieces):
        pseudonym = f"{piece.original_user}#{k}"
        renewed.append(
            ProtectedPiece(
                pseudonym=pseudonym,
                original_user=piece.original_user,
                original=piece.original,
                published=piece.published.with_user(pseudonym),
                mechanism=piece.mechanism,
                distortion_m=piece.distortion_m,
            )
        )
    result.pieces = renewed


# ---------------------------------------------------------------------------
# Split policies (registry kind "split_policy")
# ---------------------------------------------------------------------------


@register_split_policy("gap")
def _split_at_largest_gap(trace: Trace) -> Tuple[Trace, Trace]:
    """Split at the largest inter-record time gap (paper §6 alternative).

    Falls back to the temporal midpoint when the trace has no interior
    gap (fewer than 3 records).
    """
    import numpy as np

    if len(trace) < 3:
        return split_in_half(trace)
    gaps = np.diff(trace.timestamps)
    cut_index = int(np.argmax(gaps)) + 1
    if cut_index <= 0 or cut_index >= len(trace):
        return split_in_half(trace)
    cut_time = float(trace.timestamps[cut_index])
    left = trace.slice_time(trace.start_time(), cut_time)
    right = trace.slice_time(cut_time, np.nextafter(trace.end_time(), np.inf))
    return (left, right)


@register_split_policy("inter-poi")
def _split_between_pois(trace: Trace) -> Tuple[Trace, Trace]:
    """Split between the two consecutive POI visits nearest the midpoint.

    Separating discriminative stays (§3.1: "splitting traces …
    inter-POIs") isolates mobility patterns better than a blind halving;
    traces with fewer than two POI visits fall back to halving.
    """
    import numpy as np

    from repro.poi.clustering import extract_pois

    visits = extract_pois(trace, diameter_m=200.0, min_dwell_s=3600.0)
    if len(visits) < 2:
        return split_in_half(trace)
    middle = trace.start_time() + trace.duration_s() / 2.0
    boundaries = [
        0.5 * (a.t_exit + b.t_enter) for a, b in zip(visits, visits[1:])
    ]
    cut_time = min(boundaries, key=lambda b: abs(b - middle))
    if cut_time <= trace.start_time() or cut_time >= trace.end_time():
        return split_in_half(trace)
    left = trace.slice_time(trace.start_time(), cut_time)
    right = trace.slice_time(cut_time, np.nextafter(trace.end_time(), np.inf))
    return (left, right)


# ---------------------------------------------------------------------------
# Executors (registry kind "executor")
# ---------------------------------------------------------------------------


# Worker-process state for ProcessExecutor: the engine is shipped once per
# worker via the pool initializer instead of once per task.
_WORKER: Dict[str, Any] = {}


def _pool_init(engine: "ProtectionEngine", method: str, kwargs: Dict[str, Any]) -> None:
    _WORKER["engine"] = engine
    _WORKER["method"] = method
    _WORKER["kwargs"] = kwargs


def _work_counters(engine: "ProtectionEngine") -> Tuple[int, int, int, int]:
    """The engine's attack-suite runs and feature-cache hits, misses and evictions."""
    cache = engine.feature_cache
    return (engine.evaluations, cache.hits, cache.misses, cache.evictions)


def _pool_run(item: Any) -> Tuple[Any, Tuple[int, ...]]:
    """One work unit in a pool worker, with the deltas of its
    :func:`_work_counters`: the worker counts in its own copy of the
    engine, so the parent adds them to its own."""
    engine = _WORKER["engine"]
    before = _work_counters(engine)
    out = getattr(engine, _WORKER["method"])(item, **_WORKER["kwargs"])
    return out, tuple(b - a for a, b in zip(before, _work_counters(engine)))


@register_executor("serial")
class SerialExecutor:
    """Run the per-item work in-process, one item at a time."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        check_count("jobs", jobs, optional=True)
        self.jobs = 1

    def map(
        self,
        engine: "ProtectionEngine",
        method: str,
        items: Sequence[Any],
        kwargs: Dict[str, Any],
    ) -> List[Any]:
        fn = getattr(engine, method)
        return [fn(item, **kwargs) for item in items]


@register_executor("process")
class ProcessExecutor:
    """Fan the per-item work out over a :mod:`multiprocessing` pool.

    Per-user protection shares no state (all randomness derives from
    :func:`repro.rng.stable_user_seed`), so results are identical to the
    serial executor; the engine's :attr:`~ProtectionEngine.evaluations`
    counter and its feature cache's hits, misses and evictions are
    reconciled from per-task deltas.  The fitted engine
    reaches each worker through the pool initializer: under the ``fork``
    start method the workers inherit it without pickling, under
    ``spawn``/``forkserver`` it is pickled once per worker.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = check_count("jobs", jobs, optional=True)

    def map(
        self,
        engine: "ProtectionEngine",
        method: str,
        items: Sequence[Any],
        kwargs: Dict[str, Any],
    ) -> List[Any]:
        import multiprocessing
        import os

        items = list(items)
        jobs = min(self.jobs or os.cpu_count() or 1, len(items) or 1)
        if jobs == 1:
            return SerialExecutor().map(engine, method, items, kwargs)
        with multiprocessing.Pool(
            jobs, initializer=_pool_init, initargs=(engine, method, kwargs)
        ) as pool:
            out = pool.map(_pool_run, items)
        cache = engine.feature_cache
        for _, (evaluations, hits, misses, evictions) in out:
            engine.evaluations += evaluations
            cache.hits += hits
            cache.misses += misses
            cache.evictions += evictions
        return [result for result, _ in out]


def _shard_of(key: str, shards: int) -> int:
    """Deterministic shard assignment (stable across processes and runs).

    Python's builtin ``hash`` is salted per process, so this uses a
    keyed-free blake2b digest instead — the same user always lands on
    the same shard on every host and in every run.
    """
    import hashlib

    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def _partition_items(
    items: Sequence[Any], shards: int
) -> Dict[int, List[Tuple[int, Any]]]:
    """Bucket *items* by ``blake2b(user_id) mod shards``, keeping indices.

    The ``remote`` executor's shard labels: they depend only on item
    content and the ``shards`` modulus, and feed only the dispatch
    client's ``shards_served`` accounting — which member serves a
    request, and the published bytes, do not depend on them.  Only
    non-empty buckets appear.
    """
    buckets: Dict[int, List[Tuple[int, Any]]] = {}
    for idx, item in enumerate(items):
        key = getattr(item, "user_id", None) or f"item-{idx}"
        buckets.setdefault(_shard_of(str(key), shards), []).append((idx, item))
    return buckets


@dataclass(frozen=True)
class RemoteProtectedPiece:
    """One published sub-trace reconstructed from the wire.

    The raw original never leaves the serving host (the protocol's
    privacy invariant), so unlike :class:`ProtectedPiece` there is no
    ``original`` trace here — only its record count, which is all the
    dataset-level readouts (data loss, record-weighted distortion) need.
    """

    pseudonym: str
    original_user: str
    #: The published, obfuscated sub-trace (``user_id == pseudonym``).
    published: Trace
    mechanism: str
    distortion_m: float
    #: Record count of the raw sub-trace this piece protects.
    original_records: int


@dataclass
class RemoteMoodResult(MoodResult):
    """A :class:`MoodResult` rebuilt from a wire ``ProtectResponse``.

    Published pieces are exact (the codec round-trips floats); erased
    raw sub-traces never crossed the wire, so erasure is represented by
    its record count alone.  Every aggregate readout
    (``data_loss``, ``fully_protected``, ``mean_distortion_m``,
    ``published_dataset``) matches the local result bit-for-bit.
    """

    #: Wire-reported erased record count (the traces stayed remote).
    remote_erased_records: int = 0

    @property
    def erased_records(self) -> int:
        return self.remote_erased_records

    @property
    def published_records(self) -> int:
        return sum(p.original_records for p in self.pieces)

    def mean_distortion_m(self) -> float:
        total = self.published_records
        if total == 0:
            return float("inf")
        return (
            sum(p.distortion_m * p.original_records for p in self.pieces) / total
        )


@register_executor("remote")
class RemoteExecutor:
    """Dispatch items to remote ``repro serve`` instances over the wire.

    Each item travels as one ``protect_request`` frame to a *remote*
    protection service.  Dispatch is the work stealing of
    :class:`repro.cluster.elastic.ElasticClusterClient`: any member
    serves any queued request (``jobs`` caps the in-flight requests per
    endpoint); a request whose frame may have reached an endpoint is
    never offered to that endpoint again, so a failing endpoint's
    requests move to the others.  The merge is positional.  The
    published dataset is byte-identical to the serial backend's because
    of four things, none of them placement: every draw derives from a
    per-user seed, each request carries one user, each endpoint serves
    an equivalently-configured, equivalently-fitted engine from a
    **fresh service session** (pseudonym counters are session-scoped),
    and the never-replay rule.  ``shards`` only labels requests for the
    client's ``member_stats()["shards_served"]`` accounting.

    Declaratively::

        {"name": "remote", "endpoints": ["10.0.0.1:7464", "10.0.0.2:7464"],
         "shards": 8, "retry_budget": 3, "backoff": {"base": 0.05, "max": 2.0},
         "auth_key_file": "/etc/mood/cluster.key"}

    With ``coordinator`` set (``"host:port"`` of any endpoint acting as
    the membership registry), the client also subscribes to the
    registry: the endpoint pool may grow and shrink mid-batch as
    workers ``cluster_join``/``leave``, ``endpoints`` become optional
    seeds, and ``poll_s`` / ``join_grace_s`` tune the subscription.
    The published bytes are unchanged — see docs/CLUSTER.md.

    Endpoints accept ``"host:port"``, ``"unix:/path"``, or
    ``{"host": ..., "port": ...}`` dicts.  ``retry_budget`` and
    ``backoff`` tune endpoint rehabilitation (a flapping endpoint sits
    out an exponential-backoff probation and rejoins; one that exhausts
    the budget is retired — see
    :class:`repro.cluster.elastic.EndpointHealth`); ``backoff`` is
    either a number (the base delay in seconds) or a ``{"base", "factor",
    "max"}`` dict.  ``auth_key_file`` (a path; or ``auth_key``, the
    literal secret) authenticates every connection with the endpoints'
    shared-secret handshake.  Only ``protect`` and ``protect_daily``
    travel the wire (the protocol's ``ProtectRequest`` vocabulary);
    other batch methods must run on a local backend.  The engine's
    ``evaluations`` counter is **not** reconciled — the evaluations
    happen on the serving hosts, which own their counters.
    """

    def __init__(
        self,
        endpoints: Sequence[Any] = (),
        shards: Optional[int] = None,
        jobs: Optional[int] = None,
        timeout: float = 120.0,
        retry_budget: int = 3,
        backoff: Union[None, float, int, Dict[str, Any]] = None,
        auth_key: Optional[str] = None,
        auth_key_file: Optional[str] = None,
        coordinator: Optional[str] = None,
        poll_s: float = 0.5,
        join_grace_s: float = 30.0,
        wire: Optional[Sequence[int]] = None,
    ) -> None:
        from repro.service.api import check_wire_versions

        if not endpoints and coordinator is None:
            raise ConfigurationError(
                "the remote executor needs at least one endpoint "
                "(or a 'coordinator' to discover members from)"
            )
        self.endpoints = list(endpoints)
        self.coordinator = coordinator
        # Only a coordinator's subscription polls, but a bad value in
        # the spec fails with or without one.
        self.poll_s = check_positive("poll_s", poll_s)
        self.join_grace_s = join_grace_s
        if shards is None:
            shards = max(1, len(self.endpoints))
        self.shards = check_count("shards", shards)
        self.jobs = check_count("jobs", jobs, optional=True)
        self.timeout = timeout
        self.retry_budget = retry_budget
        self.backoff = self._parse_backoff(backoff)
        if auth_key is not None and auth_key_file is not None:
            raise ConfigurationError(
                "give auth_key or auth_key_file, not both"
            )
        self.auth_key = auth_key
        self.auth_key_file = auth_key_file
        # Wire versions offered per connection; ``"wire": [1]`` pins a
        # batch to v1 JSON framing.
        self.wire = None if wire is None else check_wire_versions(wire)
        # The dispatch client validates the remaining knobs; building
        # one now rejects a bad spec before any request is sent.
        self._cluster(auth_key=None)

    @staticmethod
    def _parse_backoff(spec: Any) -> Dict[str, Any]:
        """``backoff`` spec → ElasticClusterClient kwargs (validated there)."""
        out = {"base": 0.05, "factor": 2.0, "max": 2.0}
        if spec is None:
            return out
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            out["base"] = spec
            return out
        if isinstance(spec, dict):
            unknown = sorted(set(spec) - set(out))
            if unknown:
                raise ConfigurationError(
                    f"unknown backoff keys {unknown}; known: {sorted(out)}"
                )
            out.update(spec)
            return out
        raise ConfigurationError(
            f"backoff must be a number or a base/factor/max dict, got {spec!r}"
        )

    def _resolve_auth_key(self) -> Optional[bytes]:
        # Resolved at dispatch time, not construction: the key file only
        # needs to exist where the batch actually runs.
        from repro.service.api import resolve_auth_key

        return resolve_auth_key(self.auth_key, self.auth_key_file)

    #: Per-endpoint in-flight default when ``jobs`` is unset.
    DEFAULT_INFLIGHT = 4

    def _cluster(self, auth_key: Optional[bytes]) -> Any:
        """One batch's dispatch client: the configured endpoints as a
        fixed membership, or members joining and leaving through the
        ``coordinator``'s registry while the batch runs."""
        from repro.cluster import ElasticClusterClient, MembershipSubscription
        from repro.service.api import SUPPORTED_WIRE_VERSIONS

        membership = None
        if self.coordinator is not None:
            membership = MembershipSubscription(
                self.coordinator,
                poll_s=self.poll_s,
                timeout=self.timeout,
                auth_key=auth_key,
            )
        return ElasticClusterClient(
            self.endpoints,
            membership=membership,
            timeout=self.timeout,
            max_inflight=self.jobs or self.DEFAULT_INFLIGHT,
            retry_budget=self.retry_budget,
            backoff_base=self.backoff["base"],
            backoff_factor=self.backoff["factor"],
            backoff_max=self.backoff["max"],
            auth_key=auth_key,
            join_grace_s=self.join_grace_s,
            wire_versions=(
                SUPPORTED_WIRE_VERSIONS if self.wire is None else self.wire
            ),
        )

    def map(
        self,
        engine: "ProtectionEngine",
        method: str,
        items: Sequence[Any],
        kwargs: Dict[str, Any],
    ) -> List[Any]:
        # Engine and service layers would import-cycle at module scope
        # (service.api imports this module), so resolve lazily.
        from repro.errors import ProtocolError, ServiceError
        from repro.service.api import ErrorEnvelope, ProtectRequest, ProtectResponse

        if method == "protect":
            daily, chunk_s = False, DEFAULT_CHUNK_S
        elif method == "protect_daily":
            daily = True
            chunk_s = float(kwargs.get("chunk_s", DEFAULT_CHUNK_S))
        else:
            raise ConfigurationError(
                f"the remote executor only serves 'protect' and 'protect_daily' "
                f"(the wire protocol's protect_request vocabulary); run "
                f"{method!r} on a local backend instead"
            )
        items = list(items)
        if not items:
            return []
        buckets = _partition_items(items, self.shards)
        shard_of_index: Dict[int, int] = {}
        for shard, bucket in buckets.items():
            for idx, _ in bucket:
                shard_of_index[idx] = shard
        requests = [
            (
                shard_of_index[idx],
                ProtectRequest(trace=item, daily=daily, chunk_s=chunk_s),
            )
            for idx, item in enumerate(items)
        ]
        auth_key = self._resolve_auth_key()

        async def dispatch() -> List[Any]:
            cluster = self._cluster(auth_key)
            try:
                return await cluster.run(requests)
            finally:
                await cluster.close()

        replies = _run_coroutine(dispatch())
        results: List[Any] = []
        for item, reply in zip(items, replies):
            if isinstance(reply, ErrorEnvelope):
                raise ServiceError(reply.code, reply.message)
            if not isinstance(reply, ProtectResponse):
                raise ProtocolError(
                    f"expected protect_response, got {type(reply).__name__}"
                )
            results.append(self._to_result(reply))
        return results

    @staticmethod
    def _to_result(reply: Any) -> RemoteMoodResult:
        result = RemoteMoodResult(
            user_id=reply.user_id,
            original_records=reply.original_records,
            remote_erased_records=reply.erased_records,
        )
        result.pieces = [
            RemoteProtectedPiece(
                pseudonym=p.pseudonym,
                original_user=reply.user_id,
                published=p.trace,
                mechanism=p.mechanism,
                distortion_m=p.distortion_m,
                original_records=p.records_protected,
            )
            for p in reply.pieces
        ]
        return result


def _run_coroutine(coro: Any) -> Any:
    """Drive *coro* to completion from synchronous code.

    Uses :func:`asyncio.run` directly; when already inside a running
    event loop (a server handler protecting a dataset), the coroutine is
    run on a private loop in a helper thread — blocking a live loop on a
    nested one is forbidden.
    """
    import asyncio

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    box: Dict[str, Any] = {}

    def runner() -> None:
        try:
            box["result"] = asyncio.run(coro)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=runner, name="mood-remote-dispatch")
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box["result"]


# ---------------------------------------------------------------------------
# Dataset-level reports
# ---------------------------------------------------------------------------


@dataclass
class LppmEvaluation:
    """Everything the figures need about one (dataset, LPPM) pair."""

    dataset_name: str
    lppm_name: str
    #: ``guesses[user][attack_name]`` — who each attack thinks the user is.
    guesses: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: Obfuscated trace per user.
    obfuscated: Dict[str, Trace] = field(default_factory=dict)
    #: STD per user, metres.
    distortions: Dict[str, float] = field(default_factory=dict)

    def non_protected(self, attack_names: Optional[Sequence[str]] = None) -> Set[str]:
        """Users re-identified by ≥1 of the given attacks (default: all)."""
        out: Set[str] = set()
        for user, per_attack in self.guesses.items():
            names = attack_names if attack_names is not None else list(per_attack)
            for a in names:
                guess = per_attack.get(a, NO_GUESS)
                if guess != NO_GUESS and guess == user:
                    out.add(user)
                    break
        return out

    def protected(self, attack_names: Optional[Sequence[str]] = None) -> Set[str]:
        """Complement of :meth:`non_protected` over evaluated users."""
        return set(self.guesses) - self.non_protected(attack_names)


@dataclass
class HybridEvaluation:
    """Per-user hybrid outcomes plus dataset-level aggregates."""

    dataset_name: str
    results: Dict[str, HybridResult] = field(default_factory=dict)

    def non_protected(self) -> Set[str]:
        return {u for u, r in self.results.items() if not r.protected}

    def data_loss(self, dataset: MobilityDataset) -> float:
        return data_loss(dataset, self.non_protected())

    def distortions(self) -> Dict[str, float]:
        """STD of the protected users only."""
        return {u: r.distortion_m for u, r in self.results.items() if r.protected}


@dataclass
class MoodEvaluation:
    """Per-user MooD outcomes plus dataset-level aggregates."""

    dataset_name: str
    results: Dict[str, MoodResult] = field(default_factory=dict)

    def non_protected(self) -> Set[str]:
        """Users with at least one erased record (not fully curable)."""
        return {u for u, r in self.results.items() if not r.fully_protected}

    def composition_survivors(self) -> Set[str]:
        """Users whose *whole* trace resisted single and multi-LPPM search.

        These are the users handed to the fine-grained stage — the bars
        of Figures 6/7 count them.
        """
        return {u for u, r in self.results.items() if not r.whole_trace_protected}

    def data_loss(self) -> float:
        """Record-level loss over the dataset (Eq. 7, sub-trace aware)."""
        total = sum(r.original_records for r in self.results.values())
        if total == 0:
            return 0.0
        lost = sum(r.erased_records for r in self.results.values())
        return lost / total

    def distortions(self) -> Dict[str, float]:
        """Record-weighted mean STD per user with published data."""
        return {
            u: r.mean_distortion_m()
            for u, r in self.results.items()
            if r.published_records > 0
        }

    def published_dataset(self, name: Optional[str] = None) -> MobilityDataset:
        """Assemble the published (pseudonymised, protected) dataset."""
        out = MobilityDataset(name or f"{self.dataset_name}-published")
        for result in self.results.values():
            for piece in result.pieces:
                out.add(piece.published)
        return out


@dataclass
class ProtectionReport(MoodEvaluation):
    """Outcome of :meth:`ProtectionEngine.protect_dataset`."""

    #: Wall-clock seconds spent protecting the dataset.
    wall_time_s: float = 0.0
    #: Attack-suite runs spent — the §6 cost counter.
    evaluations: int = 0

    @property
    def users_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return float("inf")
        return len(self.results) / self.wall_time_s


@dataclass
class EvaluationReport:
    """Unified result of :meth:`ProtectionEngine.evaluate`.

    ``result`` holds the strategy-specific payload
    (:class:`LppmEvaluation`, :class:`HybridEvaluation`, or
    :class:`MoodEvaluation`); the methods below give every strategy the
    same read-out surface.
    """

    strategy: str
    dataset_name: str
    result: Union[LppmEvaluation, HybridEvaluation, MoodEvaluation]
    wall_time_s: float = 0.0

    def users(self) -> Set[str]:
        if isinstance(self.result, LppmEvaluation):
            return set(self.result.guesses)
        return set(self.result.results)

    def non_protected(self, attack_names: Optional[Sequence[str]] = None) -> Set[str]:
        if isinstance(self.result, LppmEvaluation):
            return self.result.non_protected(attack_names)
        if attack_names is not None:
            raise ConfigurationError(
                "per-attack readouts only exist for the 'lppm' strategy — the "
                f"{self.strategy!r} protocol records a single verdict per user; "
                "run evaluate() with the attack subset instead"
            )
        return self.result.non_protected()

    def protected(self, attack_names: Optional[Sequence[str]] = None) -> Set[str]:
        return self.users() - self.non_protected(attack_names)

    def data_loss(self, dataset: Optional[MobilityDataset] = None) -> float:
        """Record-level loss (Eq. 7).

        The MooD strategy computes it from its own per-user records; the
        ``lppm`` and ``hybrid`` strategies are all-or-nothing per user and
        need the *raw* dataset for record counts.
        """
        if isinstance(self.result, MoodEvaluation):
            return self.result.data_loss()
        if dataset is None:
            raise ConfigurationError(
                f"data_loss for the {self.strategy!r} strategy needs the raw dataset"
            )
        return data_loss(dataset, self.non_protected())

    def distortions(self) -> Dict[str, float]:
        if isinstance(self.result, LppmEvaluation):
            return dict(self.result.distortions)
        return self.result.distortions()

    def published_dataset(self, name: Optional[str] = None) -> MobilityDataset:
        if not isinstance(self.result, MoodEvaluation):
            raise ConfigurationError(
                f"published_dataset is only defined for the 'mood' strategy, "
                f"not {self.strategy!r}"
            )
        return self.result.published_dataset(name)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ProtectionEngine:
    """User-centric fine-grained multi-LPPM protection (Algorithm 1).

    Parameters
    ----------
    lppms:
        The base mechanism set ``L`` (already fitted where applicable).
    attacks:
        The fitted re-identification attack suite ``A``.  The engine owns
        the ground truth, so it can evaluate Eq. 5/6 directly.
    delta_s:
        Recursion floor ``δ``: sub-traces shorter than this are erased
        rather than split further.
    max_composition_length:
        Cap on composition chain length (``None`` = all ``n`` stages).
    seed:
        Base seed; every (user, mechanism, sub-trace) application derives
        a stable child seed, so results are order-independent — which is
        what makes the process executor bit-exact.
    split_policy:
        Fine-grained splitting rule: a registered name (``"half"``,
        ``"gap"``, ``"inter-poi"``, or any plugin registered under the
        ``split_policy`` kind) or a callable ``trace -> (left, right)``.
    search_strategy:
        Candidate-ordering/early-stopping strategy (§6): ``None`` for the
        paper's exhaustive lowest-distortion search, a registered name or
        spec (``"greedy"``, ``{"name": "greedy", "alpha": 2.0}``), or a
        :class:`~repro.core.search.CompositionSearchStrategy` instance.
    executor:
        Batch backend for :meth:`protect_dataset`/:meth:`evaluate`: a
        registered name or spec (``"serial"``, ``"process"``,
        ``{"name": "process", "jobs": 4}``, ``{"name": "remote", ...}``)
        or an executor instance.  A name or spec is built here, so a bad
        one fails at construction.  All built-in backends publish
        byte-identical datasets.
    jobs:
        Worker count for parallel executors (``None`` = all cores); the
        default for a name or spec that does not set its own ``jobs``.

    The engine shares one :class:`~repro.core.featurecache.FeatureCache`
    (:attr:`feature_cache`) between its attacks and the LPPMs that take
    one (HMC): :meth:`fit` featurises the background in bulk through it,
    and HMC's fit reuses the AP-attack's background heatmaps.
    """

    def __init__(
        self,
        lppms: Sequence[LPPM],
        attacks: "Sequence[Attack]",
        delta_s: float = DEFAULT_DELTA_S,
        max_composition_length: Optional[int] = None,
        seed: int = 0,
        split_policy: Union[str, Callable[[Trace], Tuple[Trace, Trace]]] = "half",
        search_strategy: Union[None, str, Dict[str, Any], CompositionSearchStrategy] = None,
        executor: Union[str, Dict[str, Any], Any] = "serial",
        jobs: Optional[int] = 1,
    ) -> None:
        if not lppms:
            raise ConfigurationError("the protection engine needs at least one LPPM")
        if not attacks:
            raise ConfigurationError("the protection engine needs at least one attack")
        check_count("jobs", jobs, optional=True)
        self.lppms = list(lppms)
        self.attacks = list(attacks)
        self.delta_s = check_positive("delta_s", delta_s, finite=False)
        self.max_composition_length = check_count(
            "max_composition_length", max_composition_length, optional=True
        )
        self.seed = check_integer("seed", seed)
        self.split_policy = split_policy
        self._split_fn = (
            split_policy if callable(split_policy) else build("split_policy", split_policy)
        )
        if search_strategy is None or isinstance(
            search_strategy, CompositionSearchStrategy
        ):
            self.search_strategy: Optional[CompositionSearchStrategy] = search_strategy
        else:
            self.search_strategy = build("search_strategy", search_strategy)
        self.executor = executor
        self.jobs = jobs
        if isinstance(executor, (str, dict)):
            spec = normalize_spec(executor)
            spec.setdefault("jobs", jobs)
            executor = build("executor", spec)
        #: The backend :attr:`executor` names, built once.
        self._executor = executor
        #: Number of attack-suite runs (``is_protected`` calls) performed —
        #: the §6 brute-force cost counter the search strategies aim to reduce.
        self.evaluations = 0
        #: Shared per-trace feature cache (trace fingerprint → heatmap /
        #: POI visits / merged places / MMC), attached to every attack
        #: and LPPM that supports it (HMC fits its profiles from the
        #: AP-attack's background heatmaps).
        #: The split recursion and the daily-chunk mode revisit identical
        #: sub-traces — and every candidate output is deterministic in
        #: (user, mechanism, sub-trace) — so features are built once and
        #: shared across attacks instead of recomputed per evaluation.
        #: Cache hits return the exact object a miss would build, so
        #: results (and published datasets) are unchanged.
        # Adopt a cache already attached to the attacks (an explicit
        # caller attachment, or wiring by a previous engine sharing the
        # same fitted suite — features are content-keyed, so sharing is
        # safe and avoids re-featurising across engines); otherwise
        # create a fresh one.  Either way ``self.feature_cache`` is the
        # cache the attacks actually use, so its stats are meaningful.
        components = self.attacks + self.lppms
        adopted = next(
            (
                cache
                for cache in (getattr(c, "feature_cache", None) for c in components)
                if cache is not None
            ),
            None,
        )
        # NB: an empty FeatureCache is falsy (it has __len__), so this
        # must be an identity check, not an ``or``.
        self.feature_cache = FeatureCache() if adopted is None else adopted
        for component in components:
            use = getattr(component, "use_feature_cache", None)
            if use is not None and getattr(component, "feature_cache", None) is None:
                use(self.feature_cache)
        self.singles: List[ComposedLPPM] = enumerate_compositions(
            self.lppms, min_length=1, max_length=1
        )
        self.chains: List[ComposedLPPM] = enumerate_compositions(
            self.lppms, min_length=2, max_length=max_composition_length
        )

    # -- declarative construction ---------------------------------------

    @classmethod
    def from_config(cls, config: "ProtectionConfig") -> "ProtectionEngine":
        """Build every component of *config* through the registries.

        The returned engine is **unfitted**: call :meth:`fit` with the
        attacker's background knowledge before protecting.

        A ``remote`` executor spec that carries no auth key of its own
        inherits ``config.service``'s ``auth_key_file``/``auth_key``, so
        one config block keys both ``repro serve`` and the cluster
        clients that dial it.
        """
        executor = config.executor
        service = getattr(config, "service", None)
        if (
            service
            and isinstance(executor, dict)
            and executor.get("name") == "remote"
            and "auth_key" not in executor
            and "auth_key_file" not in executor
        ):
            executor = dict(executor)
            for key in ("auth_key_file", "auth_key"):
                if key in service:
                    executor[key] = service[key]
        return cls(
            lppms=[build("lppm", spec) for spec in config.lppms],
            attacks=[build("attack", spec) for spec in config.attacks],
            delta_s=config.delta_s,
            max_composition_length=config.max_composition_length,
            seed=config.seed,
            split_policy=config.split_policy,
            search_strategy=config.search_strategy,
            executor=executor,
            jobs=config.jobs,
        )

    def fit(self, background: MobilityDataset) -> "ProtectionEngine":
        """Fit every attack and fittable LPPM on the background knowledge.

        Attacks fit first, so HMC finds the AP-attack's heatmaps of the
        background in the shared feature cache."""
        for component in list(self.attacks) + list(self.lppms):
            fit = getattr(component, "fit", None)
            if fit is None:
                continue
            fitted = getattr(component, "is_fitted", False)
            if not fitted:
                fit(background)
        return self

    def refit(self, delta: MobilityDataset) -> List[str]:
        """Fold a background *delta* into every attack that supports it.

        Replace semantics (see :meth:`repro.attacks.base.Attack.refit`):
        *delta* carries the complete, updated background trace per user.
        Attacks without incremental refit keep their existing profiles —
        an online deployment prefers a slightly stale profile over a
        full re-fit stall on the ingest path.  Returns the names of the
        attacks that were refitted.

        Refitting changes attack verdicts, hence published bytes: the
        streaming path only calls this when ``stream.refit`` is enabled,
        never in the byte-identity-pinned default mode.
        """
        refitted: List[str] = []
        for attack in self.attacks:
            if getattr(attack, "supports_refit", False) and attack.is_fitted:
                attack.refit(delta)
                refitted.append(attack.name)
        return refitted

    # -- Algorithm 1 -----------------------------------------------------

    def protect(self, trace: Trace) -> MoodResult:
        """Protect *trace*; returns published pieces and erased leftovers."""
        result = MoodResult(user_id=trace.user_id, original_records=len(trace))
        self._protect_rec(trace, result)
        return self.finalize(result)

    def protect_daily(self, trace: Trace, chunk_s: float = DEFAULT_CHUNK_S) -> MoodResult:
        """Crowdsensing variant (§4.5): chunk into *chunk_s* windows first.

        Each chunk is protected independently (composition search, then
        recursive fine-grained splitting), modelling users who upload
        their data daily.
        """
        result = MoodResult(user_id=trace.user_id, original_records=len(trace))
        for chunk in split_fixed_time(trace, chunk_s):
            self._protect_rec(chunk, result)
        return self.finalize(result)

    def search_whole_trace(self, trace: Trace) -> Optional[ProtectedPiece]:
        """Lines 4-26: single-LPPM search, then multi-LPPM compositions.

        Returns the lowest-distortion protecting piece (pseudonym not yet
        renewed — see :meth:`finalize`), or ``None`` when no single
        mechanism or chain defeats every attack.

        Both stages share one :meth:`_candidate` prefix dict, which lives
        for this search only: the HMC single's output on *trace* is the
        first stage of every ``HMC+*`` chain.
        """
        prefixes: Dict[Tuple[LPPM, ...], Trace] = {}
        winner = self._best_protecting(trace, self.singles, prefixes)
        if winner is None:
            winner = self._best_protecting(trace, self.chains, prefixes)
        if winner is None:
            return None
        published, mechanism, distortion = winner
        return ProtectedPiece(
            pseudonym=trace.user_id,  # renewed by finalize()
            original_user=trace.user_id,
            original=trace,
            published=published,
            mechanism=mechanism,
            distortion_m=distortion,
        )

    def finalize(self, result: MoodResult) -> MoodResult:
        """Line 34: renew pseudonyms on *result*'s pieces (in place)."""
        _renew_ids(result)
        return result

    # -- dataset-level batch API -----------------------------------------

    def protect_dataset(
        self,
        dataset: MobilityDataset,
        daily: bool = False,
        chunk_s: float = DEFAULT_CHUNK_S,
    ) -> ProtectionReport:
        """Protect every user of *dataset* on the configured executor.

        With ``daily=True`` each trace is pre-chunked into *chunk_s*
        windows (the §4.5 crowdsensing mode) before the cascade.
        """
        t0 = time.perf_counter()
        ev0 = self.evaluations
        traces = dataset.traces()
        kwargs = {"chunk_s": chunk_s} if daily else {}
        method = "protect_daily" if daily else "protect"
        results = self._map(method, traces, kwargs)
        return ProtectionReport(
            dataset_name=dataset.name,
            results={t.user_id: r for t, r in zip(traces, results)},
            wall_time_s=time.perf_counter() - t0,
            evaluations=self.evaluations - ev0,
        )

    def evaluate(
        self,
        strategy: str,
        test: MobilityDataset,
        lppm: Union[None, str, LPPM] = None,
        hybrid: Optional[HybridLPPM] = None,
        composition_only: bool = False,
        chunk_s: float = DEFAULT_CHUNK_S,
    ) -> EvaluationReport:
        """Evaluate one protection *strategy* over every user of *test*.

        ``strategy`` selects the protocol:

        * ``"lppm"`` — apply one mechanism (*lppm*: an instance, a name
          of one of the engine's LPPMs, or a registry spec; default: the
          engine's first LPPM) to every trace and record the verdict of
          **every** attack;
        * ``"hybrid"`` — the user-centric single-LPPM baseline [22]
          (*hybrid* overrides the mechanism order);
        * ``"mood"`` — the full cascade; ``composition_only=True``
          disables the fine-grained recursion (δ = ∞, the Figures 6/7
          readout), otherwise survivors run the §4.5 daily-chunk mode.
        """
        t0 = time.perf_counter()
        traces = test.traces()
        if strategy == "lppm":
            resolved = self._resolve_lppm(lppm)
            rows = self._map("_evaluate_lppm_one", traces, {"lppm": resolved})
            result: Union[LppmEvaluation, HybridEvaluation, MoodEvaluation]
            result = LppmEvaluation(dataset_name=test.name, lppm_name=resolved.name)
            for user, per_attack, obfuscated, distortion in rows:
                result.guesses[user] = per_attack
                result.obfuscated[user] = obfuscated
                result.distortions[user] = distortion
        elif strategy == "hybrid":
            if hybrid is None:
                hybrid = HybridLPPM(self.lppms, self.attacks, seed=self.seed)
            rows = self._map("_evaluate_hybrid_one", traces, {"hybrid": hybrid})
            result = HybridEvaluation(
                dataset_name=test.name,
                results={t.user_id: r for t, r in zip(traces, rows)},
            )
        elif strategy == "mood":
            rows = self._map(
                "_evaluate_mood_one",
                traces,
                {"composition_only": composition_only, "chunk_s": chunk_s},
            )
            result = MoodEvaluation(
                dataset_name=test.name,
                results={t.user_id: r for t, r in zip(traces, rows)},
            )
        else:
            raise ConfigurationError(
                f"unknown evaluation strategy {strategy!r}; "
                "choose from ('lppm', 'hybrid', 'mood')"
            )
        return EvaluationReport(
            strategy=strategy,
            dataset_name=test.name,
            result=result,
            wall_time_s=time.perf_counter() - t0,
        )

    # -- per-user work units (referenced by name for the executors) ------

    def _evaluate_lppm_one(
        self, trace: Trace, lppm: LPPM
    ) -> Tuple[str, Dict[str, str], Trace, float]:
        rng = make_rng(stable_user_seed(self.seed, f"{trace.user_id}|{lppm.name}"))
        obfuscated = lppm.apply(trace, rng)
        if len(obfuscated) > 0:
            distortion = spatial_temporal_distortion(trace, obfuscated)
        else:
            distortion = float("inf")
        per_attack: Dict[str, str] = {}
        for attack in self.attacks:
            per_attack[attack.name] = (
                attack.reidentify(obfuscated) if len(obfuscated) > 0 else NO_GUESS
            )
        return trace.user_id, per_attack, obfuscated, distortion

    def _evaluate_hybrid_one(self, trace: Trace, hybrid: HybridLPPM) -> HybridResult:
        return hybrid.protect(trace)

    def _evaluate_mood_one(
        self, trace: Trace, composition_only: bool = False, chunk_s: float = DEFAULT_CHUNK_S
    ) -> MoodResult:
        whole = self.search_whole_trace(trace)
        if whole is not None:
            result = MoodResult(user_id=trace.user_id, original_records=len(trace))
            result.pieces.append(whole)
            return self.finalize(result)
        if composition_only:
            result = MoodResult(user_id=trace.user_id, original_records=len(trace))
            result.erased.append(trace)
            return result
        return self.protect_daily(trace, chunk_s=chunk_s)

    # -- internals ------------------------------------------------------------

    def _resolve_lppm(self, lppm: Union[None, str, Dict[str, Any], LPPM]) -> LPPM:
        """An LPPM instance from *lppm*.

        A string must name one of the engine's own mechanisms (display
        name like ``"Geo-I"`` or registry slug like ``"geoi"``) — those
        are fitted and carry the configured parameters.  Building a
        *fresh* mechanism instead requires an explicit dict spec.
        """
        if lppm is None:
            return self.lppms[0]
        if isinstance(lppm, LPPM):
            return lppm
        if isinstance(lppm, str):
            for candidate in self.lppms:
                slug = getattr(type(candidate), "registry_name", None)
                if lppm in (candidate.name, slug):
                    return candidate
            known = sorted(l.name for l in self.lppms)
            raise ConfigurationError(
                f"{lppm!r} is not one of this engine's LPPMs {known}; "
                "pass a spec dict to build a fresh mechanism"
            )
        return build("lppm", lppm)

    def _map(
        self, method: str, items: Sequence[Any], kwargs: Dict[str, Any]
    ) -> List[Any]:
        """Run ``getattr(self, method)(item, **kwargs)`` on the executor."""
        executor = self._executor
        if getattr(self.search_strategy, "stateful", False) and not isinstance(
            executor, SerialExecutor
        ):
            warnings.warn(
                f"search strategy {type(self.search_strategy).__name__} learns "
                "across users; falling back to the serial executor so its "
                "statistics stay coherent",
                RuntimeWarning,
                stacklevel=3,
            )
            executor = SerialExecutor()
        return executor.map(self, method, list(items), dict(kwargs))

    def _protect_rec(self, trace: Trace, result: MoodResult) -> None:
        """Recursive body of Algorithm 1 (lines 4-37)."""
        if len(trace) == 0:
            return
        piece = self.search_whole_trace(trace)
        if piece is not None:
            result.pieces.append(piece)
            return
        if trace.duration_s() >= self.delta_s and len(trace) >= 2:
            left, right = self._split(trace)
            if len(left) == 0 or len(right) == 0:
                result.erased.append(trace)
                return
            self._protect_rec(left, result)
            self._protect_rec(right, result)
        else:
            result.erased.append(trace)

    def _split(self, trace: Trace) -> Tuple[Trace, Trace]:
        """Cut *trace* in two according to the configured split policy."""
        return self._split_fn(trace)

    def _best_protecting(
        self,
        trace: Trace,
        mechanisms: Sequence[ComposedLPPM],
        prefixes: Optional[Dict[Tuple[LPPM, ...], Trace]] = None,
    ) -> Optional[Tuple[Trace, str, float]]:
        """Lowest-STD output among the mechanisms that defeat all attacks.

        Once a protecting candidate is held, a later candidate is
        attacked only when its STD is strictly below the incumbent's:
        one at or above it could not have replaced the incumbent, so the
        winner is that of the exhaustive loop
        (:func:`repro.attacks.reference.best_protecting_reference`) for
        fewer attack-suite runs.  :attr:`evaluations` counts those runs.

        With a :attr:`search_strategy`, candidates are tried in the
        strategy's order and :meth:`~CompositionSearchStrategy.record_outcome`
        hears every attacked candidate; a strategy with
        ``stop_at_first_success`` returns the first protecting output
        (trading utility for fewer attack evaluations, §6).
        *prefixes* is the search's :meth:`_candidate` prefix dict.
        """
        ordered = list(mechanisms)
        strategy = self.search_strategy
        if strategy is not None:
            by_name = {m.name: m for m in mechanisms}
            ordered = [by_name[n] for n in strategy.order(list(by_name))]
        best: Optional[Tuple[Trace, str, float]] = None
        for mech in ordered:
            candidate = self._candidate(trace, mech, prefixes)
            if len(candidate) == 0:
                continue
            distortion = None
            if best is not None:
                distortion = spatial_temporal_distortion(trace, candidate)
                if not distortion < best[2]:
                    continue
            self.evaluations += 1
            protected = is_protected(candidate, trace.user_id, self.attacks)
            if strategy is not None:
                strategy.record_outcome(mech.name, protected)
            if not protected:
                continue
            if distortion is None:
                distortion = spatial_temporal_distortion(trace, candidate)
            best = (candidate, mech.name, distortion)
            if strategy is not None and strategy.stop_at_first_success:
                break
        return best

    def _candidate(
        self,
        trace: Trace,
        mech: ComposedLPPM,
        prefixes: Optional[Dict[Tuple[LPPM, ...], Trace]] = None,
    ) -> Trace:
        """*mech*'s output on *trace*, drawn from the (user, mechanism,
        sub-trace) child seed.

        *prefixes* maps each leading run of
        :attr:`~repro.lppm.base.LPPM.deterministic` stages to its output
        on *trace*.  Those stages never touch the generator, so *mech*
        takes the run's output from the dict (or computes and stores it)
        and applies its remaining stages with its own generator: the
        bytes of ``mech.apply(trace, rng)``.
        """
        rng = make_rng(
            stable_user_seed(
                self.seed,
                f"{trace.user_id}|{mech.name}|{trace.start_time():.0f}|{len(trace)}",
            )
        )
        stages, out, lead = mech.stages, trace, 0
        while prefixes is not None and lead < len(stages) and stages[lead].deterministic:
            lead += 1
            key = tuple(stages[:lead])
            if key not in prefixes:
                prefixes[key] = stages[lead - 1].apply(out, rng)
            out = prefixes[key]
        for stage in stages[lead:]:
            out = stage.apply(out, rng)
        return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(lppms={[l.name for l in self.lppms]}, "
            f"attacks={[a.name for a in self.attacks]}, delta_s={self.delta_s}, "
            f"executor={self.executor!r}, jobs={self.jobs})"
        )
