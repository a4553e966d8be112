"""Wrappers the traced runs install around the system's public functions.

* engine: each fitted LPPM's ``apply`` (and HMC's ``select_target``),
  each attack's ``top1``, ``ProtectionEngine.search_whole_trace``,
  ``FeatureCache.get_or_build``, and ``spatial_temporal_distortion`` as
  :mod:`repro.core.engine` calls it;
* service: ``ProtectionService.handle``, ``MoodProxy.protect_chunk``,
  ``CollectionServer.receive`` / ``count_in_cell`` / ``top_cells``, and
  the codec functions :mod:`repro.service.rpc` calls on the server side;
* client: the codec functions :mod:`repro.service.rpc` calls on the
  client side.

Work the service runs on its thread pool does not inherit the event
loop's context, so each pool-side root span is matched to the open
``handle`` span whose request it serves (same user and day for an
upload or protect request, same query for a query).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracer import NAME, REQUEST, Tracer, wrap

LPPM_LAYERS = {"Geo-I": "lppm.geoi", "TRL": "lppm.trl", "HMC": "lppm.hmc"}
ATTACK_LAYERS = {"POI-attack": "attack.poi", "PIT-attack": "attack.pit", "AP-attack": "attack.ap"}


def verb_of(message: Any) -> str:
    """Short verb of a wire message class: ``UploadRequest`` -> ``upload``."""
    name = message.__name__ if isinstance(message, type) else type(message).__name__
    for suffix in ("Request", "Response"):
        if name.endswith(suffix):
            return name[: -len(suffix)].lower()
    return name.lower()


def instrument_engine(tracer: Tracer, engine: Any) -> None:
    """Span every engine layer of one fitted :class:`ProtectionEngine`."""
    import repro.core.engine as engine_module

    for lppm in engine.lppms:
        layer = LPPM_LAYERS[lppm.name]
        wrap(tracer, lppm, "apply", layer)
        if hasattr(lppm, "select_target"):
            wrap(tracer, lppm, "select_target", layer + ".select_target")

    for attack in engine.attacks:
        layer = ATTACK_LAYERS[attack.name]

        def reid(index: int, result: Any, args: Tuple, kwargs: Dict, layer: str = layer) -> None:
            if result is not None and result[0] == args[0].user_id:
                tracer.count(layer + ".reid")

        wrap(tracer, attack, "top1", layer, after=reid)

    def won(index: int, result: Any, args: Tuple, kwargs: Dict) -> None:
        if result is not None:
            tracer.count("core.search.wins")

    wrap(tracer, engine, "search_whole_trace", "core.search", after=won)

    cache = engine.feature_cache
    get_or_build = cache.get_or_build

    def timed_get_or_build(key: Any, builder: Any) -> Any:
        def timed_builder() -> Any:
            t0 = time.perf_counter()
            try:
                return builder()
            finally:
                tracer.count("features.build_s", time.perf_counter() - t0)

        return get_or_build(key, timed_builder)

    cache.get_or_build = timed_get_or_build
    wrap(tracer, cache, "get_or_build", "features")
    wrap(tracer, engine_module, "spatial_temporal_distortion", "distortion")


class _OpenHandles:
    """``handle`` spans in flight, for matching pool-side work to them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open: List[Tuple[int, Any]] = []
        self.current = threading.local()

    def add(self, entry: Tuple[int, Any]) -> None:
        with self._lock:
            self._open.append(entry)

    def remove(self, entry: Tuple[int, Any]) -> None:
        with self._lock:
            self._open.remove(entry)

    def find(self, match: Any) -> Optional[int]:
        with self._lock:
            for index, message in self._open:
                if match(message):
                    return index
        return None


def instrument_service(tracer: Tracer, service: Any) -> None:
    """Span the service facade, proxy, collection server and server codec."""
    import repro.service.rpc as rpc
    from repro.service.api import ErrorEnvelope, ProtectRequest, QueryRequest, UploadRequest

    handles = _OpenHandles()
    request_of: Dict[int, Any] = {}
    original_handle = service.handle

    async def handle(message: Any) -> Any:
        request_id = request_of.pop(id(message), None)
        index = tracer.open("service.handle." + verb_of(message), request_id=request_id, push=False)
        entry = (index, message)
        handles.add(entry)
        try:
            return await original_handle(message)
        finally:
            tracer.close(index, pop=False)
            handles.remove(entry)

    service.handle = handle

    def parent(index: Optional[int]) -> Tuple[Optional[int], Any]:
        handles.current.index = index
        if index is None:
            return None, None
        return index, tracer.spans[index][REQUEST]

    def chunk_parent(chunk: Any) -> Tuple[Optional[int], Any]:
        def match(m: Any) -> bool:
            if isinstance(m, UploadRequest):
                return m.trace.user_id == chunk.user_id and m.day_index == chunk.day_index
            return isinstance(m, ProtectRequest) and m.trace.user_id == chunk.user_id

        return parent(handles.find(match))

    def ingest_parent(trace: Any) -> Tuple[Optional[int], Any]:
        return parent(getattr(handles.current, "index", None))

    def count_parent(lat: float, lng: float) -> Tuple[Optional[int], Any]:
        return parent(handles.find(
            lambda m: isinstance(m, QueryRequest) and m.kind == "count" and (m.lat, m.lng) == (lat, lng)
        ))

    def top_parent(k: int) -> Tuple[Optional[int], Any]:
        return parent(handles.find(
            lambda m: isinstance(m, QueryRequest) and m.kind == "top_cells" and m.k == k
        ))

    def ingested(index: int, result: Any, args: Tuple, kwargs: Dict) -> None:
        tracer.count("service.ingest_records", len(args[0]))

    wrap(tracer, service.proxy, "protect_chunk", "service.proxy", parent_of=chunk_parent)
    wrap(tracer, service.server, "receive", "service.ingest", after=ingested, parent_of=ingest_parent)
    wrap(tracer, service.server, "count_in_cell", "service.query", parent_of=count_parent)
    wrap(tracer, service.server, "top_cells", "service.query", parent_of=top_parent)

    def parsed(index: int, result: Any, args: Tuple, kwargs: Dict) -> None:
        span = tracer.spans[index]
        span[NAME] = "service.decode." + verb_of(result[2])
        span[REQUEST] = result[0]

    def materialized(index: int, result: Any, args: Tuple, kwargs: Dict) -> None:
        span = tracer.spans[index]
        span[NAME] = "service.decode." + verb_of(result)
        span[REQUEST] = args[0]
        request_of[id(result)] = args[0]

    def encoded(index: int, result: Any, args: Tuple, kwargs: Dict) -> None:
        span = tracer.spans[index]
        reply = args[1]
        span[NAME] = "service.encode." + verb_of(reply)
        span[REQUEST] = kwargs.get("request_id")
        if isinstance(reply, ErrorEnvelope):
            tracer.count("service.errors")

    wrap(tracer, rpc, "parse_frame_envelope", "service.decode", after=parsed)
    wrap(tracer, rpc, "parse_frame_v2", "service.decode", after=parsed)
    wrap(tracer, rpc, "materialize_frame", "service.decode", after=materialized)
    wrap(tracer, rpc, "materialize_frame_v2", "service.decode", after=materialized)
    wrap(tracer, rpc, "encode_reply_for", "service.encode", after=encoded)


def instrument_client(tracer: Tracer) -> None:
    """Span the codec functions the socket clients call."""
    import repro.service.rpc as rpc

    def encoded(index: int, result: Any, args: Tuple, kwargs: Dict) -> None:
        span = tracer.spans[index]
        span[NAME] = "client.encode." + verb_of(args[1])
        span[REQUEST] = kwargs.get("request_id")

    def decoded(index: int, result: Any, args: Tuple, kwargs: Dict) -> None:
        span = tracer.spans[index]
        span[NAME] = "client.decode." + verb_of(result[1])
        span[REQUEST] = result[0]

    wrap(tracer, rpc, "encode_message_for", "client.encode", after=encoded)
    wrap(tracer, rpc, "decode_frame_any", "client.decode", after=decoded)
