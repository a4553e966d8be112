"""Protection Service API v2: versioned messages, codec, and facade.

The paper's deployment unit is a middleware proxy between mobile clients
and the crowdsensing server.  This module turns that boundary into an
explicit, transport-agnostic protocol:

* **Messages** — request/response dataclasses (:class:`ProtectRequest`,
  :class:`ProtectResponse`, :class:`UploadRequest`,
  :class:`UploadResponse`, :class:`QueryRequest`,
  :class:`QueryResponse`, :class:`StatsRequest`, :class:`StatsResponse`)
  plus the :class:`ErrorEnvelope` every fault travels in.
* **Wire codec** — JSON lines.  One message is one JSON object on one
  ``\\n``-terminated line: ``{"v": 1, "type": "<slug>", "body": {...}}``
  with an optional ``"id"`` key (int or str) that tags a request so its
  reply can be correlated out of order; replies echo the id verbatim.
  Each body is derived from its message's dataclass fields
  (:class:`WireMessage`).  Floats round-trip exactly (shortest-repr
  encoding), so a trace that crosses the wire protects byte-identically
  to one that never left the process.  Non-finite floats are rejected
  at encode time (``allow_nan=False``): ``NaN``/``Infinity`` tokens are
  not JSON and no conforming peer could parse them.
* **Facade** — :class:`ProtectionService` wraps a
  :class:`~repro.core.engine.ProtectionEngine` (via the
  :class:`~repro.service.proxy.MoodProxy`) and a
  :class:`~repro.service.server.CollectionServer` behind async
  ``protect()`` / ``upload()`` / ``query()`` / ``stats()`` methods, with
  pseudonym management delegated to a session-scoped
  :class:`~repro.service.proxy.PseudonymProvider`.
* **Loopback transport** — :class:`LoopbackClient` drives the service
  in-process through the same codec, deterministically.  The campaign
  simulation runs on it, so simulation and deployment share one code
  path; :mod:`repro.service.rpc` provides the real socket transport.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import logging
import math
import re
import secrets
import struct
import threading
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.core.engine import DEFAULT_CHUNK_S, ProtectedPiece, ProtectionEngine
from repro.core.split import split_fixed_time
from repro.core.trace import Trace
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.service.client import UploadChunk
from repro.service.proxy import MoodProxy, PseudonymProvider
from repro.service.server import CollectionServer
from repro.stream import StreamConfig, StreamHub

#: Wire protocol version; bumped on any incompatible message change.
#: (The optional request-id tag and the per-piece ``original_records``
#: count are backward-compatible additions: peers that predate them
#: ignore unknown frame/body keys.)
WIRE_VERSION = 1

#: The negotiated binary framing (length-prefixed, columnar ndarray
#: payloads).  Never spoken unsolicited: a connection only switches to
#: v2 after a ``hello_request``/``hello_response`` exchange over v1
#: JSON framing, so a v1-only peer never sees a v2 frame.
WIRE_VERSION_V2 = 2

#: Every protocol version this build can speak, ascending.
SUPPORTED_WIRE_VERSIONS: Tuple[int, ...] = (WIRE_VERSION, WIRE_VERSION_V2)

#: A request/response correlation tag: JSON-representable scalar only.
RequestId = Union[int, str]

logger = logging.getLogger("repro.service.api")


# ---------------------------------------------------------------------------
# Shared-secret auth (HMAC-blake2b challenge/response)
# ---------------------------------------------------------------------------


def new_auth_nonce() -> str:
    """A fresh unpredictable challenge nonce (hex)."""
    return secrets.token_hex(16)


def auth_proof(key: bytes, nonce: str) -> str:
    """The handshake proof: ``HMAC-blake2b(key, nonce)`` as hex.

    The nonce is unpredictable per connection, so a captured proof is
    useless for replay; the key itself never crosses the wire.
    """
    if not isinstance(key, (bytes, bytearray)) or not key:
        raise ConfigurationError("auth key must be non-empty bytes")
    return hmac.new(bytes(key), nonce.encode("utf-8"), "blake2b").hexdigest()


def verify_auth_proof(key: bytes, nonce: str, proof: Any) -> bool:
    """Constant-time check of a peer's *proof* for *nonce*."""
    if not isinstance(proof, str):
        return False
    return hmac.compare_digest(auth_proof(key, nonce), proof)


def load_auth_key(path: Any) -> bytes:
    """The shared secret from a key file (surrounding whitespace stripped).

    The file's bytes **are** the key — generate one with e.g.
    ``python -c "import secrets; print(secrets.token_hex(32))" > mood.key``
    and distribute it to the server (``repro serve --auth-key-file``) and
    every client (``service.auth_key_file`` in the config).
    """
    try:
        with open(path, "rb") as f:
            key = f.read().strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read auth key file {path!r}: {exc}") from exc
    if not key:
        raise ConfigurationError(f"auth key file {path!r} is empty")
    return key


def resolve_auth_key(
    auth_key: Any = None, auth_key_file: Any = None
) -> Optional[bytes]:
    """The one resolution rule for the two key spellings.

    ``auth_key`` is the literal secret (str, utf-8-encoded, or bytes);
    ``auth_key_file`` is a path whose stripped bytes are the secret.
    Exactly one may be given; both ``None`` means "no auth".  Every
    consumer (CLI flags, ``ProtectionConfig.service``, the remote
    executor spec) funnels through here so the semantics cannot drift.
    """
    if auth_key is not None and auth_key_file is not None:
        raise ConfigurationError("give auth_key or auth_key_file, not both")
    if auth_key_file is not None:
        return load_auth_key(auth_key_file)
    if auth_key is None:
        return None
    key = (
        bytes(auth_key)
        if isinstance(auth_key, (bytes, bytearray))
        else str(auth_key).encode("utf-8")
    )
    if not key:
        raise ConfigurationError("auth_key must be non-empty")
    return key


# ---------------------------------------------------------------------------
# Trace wire form
# ---------------------------------------------------------------------------


def trace_to_wire(trace: Trace) -> Dict[str, Any]:
    """*trace* as a plain JSON-serialisable dict (exact float round-trip)."""
    # ndarray.tolist() yields exact Python floats (same shortest-repr
    # round-trip) without a per-element Python loop — this runs once per
    # trace per message, the wire hot path.
    return {
        "user_id": trace.user_id,
        "t": trace.timestamps.tolist(),
        "lat": trace.lats.tolist(),
        "lng": trace.lngs.tolist(),
    }


def _trace_from(data: Any, column: Callable[[Any], Any]) -> Trace:
    """The trace a wire dict describes, each column resolved by *column*.

    Every column must be finite — the decoders' half of the encoders'
    ``allow_nan=False`` contract: ``json.loads`` accepts ``NaN`` and
    ``Infinity`` tokens (``1e400`` parses to ``inf``), and a v2 block
    can carry raw NaN bits.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"trace body must be an object, got {type(data).__name__}")
    missing = {"user_id", "t", "lat", "lng"} - set(data)
    if missing:
        raise ProtocolError(f"trace body is missing keys {sorted(missing)}")
    try:
        columns = [column(data[key]) for key in ("t", "lat", "lng")]
        trace = Trace(str(data["user_id"]), *columns)
    except (TypeError, ValueError, ReproError) as exc:
        raise ProtocolError(f"malformed trace on the wire: {exc}") from exc
    for name, values in (("t", trace.timestamps), ("lat", trace.lats), ("lng", trace.lngs)):
        if not np.isfinite(values).all():
            raise ProtocolError(f"malformed trace on the wire: non-finite {name!r} value")
    return trace


def trace_from_wire(data: Any) -> Trace:
    """Rebuild a :class:`Trace` from its wire dict."""
    return _trace_from(data, lambda values: values)


# ---------------------------------------------------------------------------
# v2 columnar payload blocks
# ---------------------------------------------------------------------------

#: Explicit little-endian dtypes so a v2 frame means the same bytes on
#: every host.  float64 carries coordinates/timestamps; int64 carries
#: ordinals (with an inline-JSON fallback for values that overflow it).
_V2_DTYPES: Dict[str, "np.dtype"] = {
    "<f8": np.dtype("<f8"),
    "<i8": np.dtype("<i8"),
}


class BlockWriter:
    """Collects the columnar payload blocks of one v2 binary frame.

    A v2 body encode (:meth:`WireMessage.to_body` given a writer) calls
    :meth:`add` with a 1-D array and embeds the returned ``{"$blk": n}``
    ref where the v1 body would inline a JSON list; the frame encoder
    concatenates the raw little-endian bytes after the JSON header, so
    no per-element Python object or float repr is ever built on the hot
    path.
    """

    def __init__(self) -> None:
        self._arrays: List[Tuple[str, "np.ndarray"]] = []

    def add(self, values: Any, dtype: str = "<f8") -> Dict[str, int]:
        if dtype not in _V2_DTYPES:
            raise MessageEncodeError(f"unsupported v2 block dtype {dtype!r}")
        arr = np.ascontiguousarray(values, dtype=_V2_DTYPES[dtype])
        if arr.ndim != 1:
            raise MessageEncodeError("v2 payload blocks must be one-dimensional")
        if dtype == "<f8" and not np.isfinite(arr).all():
            # Same contract as v1's allow_nan=False JSON encode: a
            # non-finite coordinate is a sender-side bug, never bytes
            # on the wire.
            raise MessageEncodeError(
                "payload contains a non-finite float (NaN/Infinity), which "
                "has no wire representation"
            )
        self._arrays.append((dtype, arr))
        return {"$blk": len(self._arrays) - 1}

    def spec(self) -> List[List[Any]]:
        """The header's ``"blocks"`` entry: ``[[dtype, count], ...]``."""
        return [[dtype, int(arr.shape[0])] for dtype, arr in self._arrays]

    def payload(self) -> bytes:
        return b"".join(arr.tobytes() for _, arr in self._arrays)


def split_blocks(spec: Any, payload: "memoryview") -> List["np.ndarray"]:
    """Decode a v2 frame's payload into its arrays (zero-copy).

    Each array is an ``np.frombuffer`` view into *payload* — read-only,
    no per-element objects — exactly the form :class:`Trace` accepts
    without copying.
    """
    if not isinstance(spec, list):
        raise ProtocolError("v2 block spec must be a list")
    blocks: List["np.ndarray"] = []
    offset = 0
    for entry in spec:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[1], int)
            or isinstance(entry[1], bool)
            or entry[1] < 0
        ):
            raise ProtocolError(f"malformed v2 block spec entry {entry!r}")
        dtype_str, count = entry
        dtype = _V2_DTYPES.get(dtype_str)
        if dtype is None:
            raise ProtocolError(f"unsupported v2 block dtype {dtype_str!r}")
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"v2 payload truncated: block needs {nbytes} bytes at "
                f"offset {offset}, payload has {len(payload)}"
            )
        blocks.append(np.frombuffer(payload, dtype=dtype, count=count, offset=offset))
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"v2 payload has {len(payload) - offset} trailing bytes "
            f"beyond the declared blocks"
        )
    return blocks


def take_block(
    ref: Any, blocks: List["np.ndarray"], dtype: str = "<f8"
) -> "np.ndarray":
    """Resolve a body's ``{"$blk": n}`` ref against the frame's blocks."""
    if not isinstance(ref, dict) or set(ref) != {"$blk"}:
        raise ProtocolError(f"expected a block ref, got {type(ref).__name__}")
    index = ref["$blk"]
    if not isinstance(index, int) or isinstance(index, bool):
        raise ProtocolError(f"block ref index must be an int, got {index!r}")
    if not 0 <= index < len(blocks):
        raise ProtocolError(
            f"block ref {index} out of range (frame has {len(blocks)} blocks)"
        )
    arr = blocks[index]
    if arr.dtype != _V2_DTYPES[dtype]:
        raise ProtocolError(
            f"block {index} holds {arr.dtype.str}, expected {dtype}"
        )
    return arr


def trace_to_wire_v2(trace: Trace, blocks: BlockWriter) -> Dict[str, Any]:
    """*trace* as a v2 body: user id inline, columns as payload blocks."""
    return {
        "user_id": trace.user_id,
        "t": blocks.add(trace.timestamps),
        "lat": blocks.add(trace.lats),
        "lng": blocks.add(trace.lngs),
    }


def trace_from_wire_v2(data: Any, blocks: List["np.ndarray"]) -> Trace:
    """Rebuild a :class:`Trace` from its v2 body (zero-copy columns)."""
    return _trace_from(data, lambda ref: take_block(ref, blocks))


# ---------------------------------------------------------------------------
# Message bodies: one codec derived from the dataclass fields
# ---------------------------------------------------------------------------

#: A field's ``encode(value, blocks)`` or ``decode(value, blocks)``;
#: *blocks* is ``None`` under v1 and the frame's :class:`BlockWriter`
#: (encode) or block list (decode) under v2.
_Codec = Callable[[Any, Any], Any]

_JSON_KINDS = {
    dict: "object", list: "array", str: "string", bool: "boolean",
    int: "integer", float: "number", type(None): "null",
}


def _mistyped(expected: str, value: Any) -> TypeError:
    kind = _JSON_KINDS.get(type(value), type(value).__name__)
    return TypeError(f"expected {expected}, got {kind}")


def _exactly(kind: type, expected: str) -> _Codec:
    """A decoder for JSON values of exactly type *kind*: ``true`` is no
    integer, ``1`` no boolean, and ``"7"`` neither."""

    def decode(value: Any, blocks: Any) -> Any:
        if type(value) is kind:
            return value
        raise _mistyped(expected, value)

    return decode


_decode_int = _exactly(int, "an integer")
_decode_str = _exactly(str, "a string")
_decode_array = _exactly(list, "an array")
_decode_object = _exactly(dict, "an object")


def _decode_float(value: Any, blocks: Any) -> float:
    if type(value) is float or type(value) is int:
        number = float(value)
        if math.isfinite(number):
            return number
        raise ValueError(f"expected a finite number, got {value!r}")
    raise _mistyped("a number", value)


def _encode_trace(trace: Trace, blocks: Any) -> Dict[str, Any]:
    # The one place the framing picks a trace's form: inline JSON lists
    # under v1, ``$blk`` refs into the payload under v2.
    return trace_to_wire(trace) if blocks is None else trace_to_wire_v2(trace, blocks)


def _decode_trace(data: Any, blocks: Any) -> Trace:
    return trace_from_wire(data) if blocks is None else trace_from_wire_v2(data, blocks)


#: The wire forms looked up by annotation: ``(encode, decode)``.
_FORMS: Dict[Any, Tuple[_Codec, _Codec]] = {
    bool: (lambda value, blocks: bool(value), _exactly(bool, "true or false")),
    int: (lambda value, blocks: int(value), _decode_int),
    float: (lambda value, blocks: float(value), _decode_float),
    str: (lambda value, blocks: str(value), _decode_str),
    Dict[str, Any]: (lambda value, blocks: dict(value), _decode_object),
    Trace: (_encode_trace, _decode_trace),
}


def _wire_form(annotation: Any) -> Tuple[_Codec, _Codec]:
    """The ``(encode, decode)`` pair of one field annotation, or a
    :class:`TypeError` when the annotation has no wire form."""
    if annotation in _FORMS:
        return _FORMS[annotation]
    if isinstance(annotation, type) and issubclass(annotation, WireMessage):
        _plan(annotation)
        nested = annotation.from_body
        return (
            lambda value, blocks: value.to_body(blocks),
            lambda value, blocks: nested(_decode_object(value, blocks), blocks),
        )
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        encode, decode = _wire_form(args[0])
        return (
            lambda value, blocks: None if value is None else encode(value, blocks),
            lambda value, blocks: None if value is None else decode(value, blocks),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        encode, decode = _wire_form(args[0])
        return (
            lambda value, blocks: [encode(item, blocks) for item in value],
            lambda value, blocks: tuple(
                [decode(item, blocks) for item in _decode_array(value, blocks)]
            ),
        )
    if origin is tuple and args and Ellipsis not in args:
        forms = [_wire_form(arg) for arg in args]

        def zipped(value: Any) -> Any:
            if len(value) != len(forms):
                raise ValueError(f"expected {len(forms)} items, got {len(value)}")
            return zip(forms, value)

        return (
            lambda value, blocks: [e(item, blocks) for (e, _), item in zipped(value)],
            lambda value, blocks: tuple(
                [d(item, blocks) for (_, d), item in zipped(_decode_array(value, blocks))]
            ),
        )
    raise TypeError(f"no wire form for {annotation!r}")


#: class -> one ``(name, encode, decode, absent, omit_none, inline)``
#: entry per field, where ``absent`` is what a missing key decodes to.
_PLANS: Dict[type, Tuple[Tuple[Any, ...], ...]] = {}
_REQUIRED = object()
_CONSTRUCTOR_DEFAULT = object()


def _plan(cls: type) -> Tuple[Tuple[Any, ...], ...]:
    """*cls*'s field plan, built from its type hints on first use."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints, entries = get_type_hints(cls), []
        for spec in fields(cls):
            meta = spec.metadata
            has_default = spec.default is not MISSING or spec.default_factory is not MISSING
            required = meta.get("required") or not has_default
            absent = meta.get("absent", _REQUIRED if required else _CONSTRUCTOR_DEFAULT)
            encode, decode = _wire_form(hints[spec.name])
            omit_none, inline = bool(meta.get("omit_none")), bool(meta.get("inline"))
            entries.append((spec.name, encode, decode, absent, omit_none, inline))
        plan = _PLANS[cls] = tuple(entries)
    return plan


class WireMessage:
    """Base of every wire message: one body codec derived from its fields.

    A body has one key per dataclass field, in declaration order, each
    value in its annotation's wire form (:func:`_wire_form`).  Encoding
    coerces values by annotation; decoding checks JSON types, so a
    mistyped or non-finite value is malformed.  A missing key takes the
    constructor default; a field without one is required.  *blocks* is
    ``None`` for a v1 body and the frame's :class:`BlockWriter` (encode)
    or block list (decode) under v2.

    Wire quirks are declared in a field's ``metadata``: ``omit_none``
    (no key while the value is ``None``), ``absent`` (what a missing
    key decodes to), ``required`` (a missing key is malformed despite
    the constructor default) and ``inline`` (traces stay inline JSON
    under v2).
    """

    def to_body(self, blocks: Optional[BlockWriter] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        for name, encode, _, _, omit_none, inline in _plan(type(self)):
            value = getattr(self, name)
            if value is None and omit_none:
                continue
            body[name] = encode(value, None if inline else blocks)
        return body

    @classmethod
    def from_body(
        cls, body: Dict[str, Any], blocks: Optional[List["np.ndarray"]] = None
    ) -> Any:
        """The message *body* encodes; a malformed body raises
        :class:`KeyError`, :class:`TypeError` or :class:`ValueError`."""
        kwargs: Dict[str, Any] = {}
        for name, _, decode, absent, _, inline in _plan(cls):
            if name in body:
                try:
                    kwargs[name] = decode(body[name], None if inline else blocks)
                except ProtocolError:
                    raise
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{name}: {exc}") from exc
            elif absent is _REQUIRED:
                raise KeyError(name)
            elif absent is not _CONSTRUCTOR_DEFAULT:
                kwargs[name] = absent
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PublishedPiece(WireMessage):
    """Wire form of one published sub-trace (raw original never leaves).

    ``original_records`` is the record count of the raw sub-trace this
    piece protects — a count, never coordinates — so a remote caller can
    weight distortion and data-loss readouts exactly like a local one.
    ``None`` means "same as the published trace" (every built-in LPPM is
    record-preserving) and resolves to ``len(trace)`` on construction,
    which is also how an old peer's body without the key decodes.
    """

    pseudonym: str
    mechanism: str
    distortion_m: float
    trace: Trace
    original_records: Optional[int] = None

    def __post_init__(self) -> None:
        if self.original_records is None:
            object.__setattr__(self, "original_records", len(self.trace))

    @classmethod
    def of(cls, piece: ProtectedPiece) -> "PublishedPiece":
        """The wire form of an engine piece: its raw sub-trace travels
        as a record count only."""
        return cls(
            pseudonym=piece.pseudonym,
            mechanism=piece.mechanism,
            distortion_m=piece.distortion_m,
            trace=piece.published,
            original_records=len(piece.original),
        )

    @property
    def records_protected(self) -> int:
        """Record count of the raw sub-trace behind this piece."""
        return self.original_records


@dataclass(frozen=True)
class ProtectRequest(WireMessage):
    """Run the MooD cascade on one trace; nothing is ingested server-side."""

    trace: Trace
    #: Pre-chunk into daily windows first (the §4.5 crowdsensing mode).
    daily: bool = False
    chunk_s: float = DEFAULT_CHUNK_S


@dataclass(frozen=True)
class ProtectResponse(WireMessage):
    """Published pieces and erasure counts for one protected trace."""

    user_id: str
    pieces: Tuple[PublishedPiece, ...]
    erased_records: int
    original_records: int

    @property
    def data_loss(self) -> float:
        if self.original_records == 0:
            return 0.0
        return self.erased_records / self.original_records


@dataclass(frozen=True)
class UploadRequest(WireMessage):
    """The middleware path: protect one daily chunk and ingest the pieces."""

    trace: Trace
    day_index: int = 0


@dataclass(frozen=True)
class UploadResponse(WireMessage):
    """Receipt for one upload: what was published, what was dropped."""

    user_id: str
    pseudonyms: Tuple[str, ...]
    published_records: int
    erased_records: int


@dataclass(frozen=True)
class QueryRequest(WireMessage):
    """Spatial analytics over the collected (protected) corpus.

    ``kind``:

    * ``"count"`` — records in the cell containing ``(lat, lng)``;
    * ``"top_cells"`` — the ``k`` busiest cells.
    """

    kind: str = "count"
    lat: Optional[float] = None
    lng: Optional[float] = None
    k: int = 10


@dataclass(frozen=True)
class QueryResponse(WireMessage):
    """Answer to a :class:`QueryRequest`."""

    kind: str
    count: Optional[int] = None
    #: ``(cell_ix, cell_iy, count)`` rows for ``top_cells``.
    cells: Tuple[Tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class StatsRequest(WireMessage):
    """Ask for the proxy's and server's operational counters."""


@dataclass(frozen=True)
class StatsResponse(WireMessage):
    """Operational counters (plain dicts of the stats dataclasses).

    ``proxy`` and ``server`` are required on the wire although the
    constructor defaults them, so a bare ``StatsResponse()`` still makes
    a handy placeholder reply.
    """

    proxy: Dict[str, Any] = field(default_factory=dict, metadata={"required": True})
    server: Dict[str, Any] = field(default_factory=dict, metadata={"required": True})
    #: Streaming-ingestion counters, including per-reason overflow
    #: events (a v1-compatible body addition: old peers ignore it).
    stream: Dict[str, Any] = field(default_factory=dict)
    #: The protocol/build versions the serving process speaks, and the
    #: seconds since it constructed its service — v1-compatible body
    #: additions so ``repro top`` can label rows; old peers ignore them
    #: and old replies decode with the defaults.  ``uptime_s`` has no
    #: key while it is unset.
    versions: Dict[str, Any] = field(default_factory=dict)
    uptime_s: Optional[float] = field(default=None, metadata={"omit_none": True})


# -- streaming ingestion (v1-compatible vocabulary additions) --------------


@dataclass(frozen=True)
class StreamOpen(WireMessage):
    """Open (or resume) one user's record stream.

    ``resume=True`` re-attaches to a surviving session after a
    reconnect: the reply's watermark tells the client the ordinal to
    resend from.  Window parameters are server defaults unless given.
    """

    user_id: str
    window: Optional[str] = None  # "tumbling" | "session" (None: server default)
    window_s: Optional[float] = None
    gap_s: Optional[float] = None
    resume: bool = False


@dataclass(frozen=True)
class StreamOpened(WireMessage):
    """Session attached.  ``watermark`` is the protected-and-durable
    frontier (-1 for a fresh session); ``next_ordinal`` the first
    ordinal the server has *not* buffered — resend from ``watermark+1``
    after a reconnect (duplicates are deduplicated server-side)."""

    user_id: str
    watermark: int
    next_ordinal: int
    resumed: bool = False


@dataclass(frozen=True)
class StreamRecord(WireMessage):
    """One batch of records: ``(ordinal, t, lat, lng)`` rows, ordinal-
    and time-ordered.  Ordinals are client-assigned, contiguous from 0
    per session — they are the currency of the watermark contract.

    The v1 body is the derived one (``records`` as ``[o, t, lat, lng]``
    rows); the v2 body is columnar at the top level: ``o``, ``t``,
    ``lat`` and ``lng`` blocks.
    """

    user_id: str
    records: Tuple[Tuple[int, float, float, float], ...]

    def to_body(self, blocks: Optional[BlockWriter] = None) -> Dict[str, Any]:
        if blocks is None:
            return super().to_body()
        ordinals = [int(o) for o, _, _, _ in self.records]
        # Ordinals ride an int64 block unless one overflows it (they are
        # client-assigned and unbounded by contract) — then they stay
        # inline JSON, which carries arbitrary-precision ints.
        if all(-(2**63) <= o < 2**63 for o in ordinals):
            o_body: Any = blocks.add(ordinals, dtype="<i8")
        else:
            o_body = ordinals
        return {
            "user_id": str(self.user_id),
            "o": o_body,
            "t": blocks.add([float(t) for _, t, _, _ in self.records]),
            "lat": blocks.add([float(lat) for _, _, lat, _ in self.records]),
            "lng": blocks.add([float(lng) for _, _, _, lng in self.records]),
        }

    @classmethod
    def from_body(
        cls, body: Dict[str, Any], blocks: Optional[List["np.ndarray"]] = None
    ) -> "StreamRecord":
        if blocks is None:
            return super().from_body(body)
        raw_o = body["o"]
        if isinstance(raw_o, list):
            ordinals = [_decode_int(o, None) for o in raw_o]
        else:
            ordinals = take_block(raw_o, blocks, dtype="<i8").tolist()
        columns = []
        for key in ("t", "lat", "lng"):
            column = take_block(body[key], blocks)
            if not np.isfinite(column).all():
                raise ProtocolError(f"stream_record v2 column {key!r} is not finite")
            columns.append(column.tolist())
        ts, lats, lngs = columns
        if not (len(ordinals) == len(ts) == len(lats) == len(lngs)):
            raise ProtocolError("stream_record v2 columns disagree on length")
        return cls(
            user_id=_decode_str(body["user_id"], None),
            records=tuple(zip(ordinals, ts, lats, lngs)),
        )


@dataclass(frozen=True)
class StreamAck(WireMessage):
    """Receipt for one record batch.

    ``accepted`` counts records consumed (including deduplicated
    resends); ``status`` is ``"ok"`` or the overflow action taken
    (``"blocked"``/``"shed"``/``"degraded"``) with its machine-readable
    ``reason`` code.  ``blocked`` means the batch tail was rejected:
    resend from ``next_ordinal`` after backing off."""

    user_id: str
    accepted: int
    next_ordinal: int
    watermark: int
    status: str = "ok"
    reason: str = ""


@dataclass(frozen=True)
class StreamFlush(WireMessage):
    """Ack the client's durable frontier and fetch retained pieces.

    ``acked`` is the highest watermark the client has durably consumed
    (piece-log entries at or below it are pruned server-side; -1 acks
    nothing).  ``close_window=True`` force-closes and protects the open
    window first — the end-of-stream flush, after which the returned
    watermark covers every record sent."""

    user_id: str
    acked: int = -1
    close_window: bool = False


@dataclass(frozen=True)
class StreamFlushed(WireMessage):
    """The flush receipt: exactly which ordinals are protected-and-
    durable (``watermark``), plus the published pieces the client has
    not acknowledged yet.  Re-flushing after a lost reply returns the
    same pieces — flush is idempotent until acked."""

    user_id: str
    watermark: int
    #: Inline JSON traces under v2 as well: this verb's pieces predate
    #: the v2 blocks, and older v2 peers reject ``$blk`` refs here.
    pieces: Tuple[PublishedPiece, ...] = field(default=(), metadata={"inline": True})
    erased_records: int = 0
    #: Piece-log entries shed under ``overflow.piece_log_shed`` (their
    #: pieces stayed durable server-side, only the wire copies are gone).
    pieces_dropped: int = 0


@dataclass(frozen=True)
class StreamClose(WireMessage):
    """End one user's stream: flush the open window, retire the session."""

    user_id: str


@dataclass(frozen=True)
class StreamClosed(WireMessage):
    """Final session tally (flush before closing to fetch the last
    window's pieces — close returns counters, not payloads)."""

    user_id: str
    watermark: int
    records_in: int = 0
    records_shed: int = 0
    erased_records: int = 0
    pieces_published: int = 0
    windows_closed: int = 0


@dataclass(frozen=True)
class AuthRequest(WireMessage):
    """One leg of the shared-secret handshake (client → server).

    Without ``proof`` it asks for a challenge (body ``{}``); with
    ``proof`` (the HMAC-blake2b of the server's nonce under the shared
    key, hex) it completes the handshake.  A v1-compatible vocabulary
    addition: the frame format is unchanged, servers without a key
    answer :class:`AuthResponse` immediately, so mixed deployments
    interoperate.
    """

    proof: Optional[str] = field(default=None, metadata={"omit_none": True})


@dataclass(frozen=True)
class AuthChallenge(WireMessage):
    """Server → client: prove knowledge of the key over this nonce."""

    nonce: str


@dataclass(frozen=True)
class AuthResponse(WireMessage):
    """Server → client: the handshake is complete; the connection is
    authenticated (or the server never required auth)."""

    ok: bool = True


class AuthHandshakeRefused(ReproError):
    """Internal: the peer answered a handshake leg with a non-``auth``
    error envelope (e.g. a pre-auth server's ``protocol: unknown message
    type``).  Never escapes the client SDKs — each transport converts it
    to its own failure class (sync: ``ServiceError``; async/cluster:
    ``TransportError``, so the cluster fails over)."""

    def __init__(self, reply: "ErrorEnvelope") -> None:
        super().__init__(f"[{reply.code}] {reply.message}")
        self.reply = reply


def client_auth_handshake(key: bytes):
    """Sans-IO driver for the client side of the auth handshake.

    A generator: yields the next :class:`AuthRequest` to send, receives
    the peer's reply via ``send()``, and returns when the connection is
    authenticated (or the server turns out to be keyless).  Raises
    :class:`~repro.errors.AuthenticationError` on a credential failure,
    :class:`AuthHandshakeRefused` on any other envelope, and
    :class:`~repro.errors.ProtocolError` on a vocabulary violation.
    Both socket clients drive this one state machine, so the protocol
    cannot drift between transports.
    """

    def refuse(reply: ErrorEnvelope) -> None:
        if reply.code == "auth":
            raise AuthenticationError(reply.message)
        raise AuthHandshakeRefused(reply)

    reply = yield AuthRequest()
    if isinstance(reply, AuthResponse):
        return  # keyless server: auth not required, nothing to prove
    if isinstance(reply, ErrorEnvelope):
        refuse(reply)
    if not isinstance(reply, AuthChallenge):
        raise ProtocolError(
            f"expected auth_challenge, got {type(reply).__name__}"
        )
    reply = yield AuthRequest(proof=auth_proof(key, reply.nonce))
    if isinstance(reply, ErrorEnvelope):
        refuse(reply)
    if not isinstance(reply, AuthResponse) or not reply.ok:
        raise ProtocolError(
            f"expected auth_response ok, got {type(reply).__name__}"
        )


@dataclass(frozen=True)
class HelloRequest(WireMessage):
    """Client → server: the wire versions this client can speak.

    Always sent as a JSON frame (tagged ``"v": 2`` so a pre-hello v1
    server rejects it with a version-mismatch envelope the client can
    downgrade on); a server that understands it answers
    :class:`HelloResponse` and the connection switches to the agreed
    version from the next frame on.  A body without ``versions`` is a
    peer that lists nothing, which speaks v1.
    """

    versions: Tuple[int, ...] = field(
        default=SUPPORTED_WIRE_VERSIONS, metadata={"absent": (WIRE_VERSION,)}
    )


@dataclass(frozen=True)
class HelloResponse(WireMessage):
    """Server → client: the agreed wire version for this connection.

    ``version`` is the highest version both sides speak (``1`` when
    nothing higher is shared — v1 is the floor every peer speaks);
    ``versions`` lists everything the server supports, for operators
    (absent: v1 only).  Frames after this reply travel in the agreed
    framing, both ways.
    """

    version: int
    versions: Tuple[int, ...] = field(
        default=SUPPORTED_WIRE_VERSIONS, metadata={"absent": (WIRE_VERSION,)}
    )


def negotiate_wire_version(
    offered: Tuple[int, ...], supported: Tuple[int, ...]
) -> int:
    """The version a connection settles on: highest common, floor v1.

    Both the server's hello handler and the clients' downgrade logic
    call this one function, so the two sides cannot disagree about what
    a given exchange negotiates.
    """
    common = set(int(v) for v in offered) & set(int(v) for v in supported)
    return max(common, default=WIRE_VERSION)


def encode_hello_frame(
    hello: "HelloRequest", request_id: Optional[RequestId] = None
) -> bytes:
    """The negotiation frame both socket clients send after connecting.

    A JSON line deliberately tagged ``"v": 2``: a server that predates
    the hello verb trips over the *version* first and answers with a
    mismatch envelope naming what it speaks (the downgrade signal —
    see :func:`peer_versions_from_error`), while a current server's
    :func:`parse_frame_envelope` exempts ``hello_request`` from the
    version gate and negotiates.
    """
    return _encode_header(WIRE_VERSION_V2, hello, request_id) + b"\n"


_PEER_VERSIONS_RE = re.compile(r"speaks \[?([0-9][0-9,\s]*)\]?")


def peer_versions_from_error(message: str) -> Optional[Tuple[int, ...]]:
    """The versions a peer says it speaks, recovered from its version-
    mismatch error envelope.

    Understands both the PR-3-era wording (``... (this side speaks 1)``)
    and the current wording (``... this side speaks [1, 2]``), so a v2
    client can downgrade against any server generation instead of
    marking the connection broken.  ``None`` when *message* is not a
    version mismatch.
    """
    if "unsupported protocol version" not in message:
        return None
    match = _PEER_VERSIONS_RE.search(message)
    if match is None:
        return None
    # The pattern admits only digits, commas and spaces: every token parses.
    tokens = match.group(1).replace(",", " ").split()
    return tuple(sorted({int(token) for token in tokens}))


@dataclass(frozen=True)
class ErrorEnvelope(WireMessage):
    """The one shape every service-side fault travels in.

    ``code`` is machine-readable (``"protocol"``, ``"bad_request"``,
    ``"unsupported"``, ``"auth"``, ``"internal"``); ``message`` is for
    humans.
    """

    code: str
    message: str


# ---------------------------------------------------------------------------
# Cluster control plane (v1-compatible vocabulary additions)
# ---------------------------------------------------------------------------
#
# Member entries travel as open dicts (``endpoint``, ``worker_id``,
# ``state``, ``capacity``, ``joined_epoch``, ``age_s``) rather than a
# fixed dataclass so the registry can grow fields without a protocol
# bump; consumers read keys defensively.


@dataclass(frozen=True)
class ClusterJoin(WireMessage):
    """Announce a worker endpoint to a coordinator's membership registry.

    ``endpoint`` is the address *other* peers should dial (``host:port``
    or ``unix:/path``) — the coordinator records it verbatim, it does
    not trust the connection's source address.  Joining is idempotent:
    re-announcing an alive member refreshes its liveness clock.
    """

    endpoint: str
    worker_id: str = ""
    capacity: int = 0


@dataclass(frozen=True)
class ClusterJoined(WireMessage):
    """Join acknowledgement: the registry epoch and a membership snapshot."""

    accepted: bool
    epoch: int
    members: Tuple[Dict[str, Any], ...] = ()


@dataclass(frozen=True)
class ClusterLeave(WireMessage):
    """Deregister an endpoint from the data plane (graceful departure).

    Leaving stops *new* shard dispatch to the member; requests already
    in flight on it are allowed to finish, preserving the
    never-replay-where-a-frame-may-have-reached rule.
    """

    endpoint: str
    reason: str = ""


@dataclass(frozen=True)
class ClusterLeft(WireMessage):
    """Leave acknowledgement; ``removed`` is False for unknown members."""

    removed: bool
    epoch: int


@dataclass(frozen=True)
class ClusterHeartbeat(WireMessage):
    """Liveness refresh for a joined member (``inflight`` is advisory load)."""

    endpoint: str
    inflight: int = 0


@dataclass(frozen=True)
class ClusterHeartbeatAck(WireMessage):
    """Heartbeat reply; ``known=False`` tells the worker to re-join."""

    known: bool
    epoch: int


@dataclass(frozen=True)
class ClusterMembershipRequest(WireMessage):
    """Ask the coordinator for its current membership view."""


@dataclass(frozen=True)
class ClusterMembershipResponse(WireMessage):
    """The registry snapshot elastic clients subscribe to.

    ``epoch`` increments on every join/leave, so a subscriber can skip
    diffing unchanged snapshots.
    """

    epoch: int
    members: Tuple[Dict[str, Any], ...] = ()


@dataclass(frozen=True)
class MetricsRequest(WireMessage):
    """Ask one endpoint for its operator metrics (``repro top`` polls this)."""


@dataclass(frozen=True)
class MetricsResponse(WireMessage):
    """One endpoint's live operator metrics, grouped by subsystem.

    Every block is an open dict (same growth rule as member entries):

    * ``transport`` — socket-server counters from
      :meth:`~repro.service.rpc.ServiceServer.transport_stats`: queue
      depth (``inflight_requests``), in-flight bytes, byte budgets,
      slow-consumer evictions, requests served.  Empty when the service
      is not socket-fronted (loopback).
    * ``service`` — proxy + collection-server counters.
    * ``stream`` — the :class:`~repro.stream.StreamHub` stats block.
    * ``feature_cache`` — engine FeatureCache hits/misses/entries.
    * ``cluster`` — the local registry view (``epoch`` + ``members``).
    """

    uptime_s: float
    versions: Dict[str, Any] = field(default_factory=dict)
    transport: Dict[str, Any] = field(default_factory=dict)
    service: Dict[str, Any] = field(default_factory=dict)
    stream: Dict[str, Any] = field(default_factory=dict)
    feature_cache: Dict[str, Any] = field(default_factory=dict)
    cluster: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JSON-lines codec
# ---------------------------------------------------------------------------

#: slug <-> message class (the versioned vocabulary of the protocol).
MESSAGE_TYPES: Dict[str, Type[Any]] = {
    "protect_request": ProtectRequest,
    "protect_response": ProtectResponse,
    "upload_request": UploadRequest,
    "upload_response": UploadResponse,
    "query_request": QueryRequest,
    "query_response": QueryResponse,
    "stats_request": StatsRequest,
    "stats_response": StatsResponse,
    "stream_open": StreamOpen,
    "stream_opened": StreamOpened,
    "stream_record": StreamRecord,
    "stream_ack": StreamAck,
    "stream_flush": StreamFlush,
    "stream_flushed": StreamFlushed,
    "stream_close": StreamClose,
    "stream_closed": StreamClosed,
    "cluster_join": ClusterJoin,
    "cluster_joined": ClusterJoined,
    "cluster_leave": ClusterLeave,
    "cluster_left": ClusterLeft,
    "cluster_heartbeat": ClusterHeartbeat,
    "cluster_heartbeat_ack": ClusterHeartbeatAck,
    "cluster_membership_request": ClusterMembershipRequest,
    "cluster_membership_response": ClusterMembershipResponse,
    "metrics_request": MetricsRequest,
    "metrics_response": MetricsResponse,
    "auth_request": AuthRequest,
    "auth_challenge": AuthChallenge,
    "auth_response": AuthResponse,
    "hello_request": HelloRequest,
    "hello_response": HelloResponse,
    "error": ErrorEnvelope,
}

_SLUG_OF = {cls: slug for slug, cls in MESSAGE_TYPES.items()}

# Build every registered message's field plan now: an annotation with
# no wire form fails the import instead of the first frame.
for _cls in MESSAGE_TYPES.values():
    _plan(_cls)
del _cls

#: Any message of the protocol.
Message = Union[
    ProtectRequest,
    ProtectResponse,
    UploadRequest,
    UploadResponse,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    StreamOpen,
    StreamOpened,
    StreamRecord,
    StreamAck,
    StreamFlush,
    StreamFlushed,
    StreamClose,
    StreamClosed,
    ClusterJoin,
    ClusterJoined,
    ClusterLeave,
    ClusterLeft,
    ClusterHeartbeat,
    ClusterHeartbeatAck,
    ClusterMembershipRequest,
    ClusterMembershipResponse,
    MetricsRequest,
    MetricsResponse,
    AuthRequest,
    AuthChallenge,
    AuthResponse,
    HelloRequest,
    HelloResponse,
    ErrorEnvelope,
]


class MessageEncodeError(ProtocolError):
    """*This side's own* message could not be encoded (non-finite float,
    unregistered type, bad id).  A deterministic caller error raised
    before any frame is sent: retrying on another endpoint cannot help,
    so cluster clients propagate it instead of blaming the endpoint."""


def _is_request_id(value: Any) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _encode_header(
    version: int,
    message: Message,
    request_id: Optional[RequestId],
    blocks: Optional[BlockWriter] = None,
) -> bytes:
    """The JSON object framing *message* in both wire versions.

    ``{"v", "type", ["id",] "body"}`` — plus ``"blocks"`` (the payload
    spec) when the body put columns into *blocks*.  Under v1 this is
    the whole line; under v2 it is the frame header.  Non-finite floats
    are a :class:`MessageEncodeError`: ``json.dumps`` would otherwise
    emit ``NaN``/``Infinity`` tokens, which are not JSON.
    """
    slug = _SLUG_OF.get(type(message))
    if slug is None:
        raise MessageEncodeError(f"{type(message).__name__} is not a wire message")
    header: Dict[str, Any] = {"v": version, "type": slug}
    if request_id is not None:
        if not _is_request_id(request_id):
            raise MessageEncodeError(
                f"request id must be an int or str, got {type(request_id).__name__}"
            )
        header["id"] = request_id
    try:
        header["body"] = message.to_body(blocks)
    except ProtocolError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise MessageEncodeError(f"{slug} body is not encodable: {exc}") from exc
    spec = blocks.spec() if blocks is not None else None
    if spec:
        header["blocks"] = spec
    try:
        text = json.dumps(header, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise MessageEncodeError(
            f"{slug} contains a non-finite float (NaN/Infinity), which has "
            f"no JSON encoding: {exc}"
        ) from exc
    return text.encode("utf-8")


def encode_message(
    message: Message, request_id: Optional[RequestId] = None
) -> bytes:
    """One ``\\n``-terminated JSON line for *message*.

    With *request_id*, the frame carries an ``"id"`` key so the peer can
    correlate the reply to this request even when replies come back out
    of order (concurrent per-connection handling).  Non-finite floats
    are a :class:`MessageEncodeError` (a :class:`~repro.errors.ProtocolError`).
    """
    return _encode_header(WIRE_VERSION, message, request_id) + b"\n"


def _check_header(
    frame: Any, what: str, version: int, framing: str
) -> Tuple[Optional[RequestId], str, Type[Any], Dict[str, Any]]:
    """The envelope checks both framings share: the frame's shape, its
    id, version and type, and the body's shape.

    *what* names the frame in a shape error; *framing* describes this
    framing in a version-mismatch error, which also names every version
    this side speaks so the peer can fall back instead of giving up
    (see :func:`peer_versions_from_error`).  Errors carry
    ``request_id`` once the tag itself was readable.
    """
    if not isinstance(frame, dict):
        raise ProtocolError(f"{what} must be an object, got {type(frame).__name__}")
    request_id = frame.get("id")
    if request_id is not None and not _is_request_id(request_id):
        # Silently downgrading to "untagged" would make the reply come
        # back without an id and leave the sender's pending future
        # hanging until timeout — reject loudly instead (mirroring the
        # encode side).  The bogus tag is not echoed.
        raise ProtocolError(
            f"request id must be an int or str, got {type(request_id).__name__}"
        )

    def fail(message: str) -> "ProtocolError":
        exc = ProtocolError(message)
        exc.request_id = request_id
        return exc

    sent = frame.get("v")
    slug = frame.get("type")
    # hello_request is exempt in JSON framing: it deliberately arrives
    # tagged with the version the client *wants* so old servers reject
    # it here (and the client downgrades on their reply).
    if sent != version and not (version == WIRE_VERSION and slug == "hello_request"):
        raise fail(
            f"unsupported protocol version: peer sent {sent!r}, "
            f"this side speaks {list(SUPPORTED_WIRE_VERSIONS)} ({framing})"
        )
    cls = MESSAGE_TYPES.get(slug) if isinstance(slug, str) else None
    if cls is None:
        # The full vocabulary stays out of the wire error: this envelope
        # reaches peers the server has not authenticated yet, and 30+
        # verb slugs is a free protocol map.  Operators get the list in
        # the server-side log instead.
        logger.info(
            "rejecting unknown message type %r; registered types: %s",
            slug,
            sorted(MESSAGE_TYPES),
        )
        raise fail(
            f"unknown message type {slug!r} (not one of this side's "
            f"{len(MESSAGE_TYPES)} registered types)"
        )
    body = frame.get("body")
    if not isinstance(body, dict):
        raise fail(f"message body must be an object, got {type(body).__name__}")
    return request_id, slug, cls, body


def parse_frame_envelope(
    line: Union[str, bytes]
) -> Tuple[Optional[RequestId], str, Type[Any], Dict[str, Any]]:
    """Validate a frame's envelope — version, type, id, body *shape* —
    without materialising the body.

    The cheap first stage of :func:`decode_frame`: it never builds
    message dataclasses (no :class:`Trace`, no numpy arrays), so a
    server can inspect a frame's type — e.g. to reject unauthenticated
    requests — before paying for its payload.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"wire frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON on the wire: {exc}") from exc
    return _check_header(
        frame,
        "wire frame",
        WIRE_VERSION,
        f"JSON framing is v{WIRE_VERSION}; negotiate higher with hello_request",
    )


def _materialize(
    request_id: Optional[RequestId],
    slug: str,
    cls: Type[Any],
    body: Dict[str, Any],
    blocks: Optional[List["np.ndarray"]],
) -> Message:
    """Body → message for either framing; every malformed body becomes
    a :class:`~repro.errors.ProtocolError` carrying the request id."""
    try:
        return cls.from_body(body, blocks)
    except ProtocolError as exc:
        exc.request_id = request_id
        raise
    except (KeyError, TypeError, ValueError) as exc:
        fail = ProtocolError(f"malformed {slug} body: {exc}")
        fail.request_id = request_id
        raise fail from exc


def materialize_frame(
    request_id: Optional[RequestId], slug: str, cls: Type[Any], body: Dict[str, Any]
) -> Message:
    """Second stage of :func:`decode_frame`: body dict → message."""
    return _materialize(request_id, slug, cls, body, None)


def decode_frame(
    line: Union[str, bytes]
) -> Tuple[Optional[RequestId], Message]:
    """Parse one wire line into ``(request_id, message)``.

    ``request_id`` is ``None`` for untagged (legacy FIFO) frames.  On a
    malformed frame the raised :class:`~repro.errors.ProtocolError`
    carries a ``request_id`` attribute when the tag itself was readable,
    so error envelopes can still be correlated.
    """
    request_id, slug, cls, body = parse_frame_envelope(line)
    return request_id, materialize_frame(request_id, slug, cls, body)


def decode_message(line: Union[str, bytes]) -> Message:
    """Parse one wire line back into its message dataclass."""
    return decode_frame(line)[1]


def encode_reply(message: Message, request_id: Optional[RequestId] = None) -> bytes:
    """Encode a reply, downgrading encode failures to error envelopes.

    A reply that cannot be serialised (e.g. a non-finite float produced
    by the engine) must not kill the connection or leak a half-written
    frame: the peer gets a well-formed ``error`` envelope instead.
    """
    return encode_reply_for(WIRE_VERSION, message, request_id=request_id)


# ---------------------------------------------------------------------------
# v2 binary framing
# ---------------------------------------------------------------------------

#: v2 frame magic.  ``M`` (0x4D) can never start a v1 frame (those are
#: JSON objects, first byte ``{``), so a peer reading with the wrong
#: framing fails fast instead of mis-parsing.
WIRE_MAGIC_V2 = b"MRB2"

#: After the magic: header length (uint32 LE), blocks length (uint64 LE).
_V2_PREFIX = struct.Struct("<IQ")

#: Total fixed prefix: magic + the two length fields (16 bytes).
V2_PREFIX_LEN = len(WIRE_MAGIC_V2) + _V2_PREFIX.size


def is_v2_frame(data: bytes) -> bool:
    """Whether *data* starts like a v2 binary frame (magic sniff)."""
    return bytes(data[: len(WIRE_MAGIC_V2)]) == WIRE_MAGIC_V2


def v2_frame_lengths(prefix: bytes) -> Tuple[int, int]:
    """``(header_len, blocks_len)`` from a frame's 16-byte prefix.

    Transports call this on the fixed prefix *before* reading the rest,
    so size caps and byte budgets are enforced on the frame's actual
    payload bytes without buffering an oversized frame first.
    """
    if len(prefix) < V2_PREFIX_LEN or not is_v2_frame(prefix):
        raise ProtocolError("not a v2 binary frame (bad magic)")
    header_len, blocks_len = _V2_PREFIX.unpack_from(prefix, len(WIRE_MAGIC_V2))
    return header_len, blocks_len


def encode_message_v2(
    message: Message, request_id: Optional[RequestId] = None
) -> bytes:
    """One v2 binary frame for *message*.

    Layout: ``MRB2 | header_len u32 | blocks_len u64 | header JSON |
    blocks``.  Trace-bearing messages put their float64/int64 columns in
    the blocks region (raw little-endian bytes, no per-element encode);
    every other message carries its v1 JSON body inside the header, so
    one framing speaks the whole vocabulary.
    """
    blocks = BlockWriter()
    head = _encode_header(WIRE_VERSION_V2, message, request_id, blocks)
    payload = blocks.payload()
    return b"".join(
        (WIRE_MAGIC_V2, _V2_PREFIX.pack(len(head), len(payload)), head, payload)
    )


def parse_frame_v2(
    data: bytes,
) -> Tuple[Optional[RequestId], str, Type[Any], Dict[str, Any], List["np.ndarray"]]:
    """Envelope + payload blocks of one v2 frame, no dataclasses built.

    The v2 counterpart of :func:`parse_frame_envelope`: cheap enough to
    run before auth (blocks are zero-copy views, never materialised),
    and errors carry ``request_id`` when the tag was readable.
    """
    data = bytes(data) if isinstance(data, (bytearray, memoryview)) else data
    if not is_v2_frame(data):
        raise ProtocolError("not a v2 binary frame (bad magic)")
    if len(data) < V2_PREFIX_LEN:
        raise ProtocolError("v2 frame truncated inside its length prefix")
    header_len, blocks_len = v2_frame_lengths(data)
    expected = V2_PREFIX_LEN + header_len + blocks_len
    if len(data) != expected:
        raise ProtocolError(
            f"v2 frame length mismatch: prefix declares {expected} bytes, "
            f"got {len(data)}"
        )
    try:
        header = json.loads(data[V2_PREFIX_LEN : V2_PREFIX_LEN + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
        raise ProtocolError(f"invalid v2 frame header: {exc}") from exc
    request_id, slug, cls, body = _check_header(
        header, "v2 frame header", WIRE_VERSION_V2, f"binary framing is v{WIRE_VERSION_V2}"
    )
    try:
        parsed = split_blocks(
            header.get("blocks", []), memoryview(data)[V2_PREFIX_LEN + header_len :]
        )
    except ProtocolError as exc:
        exc.request_id = request_id
        raise
    return request_id, slug, cls, body, parsed


def materialize_frame_v2(
    request_id: Optional[RequestId],
    slug: str,
    cls: Type[Any],
    body: Dict[str, Any],
    blocks: List["np.ndarray"],
) -> Message:
    """Second stage of :func:`decode_frame_v2`: header body → message."""
    return _materialize(request_id, slug, cls, body, blocks)


def decode_frame_v2(data: bytes) -> Tuple[Optional[RequestId], Message]:
    """Parse one v2 binary frame into ``(request_id, message)``."""
    request_id, slug, cls, body, blocks = parse_frame_v2(data)
    return request_id, materialize_frame_v2(request_id, slug, cls, body, blocks)


def encode_message_for(
    version: int, message: Message, request_id: Optional[RequestId] = None
) -> bytes:
    """Encode *message* in the framing a connection negotiated."""
    if version >= WIRE_VERSION_V2:
        return encode_message_v2(message, request_id=request_id)
    return encode_message(message, request_id=request_id)


def decode_frame_any(data: bytes) -> Tuple[Optional[RequestId], Message]:
    """Decode a frame of either framing (magic-sniffed)."""
    if is_v2_frame(data):
        return decode_frame_v2(data)
    return decode_frame(data)


def encode_reply_for(
    version: int, message: Message, request_id: Optional[RequestId] = None
) -> bytes:
    """Version-aware :func:`encode_reply` (failures become envelopes)."""
    try:
        return encode_message_for(version, message, request_id=request_id)
    except ProtocolError as exc:
        return encode_message_for(
            version,
            ErrorEnvelope(code="internal", message=f"reply not encodable: {exc}"),
            request_id=request_id,
        )


# ---------------------------------------------------------------------------
# The service facade
# ---------------------------------------------------------------------------


class ProtectionService:
    """Async facade over engine + proxy + collection server.

    One instance is one deployment of the middleware: it owns the proxy
    (cascade + session pseudonyms + operational counters) and the
    collection server (protected corpus + analytics).  All four verbs
    are coroutines; CPU-heavy protection runs on the event loop's
    default thread pool so a serving loop stays responsive.  Requests
    handled sequentially are fully deterministic — the loopback
    transport relies on that to keep campaign reports reproducible.

    Shared state (pseudonym counters, proxy stats, the collected
    corpus) is guarded by one service-wide mutex: the socket server
    multiplexes many connections onto one loop whose pool may run
    several protection bodies at once, and an unguarded
    ``SessionPseudonyms`` get/increment could hand two concurrent
    uploads of the same user the same pseudonym.  The lock is a plain
    :class:`threading.Lock` (not an asyncio one) because the service
    may be driven from different event loops over its lifetime and the
    mutation happens on pool threads.
    """

    def __init__(
        self,
        engine: ProtectionEngine,
        *,
        server: Optional[CollectionServer] = None,
        pseudonyms: Optional[PseudonymProvider] = None,
        stream: Optional[StreamConfig] = None,
        cluster: Optional[Any] = None,
    ) -> None:
        self.proxy = MoodProxy(engine, pseudonyms=pseudonyms)
        self.server = server if server is not None else CollectionServer()
        self.streams = StreamHub(self.proxy, sink=self.server.receive, config=stream)
        if cluster is None:
            # Lazy import: repro.cluster imports this module's messages.
            from repro.cluster.registry import ClusterRegistry

            cluster = ClusterRegistry()
        #: Membership registry — every deployment can act as the
        #: coordinator of a cluster; workers announce themselves with
        #: ``cluster_join`` and elastic clients poll
        #: ``cluster_membership_request``.
        self.cluster = cluster
        #: Set by :class:`~repro.service.rpc.ServiceServer` when this
        #: service is socket-fronted, so ``metrics`` can report queue
        #: depth and in-flight bytes.  Loopback deployments leave it
        #: None and the transport block comes back empty.
        self.transport_stats: Optional[Callable[[], Dict[str, Any]]] = None
        self.started_monotonic = time.monotonic()
        self._state_lock = threading.Lock()
        self._handlers = {
            ProtectRequest: self.protect,
            UploadRequest: self.upload,
            QueryRequest: self.query,
            StatsRequest: self.stats,
            StreamOpen: self.stream_open,
            StreamRecord: self.stream_record,
            StreamFlush: self.stream_flush,
            StreamClose: self.stream_close,
            ClusterJoin: self.cluster_join,
            ClusterLeave: self.cluster_leave,
            ClusterHeartbeat: self.cluster_heartbeat,
            ClusterMembershipRequest: self.cluster_membership,
            MetricsRequest: self.metrics,
            HelloRequest: self.hello,
        }

    @property
    def engine(self) -> ProtectionEngine:
        return self.proxy.engine

    # -- verbs -----------------------------------------------------------

    async def protect(self, request: ProtectRequest) -> ProtectResponse:
        """Run the cascade; return published pieces without ingesting."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._protect_sync, request)

    async def upload(self, request: UploadRequest) -> UploadResponse:
        """Protect one chunk and ingest its pieces into the server."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._upload_sync, request)

    async def query(self, request: QueryRequest) -> QueryResponse:
        """Answer a spatial analytics query over the collected corpus."""
        # Validate on the loop (cheap, lock-free); read on the pool —
        # waiting for the state lock must never stall the event loop.
        if request.kind not in ("count", "top_cells"):
            raise ConfigurationError(
                f"unknown query kind {request.kind!r}; choose from ('count', 'top_cells')"
            )
        if request.kind == "count" and (request.lat is None or request.lng is None):
            raise ConfigurationError("a 'count' query needs 'lat' and 'lng'")
        if request.kind == "top_cells" and request.k < 1:
            raise ConfigurationError(f"'top_cells' needs k >= 1, got {request.k}")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._query_sync, request)

    async def stats(self, request: Optional[StatsRequest] = None) -> StatsResponse:
        """Proxy and server operational counters."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._stats_sync)

    # -- cluster control plane --------------------------------------------

    async def cluster_join(self, request: ClusterJoin) -> ClusterJoined:
        """Register (or refresh) a worker in the membership registry."""
        self.cluster.join(
            request.endpoint, worker_id=request.worker_id, capacity=request.capacity
        )
        epoch, members = self.cluster.snapshot()
        return ClusterJoined(accepted=True, epoch=epoch, members=members)

    async def cluster_leave(self, request: ClusterLeave) -> ClusterLeft:
        """Gracefully deregister a worker from the data plane."""
        removed = self.cluster.leave(request.endpoint, reason=request.reason)
        return ClusterLeft(removed=removed, epoch=self.cluster.epoch)

    async def cluster_heartbeat(
        self, request: ClusterHeartbeat
    ) -> ClusterHeartbeatAck:
        """Refresh a member's liveness clock; unknown members must re-join."""
        known = self.cluster.heartbeat(request.endpoint, inflight=request.inflight)
        return ClusterHeartbeatAck(known=known, epoch=self.cluster.epoch)

    async def cluster_membership(
        self, request: Optional[ClusterMembershipRequest] = None
    ) -> ClusterMembershipResponse:
        """The registry snapshot elastic clients subscribe to."""
        epoch, members = self.cluster.snapshot()
        return ClusterMembershipResponse(epoch=epoch, members=members)

    async def metrics(self, request: Optional[MetricsRequest] = None) -> MetricsResponse:
        """Live operator metrics for this endpoint (``repro top``)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._metrics_sync)

    async def hello(self, request: HelloRequest) -> HelloResponse:
        """Version negotiation, service-level.

        The socket server answers hellos at the transport layer (it owns
        the per-connection framing switch); this handler keeps the verb
        total for loopback and direct ``handle()`` callers, where no
        framing switch exists and the reply is purely informational.
        """
        return HelloResponse(
            version=negotiate_wire_version(request.versions, SUPPORTED_WIRE_VERSIONS),
            versions=SUPPORTED_WIRE_VERSIONS,
        )

    # -- streaming verbs --------------------------------------------------

    async def stream_open(self, request: StreamOpen) -> StreamOpened:
        """Open (or resume) one user's ingestion session."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._stream_open_sync, request)

    async def stream_record(self, request: StreamRecord) -> StreamAck:
        """Ingest one record batch; closed windows are protected inline."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._stream_record_sync, request)

    async def stream_flush(self, request: StreamFlush) -> StreamFlushed:
        """Ack the durable frontier and return unacknowledged pieces."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._stream_flush_sync, request)

    async def stream_close(self, request: StreamClose) -> StreamClosed:
        """Flush and retire one user's session."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._stream_close_sync, request)

    # -- sync bodies (run on the pool, under the state lock) -------------

    def _query_sync(self, request: QueryRequest) -> QueryResponse:
        if request.kind == "count":
            with self._state_lock:
                count = self.server.count_in_cell(request.lat, request.lng)
            return QueryResponse(kind="count", count=count)
        with self._state_lock:
            top = self.server.top_cells(request.k)
        return QueryResponse(
            kind="top_cells", cells=tuple((cell.ix, cell.iy, n) for cell, n in top)
        )

    def _versions(self) -> Dict[str, Any]:
        from repro import __version__

        return {
            "protocol": WIRE_VERSION,
            "protocols": list(SUPPORTED_WIRE_VERSIONS),
            "build": __version__,
        }

    def _stats_sync(self) -> StatsResponse:
        from dataclasses import asdict

        with self._state_lock:
            return StatsResponse(
                proxy=asdict(self.proxy.stats),
                server=asdict(self.server.stats),
                stream=self.streams.stats_dict(),
                uptime_s=time.monotonic() - self.started_monotonic,
                versions=self._versions(),
            )

    def _metrics_sync(self) -> MetricsResponse:
        from dataclasses import asdict

        transport = (
            dict(self.transport_stats())
            if self.transport_stats is not None
            else {}
        )
        cache = getattr(self.engine, "feature_cache", None)
        epoch, members = self.cluster.snapshot()
        with self._state_lock:
            service = {
                "proxy": asdict(self.proxy.stats),
                "server": asdict(self.server.stats),
            }
            stream = self.streams.stats_dict()
        return MetricsResponse(
            uptime_s=time.monotonic() - self.started_monotonic,
            versions=self._versions(),
            transport=transport,
            service=service,
            stream=stream,
            feature_cache=dict(cache.stats()) if cache is not None else {},
            cluster={"epoch": epoch, "members": [dict(m) for m in members]},
        )

    def _stream_open_sync(self, request: StreamOpen) -> StreamOpened:
        with self._state_lock:
            session, resumed = self.streams.open(
                request.user_id,
                window=request.window,
                window_s=request.window_s,
                gap_s=request.gap_s,
                resume=request.resume,
            )
            return StreamOpened(
                user_id=request.user_id,
                watermark=session.watermark,
                next_ordinal=session.next_ordinal,
                resumed=resumed,
            )

    def _stream_record_sync(self, request: StreamRecord) -> StreamAck:
        with self._state_lock:
            outcome = self.streams.ingest(request.user_id, request.records)
        return StreamAck(
            user_id=request.user_id,
            accepted=outcome.accepted,
            next_ordinal=outcome.next_ordinal,
            watermark=outcome.watermark,
            status=outcome.status,
            reason=outcome.reason,
        )

    def _stream_flush_sync(self, request: StreamFlush) -> StreamFlushed:
        with self._state_lock:
            outcome = self.streams.flush(
                request.user_id,
                acked=request.acked,
                close_window=request.close_window,
            )
        return StreamFlushed(
            user_id=request.user_id,
            watermark=outcome.watermark,
            pieces=tuple(PublishedPiece.of(p) for p in outcome.pieces),
            erased_records=outcome.erased_records,
            pieces_dropped=outcome.pieces_dropped,
        )

    def _stream_close_sync(self, request: StreamClose) -> StreamClosed:
        with self._state_lock:
            outcome = self.streams.close(request.user_id)
        return StreamClosed(
            user_id=request.user_id,
            watermark=outcome.watermark,
            records_in=outcome.records_in,
            records_shed=outcome.records_shed,
            erased_records=outcome.erased_records,
            pieces_published=outcome.pieces_published,
            windows_closed=outcome.windows_closed,
        )

    def drain_streams(self) -> Dict[str, int]:
        """Graceful-shutdown hook: flush every open stream window so the
        final watermarks cover everything clients sent (``repro serve``
        calls this on SIGTERM before exiting)."""
        with self._state_lock:
            return self.streams.drain()

    def _protect_sync(self, request: ProtectRequest) -> ProtectResponse:
        # The engine, pseudonym counters, and stats are shared mutable
        # state: one protection body runs at a time.
        trace = request.trace
        chunks = (
            split_fixed_time(trace, request.chunk_s) if request.daily else [trace]
        )
        pieces: List[PublishedPiece] = []
        erased = 0
        with self._state_lock:
            for i, chunk in enumerate(chunks):
                if len(chunk) == 0:
                    continue
                result = self.proxy.protect_chunk(UploadChunk(trace.user_id, i, chunk))
                erased += result.erased_records
                pieces.extend(PublishedPiece.of(p) for p in result.pieces)
        return ProtectResponse(
            user_id=trace.user_id,
            pieces=tuple(pieces),
            erased_records=erased,
            original_records=len(trace),
        )

    def _upload_sync(self, request: UploadRequest) -> UploadResponse:
        chunk = UploadChunk(request.trace.user_id, request.day_index, request.trace)
        published = 0
        pseudonyms: List[str] = []
        with self._state_lock:
            result = self.proxy.protect_chunk(chunk)
            for piece in result.pieces:
                self.server.receive(piece.published)
                pseudonyms.append(piece.pseudonym)
                published += len(piece.published)
        return UploadResponse(
            user_id=request.trace.user_id,
            pseudonyms=tuple(pseudonyms),
            published_records=published,
            erased_records=result.erased_records,
        )

    # -- dispatch --------------------------------------------------------

    async def handle(self, message: Message) -> Message:
        """Route one decoded request; faults become error envelopes."""
        handler = self._handlers.get(type(message))
        if handler is None:
            return ErrorEnvelope(
                code="unsupported",
                message=f"{type(message).__name__} is not a request this side serves",
            )
        try:
            return await handler(message)
        except ReproError as exc:
            return ErrorEnvelope(code="bad_request", message=str(exc))
        except Exception as exc:  # noqa: BLE001 - the envelope is the contract
            return ErrorEnvelope(
                code="internal", message=f"{type(exc).__name__}: {exc}"
            )

    async def handle_wire(self, line: Union[str, bytes]) -> bytes:
        """Decode one wire frame, handle it, encode the reply.

        Never raises: protocol violations come back as ``error`` frames,
        so a transport can pipe bytes blindly.  A tagged request's id is
        echoed on the reply (including error envelopes, whenever the tag
        itself was readable).  The framing is sniffed per frame — a v2
        binary frame gets a v2 binary reply, a v1 JSON line a v1 line —
        so both loopback generations share this one entry point.
        """
        raw = line.encode("utf-8") if isinstance(line, str) else bytes(line)
        version = WIRE_VERSION_V2 if is_v2_frame(raw) else WIRE_VERSION
        try:
            request_id, message = decode_frame_any(raw)
        except ProtocolError as exc:
            return encode_reply_for(
                version,
                ErrorEnvelope(code="protocol", message=str(exc)),
                request_id=getattr(exc, "request_id", None),
            )
        return encode_reply_for(
            version, await self.handle(message), request_id=request_id
        )


# ---------------------------------------------------------------------------
# Client SDK base + loopback transport
# ---------------------------------------------------------------------------


class ServiceClientBase:
    """Verb-level SDK shared by every transport.

    Subclasses implement :meth:`request` (one message in, one message
    out); the convenience methods add typed signatures and raise
    :class:`~repro.errors.ServiceError` on error envelopes.
    """

    def request(self, message: Message) -> Message:
        raise NotImplementedError

    def _ask(self, message: Message, expected: Type[Any]) -> Any:
        reply = self.request(message)
        if isinstance(reply, ErrorEnvelope):
            if reply.code == "auth":
                raise AuthenticationError(reply.message)
            raise ServiceError(reply.code, reply.message)
        if not isinstance(reply, expected):
            raise ProtocolError(
                f"expected {expected.__name__}, got {type(reply).__name__}"
            )
        return reply

    def protect(
        self, trace: Trace, daily: bool = False, chunk_s: float = DEFAULT_CHUNK_S
    ) -> ProtectResponse:
        return self._ask(
            ProtectRequest(trace=trace, daily=daily, chunk_s=chunk_s), ProtectResponse
        )

    def upload(self, trace: Trace, day_index: int = 0) -> UploadResponse:
        return self._ask(UploadRequest(trace=trace, day_index=day_index), UploadResponse)

    def query(self, request: QueryRequest) -> QueryResponse:
        return self._ask(request, QueryResponse)

    def query_count(self, lat: float, lng: float) -> int:
        reply = self.query(QueryRequest(kind="count", lat=lat, lng=lng))
        return int(reply.count or 0)

    def top_cells(self, k: int = 10) -> Tuple[Tuple[int, int, int], ...]:
        return self.query(QueryRequest(kind="top_cells", k=k)).cells

    def stats(self) -> StatsResponse:
        return self._ask(StatsRequest(), StatsResponse)

    # -- cluster control plane --------------------------------------------

    def cluster_join(
        self, endpoint: str, worker_id: str = "", capacity: int = 0
    ) -> ClusterJoined:
        return self._ask(
            ClusterJoin(endpoint=endpoint, worker_id=worker_id, capacity=capacity),
            ClusterJoined,
        )

    def cluster_leave(self, endpoint: str, reason: str = "") -> ClusterLeft:
        return self._ask(ClusterLeave(endpoint=endpoint, reason=reason), ClusterLeft)

    def cluster_heartbeat(
        self, endpoint: str, inflight: int = 0
    ) -> ClusterHeartbeatAck:
        return self._ask(
            ClusterHeartbeat(endpoint=endpoint, inflight=inflight),
            ClusterHeartbeatAck,
        )

    def cluster_membership(self) -> ClusterMembershipResponse:
        return self._ask(ClusterMembershipRequest(), ClusterMembershipResponse)

    def metrics(self) -> MetricsResponse:
        return self._ask(MetricsRequest(), MetricsResponse)

    # -- streaming verbs ---------------------------------------------------

    def stream_open(
        self,
        user_id: str,
        window: Optional[str] = None,
        window_s: Optional[float] = None,
        gap_s: Optional[float] = None,
        resume: bool = False,
    ) -> StreamOpened:
        return self._ask(
            StreamOpen(
                user_id=user_id,
                window=window,
                window_s=window_s,
                gap_s=gap_s,
                resume=resume,
            ),
            StreamOpened,
        )

    def stream_record(
        self, user_id: str, records: Tuple[Tuple[int, float, float, float], ...]
    ) -> StreamAck:
        return self._ask(
            StreamRecord(user_id=user_id, records=tuple(records)), StreamAck
        )

    def stream_flush(
        self, user_id: str, acked: int = -1, close_window: bool = False
    ) -> StreamFlushed:
        return self._ask(
            StreamFlush(user_id=user_id, acked=acked, close_window=close_window),
            StreamFlushed,
        )

    def stream_close(self, user_id: str) -> StreamClosed:
        return self._ask(StreamClose(user_id=user_id), StreamClosed)


class LoopbackClient(ServiceClientBase):
    """In-process transport: full codec round-trip, no sockets.

    Every request is encoded to its wire line, decoded by the service,
    handled on a private event loop, and the reply decoded back — the
    exact byte path of the socket transport minus the socket.  Requests
    run one at a time, so results are deterministic; the campaign
    simulation is built on this client.
    """

    def __init__(
        self, service: ProtectionService, wire_version: int = WIRE_VERSION
    ) -> None:
        if wire_version not in SUPPORTED_WIRE_VERSIONS:
            raise ConfigurationError(
                f"wire_version must be one of {SUPPORTED_WIRE_VERSIONS}, "
                f"got {wire_version!r}"
            )
        self._service = service
        self._wire_version = int(wire_version)
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def request(self, message: Message) -> Message:
        if self._loop is None or self._loop.is_closed():
            self._loop = asyncio.new_event_loop()
        reply = self._loop.run_until_complete(
            self._service.handle_wire(
                encode_message_for(self._wire_version, message)
            )
        )
        return decode_frame_any(reply)[1]

    def close(self) -> None:
        if self._loop is not None and not self._loop.is_closed():
            self._loop.run_until_complete(self._loop.shutdown_default_executor())
            self._loop.close()
        self._loop = None

    def __enter__(self) -> "LoopbackClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
