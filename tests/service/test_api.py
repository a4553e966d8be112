"""Tests for the service API v2: messages, codec, facade, loopback."""

import asyncio
import os
import struct
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Set

import numpy as np
import pytest

from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import ProtocolError, ServiceError
from repro.lppm.base import LPPM
from repro.service.api import (
    WIRE_VERSION,
    ClusterHeartbeat,
    ClusterHeartbeatAck,
    ClusterJoin,
    ClusterJoined,
    ClusterLeave,
    ClusterLeft,
    ClusterMembershipRequest,
    ClusterMembershipResponse,
    ErrorEnvelope,
    LoopbackClient,
    MESSAGE_TYPES,
    MessageEncodeError,
    MetricsRequest,
    MetricsResponse,
    ProtectRequest,
    ProtectResponse,
    ProtectionService,
    PublishedPiece,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    StreamAck,
    StreamClose,
    StreamClosed,
    StreamFlush,
    StreamFlushed,
    StreamOpen,
    StreamOpened,
    StreamRecord,
    UploadRequest,
    UploadResponse,
    WireMessage,
    decode_frame,
    decode_frame_v2,
    decode_message,
    encode_message,
    encode_message_v2,
    encode_reply,
    trace_from_wire,
    trace_to_wire,
)
from repro.service.client import UploadChunk
from repro.service.proxy import MoodProxy, SessionPseudonyms
from repro.service.server import CollectionServer

DAY = 86_400.0


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace

class _Shift(LPPM):
    name = "shift"

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + 0.1, trace.lngs)


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


class _AlwaysAttack:
    name = "always"

    def reidentify(self, trace):
        return trace.user_id


def stub_engine(attack=None, lppm=None):
    return ProtectionEngine([lppm or _Noop()], [attack or _NeverAttack()])


def day_trace(user="u", days=1, period=600.0, lat=45.0, lng=4.0):
    n = int(days * DAY / period)
    ts = np.arange(n) * period
    return Trace(user, ts, np.full(n, lat), np.full(n, lng))


def random_trace(user="r", n=50, seed=3):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(1.0, 900.0, size=n))
    return Trace(user, ts, 45.0 + rng.normal(0, 0.05, n), 4.0 + rng.normal(0, 0.05, n))


class TestTraceWire:
    def test_round_trip_is_bit_exact(self):
        trace = random_trace()
        back = trace_from_wire(trace_to_wire(trace))
        assert back.user_id == trace.user_id
        assert np.array_equal(back.timestamps, trace.timestamps)
        assert np.array_equal(back.lats, trace.lats)
        assert np.array_equal(back.lngs, trace.lngs)
        # Same content → same fingerprint → same feature-cache key.
        assert back.fingerprint == trace.fingerprint

    def test_empty_trace_survives(self):
        back = trace_from_wire(trace_to_wire(Trace.empty("nobody")))
        assert len(back) == 0 and back.user_id == "nobody"

    def test_malformed_wire_trace_rejected(self):
        with pytest.raises(ProtocolError):
            trace_from_wire({"user_id": "u"})
        with pytest.raises(ProtocolError):
            trace_from_wire("not-a-dict")
        with pytest.raises(ProtocolError):
            trace_from_wire({"user_id": "u", "t": [2.0, 1.0], "lat": [0, 0], "lng": [0, 0]})


class TestCodec:
    @pytest.mark.parametrize(
        "message",
        [
            ProtectRequest(trace=day_trace(), daily=True, chunk_s=DAY),
            ProtectResponse(
                user_id="u",
                pieces=(
                    PublishedPiece(
                        pseudonym="u#0",
                        mechanism="noop",
                        distortion_m=12.5,
                        trace=day_trace("u#0"),
                    ),
                ),
                erased_records=3,
                original_records=10,
            ),
            UploadRequest(trace=day_trace(), day_index=2),
            UploadResponse(
                user_id="u",
                pseudonyms=("u#0", "u#1"),
                published_records=9,
                erased_records=1,
            ),
            QueryRequest(kind="count", lat=45.0, lng=4.0),
            QueryRequest(kind="top_cells", k=3),
            QueryResponse(kind="count", count=7),
            QueryResponse(kind="top_cells", cells=((1, 2, 3), (4, 5, 6))),
            StatsRequest(),
            StatsResponse(proxy={"chunks_processed": 1}, server={"uploads": 2}),
            StatsResponse(stream={"sessions_open": 2, "records_in": 10}),
            StreamOpen(user_id="u", window="session", gap_s=1800.0, resume=True),
            StreamOpened(user_id="u", watermark=41, next_ordinal=42, resumed=True),
            StreamRecord(
                user_id="u", records=((0, 1.5, 45.0, 4.0), (1, 2.5, 45.1, 4.1))
            ),
            StreamAck(
                user_id="u",
                accepted=2,
                next_ordinal=2,
                watermark=1,
                status="shed",
                reason="overflow.shed_oldest_window",
            ),
            StreamFlush(user_id="u", acked=7, close_window=True),
            StreamFlushed(
                user_id="u",
                watermark=9,
                pieces=(
                    PublishedPiece(
                        pseudonym="u#3",
                        mechanism="degraded:noop",
                        distortion_m=1.0,
                        trace=day_trace("u#3"),
                    ),
                ),
                erased_records=1,
                pieces_dropped=2,
            ),
            StreamClose(user_id="u"),
            StreamClosed(
                user_id="u",
                watermark=9,
                records_in=10,
                records_shed=0,
                erased_records=1,
                pieces_published=3,
                windows_closed=2,
            ),
            StatsResponse(
                proxy={"chunks_processed": 1},
                uptime_s=12.5,
                versions={"protocol": 1, "build": "1.0.0"},
            ),
            ClusterJoin(endpoint="127.0.0.1:7464", worker_id="w0", capacity=4),
            ClusterJoined(
                accepted=True,
                epoch=3,
                members=(
                    {
                        "endpoint": "127.0.0.1:7464",
                        "worker_id": "w0",
                        "capacity": 4,
                        "state": "alive",
                        "joined_epoch": 1,
                        "inflight": 0,
                        "age_s": 0.5,
                    },
                ),
            ),
            ClusterLeave(endpoint="127.0.0.1:7464", reason="shutdown"),
            ClusterLeft(removed=True, epoch=4),
            ClusterHeartbeat(endpoint="127.0.0.1:7464", inflight=2),
            ClusterHeartbeatAck(known=False, epoch=4),
            ClusterMembershipRequest(),
            ClusterMembershipResponse(
                epoch=2,
                members=(
                    {"endpoint": "unix:/tmp/w.sock", "state": "stale"},
                ),
            ),
            MetricsRequest(),
            MetricsResponse(
                uptime_s=42.25,
                versions={"protocol": 1, "build": "1.0.0"},
                transport={"inflight_requests": 1, "requests_served": 9},
                service={"proxy": {"chunks_processed": 3}},
                stream={"sessions_open": 0},
                feature_cache={"hits": 5, "misses": 2},
                cluster={"epoch": 1, "members": []},
            ),
            ErrorEnvelope(code="bad_request", message="nope"),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_every_message_round_trips(self, message):
        line = encode_message(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        decoded = decode_message(line)
        assert type(decoded) is type(message)
        assert encode_message(decoded) == line

    def test_version_is_enforced(self):
        line = encode_message(StatsRequest()).replace(
            b'"v":%d' % WIRE_VERSION, b'"v":999'
        )
        with pytest.raises(ProtocolError, match="version"):
            decode_message(line)

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(b'{"v":1,"type":"teleport_request","body":{}}')
        # An unhashable slug used to escape the registry lookup as TypeError.
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(b'{"v":1,"type":[],"body":{}}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_message(b"{nope")

    def test_invalid_utf8_rejected_not_mangled(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_message(b'{"v":1,"type":"stats_request","body":{"x":"\xe9ric"}}')

    def test_non_message_object_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message(object())
        with pytest.raises(ProtocolError):
            decode_message(b'[1,2,3]')
        with pytest.raises(ProtocolError, match="body"):
            decode_message(b'{"v":1,"type":"stats_request","body":[]}')

    def test_malformed_body_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(b'{"v":1,"type":"upload_response","body":{"user_id":"u"}}')

    def test_non_finite_floats_rejected_not_emitted(self):
        """Regression: json.dumps used to emit NaN/Infinity tokens that no
        conforming JSON peer can parse; now the codec fails loudly."""
        nan_trace = Trace("u", [0.0, 1.0], [float("nan"), 45.0], [4.0, 4.0])
        inf_trace = Trace("u", [0.0, 1.0], [45.0, 45.0], [float("inf"), 4.0])
        for trace in (nan_trace, inf_trace):
            with pytest.raises(ProtocolError, match="non-finite"):
                encode_message(ProtectRequest(trace=trace))
        with pytest.raises(ProtocolError, match="non-finite"):
            encode_message(QueryRequest(kind="count", lat=float("nan"), lng=4.0))
        # Sane frames still contain no NaN/Infinity tokens at all.
        line = encode_message(ProtectRequest(trace=day_trace()))
        assert b"NaN" not in line and b"Infinity" not in line

    def test_unencodable_reply_becomes_error_envelope(self):
        """A reply the engine poisoned with NaN must not kill the stream."""
        line = encode_reply(
            QueryRequest(kind="count", lat=float("nan"), lng=4.0), request_id=7
        )
        reply_id, message = decode_frame(line)
        assert reply_id == 7
        assert isinstance(message, ErrorEnvelope)
        assert message.code == "internal"

    def test_piece_original_records_rides_the_wire(self):
        piece = PublishedPiece(
            pseudonym="u#0",
            mechanism="noop",
            distortion_m=1.0,
            trace=day_trace("u#0"),
            original_records=17,
        )
        back = PublishedPiece.from_body(piece.to_body())
        assert back.records_protected == 17
        # Unset counts default to the published trace's length — the old
        # wire form (no key) must stay decodable.
        body = PublishedPiece(
            pseudonym="u#0", mechanism="noop", distortion_m=1.0, trace=day_trace()
        ).to_body()
        del body["original_records"]
        assert PublishedPiece.from_body(body).records_protected == len(day_trace())


class TestRequestIds:
    def test_tagged_frame_round_trips(self):
        for request_id in (0, 17, "req-42"):
            line = encode_message(StatsRequest(), request_id=request_id)
            decoded_id, message = decode_frame(line)
            assert decoded_id == request_id
            assert isinstance(message, StatsRequest)

    def test_untagged_frame_has_no_id(self):
        line = encode_message(StatsRequest())
        assert b'"id"' not in line
        assert decode_frame(line)[0] is None

    def test_invalid_request_id_rejected(self):
        with pytest.raises(ProtocolError, match="request id"):
            encode_message(StatsRequest(), request_id=1.5)
        with pytest.raises(ProtocolError, match="request id"):
            encode_message(StatsRequest(), request_id=True)

    def test_invalid_incoming_id_rejected_not_downgraded(self):
        """A float/bool id must fail loudly: silently treating the frame
        as untagged would reply without an id and leave the sender's
        pending future hanging until timeout."""
        import asyncio

        bad = b'{"v":1,"id":7.5,"type":"stats_request","body":{}}\n'
        with pytest.raises(ProtocolError, match="request id"):
            decode_frame(bad)
        service = ProtectionService(stub_engine())
        reply_id, message = decode_frame(asyncio.run(service.handle_wire(bad)))
        assert reply_id is None  # the bogus tag is not echoed
        assert isinstance(message, ErrorEnvelope)
        assert message.code == "protocol"

    def test_handle_wire_echoes_the_id(self):
        import asyncio

        service = ProtectionService(stub_engine())
        line = encode_message(StatsRequest(), request_id=11)
        reply = asyncio.run(service.handle_wire(line))
        reply_id, message = decode_frame(reply)
        assert reply_id == 11
        assert isinstance(message, StatsResponse)

    def test_protocol_error_reply_keeps_the_id(self):
        """A malformed tagged frame still answers with the tag, so the
        pipelining client can fail the right pending request."""
        import asyncio

        service = ProtectionService(stub_engine())
        bad = b'{"v":1,"id":23,"type":"upload_response","body":{"user_id":"u"}}\n'
        reply = asyncio.run(service.handle_wire(bad))
        reply_id, message = decode_frame(reply)
        assert reply_id == 23
        assert isinstance(message, ErrorEnvelope)
        assert message.code == "protocol"


class TestSessionPseudonyms:
    def test_counters_are_per_user_and_monotonic(self):
        provider = SessionPseudonyms()
        assert provider.pseudonym_for("a") == "a#0"
        assert provider.pseudonym_for("a") == "a#1"
        assert provider.pseudonym_for("b") == "b#0"
        provider.reset()
        assert provider.pseudonym_for("a") == "a#0"

    def test_proxy_uses_injected_provider(self):
        class Fixed(SessionPseudonyms):
            def pseudonym_for(self, user_id):
                return "anon"

        proxy = MoodProxy(stub_engine(), pseudonyms=Fixed())
        published = proxy.process(UploadChunk("u", 0, day_trace()))
        assert [t.user_id for t in published] == ["anon"]


class TestProtectionService:
    def _client(self, engine=None, **kwargs):
        return LoopbackClient(ProtectionService(engine or stub_engine(), **kwargs))

    def test_protect_returns_pieces_without_ingesting(self):
        with self._client() as client:
            reply = client.protect(day_trace("alice"))
            assert isinstance(reply, ProtectResponse)
            assert [p.pseudonym for p in reply.pieces] == ["alice#0"]
            assert reply.erased_records == 0
            assert reply.data_loss == 0.0
            # Nothing was ingested: the corpus is still empty.
            assert client.stats().server["uploads"] == 0

    def test_protect_daily_chunks(self):
        with self._client() as client:
            reply = client.protect(day_trace("bob", days=3), daily=True)
            assert [p.pseudonym for p in reply.pieces] == ["bob#0", "bob#1", "bob#2"]

    def test_upload_ingests_and_query_sees_it(self):
        trace = day_trace("carol")
        with self._client() as client:
            receipt = client.upload(trace)
            assert isinstance(receipt, UploadResponse)
            assert receipt.pseudonyms == ("carol#0",)
            assert receipt.published_records == len(trace)
            assert client.query_count(45.0, 4.0) == len(trace)
            assert client.query_count(50.0, 10.0) == 0
            top = client.top_cells(k=2)
            assert top and top[0][2] == len(trace)

    def test_hopeless_upload_erased(self):
        with self._client(stub_engine(attack=_AlwaysAttack())) as client:
            receipt = client.upload(day_trace("dave"))
            assert receipt.pseudonyms == ()
            assert receipt.erased_records == len(day_trace("dave"))
            assert client.stats().server["uploads"] == 0

    def test_stats_mirror_proxy_and_server(self):
        service = ProtectionService(stub_engine())
        with LoopbackClient(service) as client:
            client.upload(day_trace("eve"))
            stats = client.stats()
        assert stats.proxy["chunks_processed"] == 1
        assert stats.proxy["mechanism_usage"] == {"noop": 1}
        assert stats.server == {
            "uploads": 1,
            "records": len(day_trace("eve")),
            "distinct_pseudonyms": 1,
        }

    def test_bad_query_becomes_service_error(self):
        with self._client() as client:
            with pytest.raises(ServiceError, match="lat"):
                client.query(QueryRequest(kind="count"))
            with pytest.raises(ServiceError, match="unknown query kind"):
                client.query(QueryRequest(kind="median"))
            with pytest.raises(ServiceError, match="k >= 1"):
                client.query(QueryRequest(kind="top_cells", k=-1))

    def test_response_message_is_unsupported_request(self):
        service = ProtectionService(stub_engine())
        with LoopbackClient(service) as client:
            reply = client.request(QueryResponse(kind="count", count=1))
        assert isinstance(reply, ErrorEnvelope)
        assert reply.code == "unsupported"

    def test_wire_protocol_violation_becomes_error_frame(self):
        service = ProtectionService(stub_engine())
        import asyncio

        reply = asyncio.run(service.handle_wire(b"garbage\n"))
        decoded = decode_message(reply)
        assert isinstance(decoded, ErrorEnvelope)
        assert decoded.code == "protocol"

    def test_loopback_equals_direct_proxy_path(self):
        """The codec round-trip must not change protection outcomes."""
        trace = random_trace("frank", n=200)
        direct = MoodProxy(stub_engine(lppm=_Shift())).process(
            UploadChunk("frank", 0, trace)
        )
        with self._client(stub_engine(lppm=_Shift())) as client:
            reply = client.protect(trace)
        assert len(reply.pieces) == len(direct)
        for piece, expected in zip(reply.pieces, direct):
            assert piece.trace.user_id == expected.user_id
            assert np.array_equal(piece.trace.lats, expected.lats)
            assert np.array_equal(piece.trace.timestamps, expected.timestamps)

    def test_service_shares_injected_server(self):
        server = CollectionServer()
        service = ProtectionService(stub_engine(), server=server)
        with LoopbackClient(service) as client:
            client.upload(day_trace("gina"))
        assert server.stats.uploads == 1

    def test_unclosed_client_lets_the_interpreter_exit(self):
        """A client left for the collector at exit must not hang the
        process."""
        script = textwrap.dedent(
            """
            from repro.core.engine import ProtectionEngine
            from repro.lppm.identity import Identity
            from repro.service.api import LoopbackClient, ProtectionService, StatsRequest

            class Never:
                name = "never"

                def reidentify(self, trace):
                    return "<nobody>"

            engine = ProtectionEngine([Identity()], [Never()])
            client = LoopbackClient(ProtectionService(engine))
            print(type(client.request(StatsRequest())).__name__)
            """
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "StatsResponse"



class TestClusterCodec:
    """Satellite: malformed cluster/metrics bodies raise ProtocolError —
    garbage never escapes the codec as another exception type."""

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"v":1,"type":"cluster_join","body":{}}',
            b'{"v":1,"type":"cluster_joined","body":{"accepted":true}}',
            b'{"v":1,"type":"cluster_joined","body":'
            b'{"accepted":true,"epoch":1,"members":[3]}}',
            b'{"v":1,"type":"cluster_leave","body":{}}',
            b'{"v":1,"type":"cluster_left","body":{"removed":true}}',
            b'{"v":1,"type":"cluster_heartbeat","body":{}}',
            b'{"v":1,"type":"cluster_heartbeat_ack","body":{"known":true}}',
            b'{"v":1,"type":"cluster_membership_response","body":'
            b'{"epoch":1,"members":"nope"}}',
            b'{"v":1,"type":"metrics_response","body":[]}',
        ],
    )
    def test_malformed_cluster_bodies_raise_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            decode_message(payload)


def _frame(slug, body):
    return b'{"v":1,"type":"%s","body":%s}' % (slug.encode(), body.encode())


_TRACE = '{"user_id":"u","t":[0,1,2],"lat":[45.0,45.0,45.0],"lng":[4.0,4.0,4.0]}'
_NAN_TRACE = '{"user_id":"u","t":[0,1,2],"lat":[NaN,45.0,45.0],"lng":[4.0,4.0,Infinity]}'


class TestMalformedBodies:
    """Every malformed body is a ``ProtocolError`` — no other exception
    escapes the decoder, no value is silently coerced, and no non-finite
    float gets past it."""

    @pytest.mark.parametrize(
        "payload",
        [
            # A short row used to escape as IndexError.
            _frame("stream_record", '{"user_id":"u","records":[[0,1.0,45.0]]}'),
            # json.loads accepts Infinity; int() of it used to overflow.
            _frame("upload_request", '{"trace":%s,"day_index":Infinity}' % _TRACE),
        ],
        ids=["short-row", "infinite-int"],
    )
    def test_decoder_exceptions_become_protocol_errors(self, payload):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(payload)
        service = ProtectionService(stub_engine())
        reply = decode_message(asyncio.run(service.handle_wire(payload)))
        assert isinstance(reply, ErrorEnvelope) and reply.code == "protocol"

    @pytest.mark.parametrize(
        "payload",
        [
            _frame("upload_request", '{"trace":%s}' % _NAN_TRACE),
            _frame("protect_request", '{"trace":%s,"chunk_s":NaN}' % _TRACE),
            _frame("query_request", '{"kind":"count","lat":1e400,"lng":4.0}'),
            _frame(
                "stream_record", '{"user_id":"u","records":[[0,NaN,45.0,4.0]]}'
            ),
        ],
        ids=["trace-columns", "chunk_s", "lat", "record-row"],
    )
    def test_non_finite_values_are_malformed(self, payload):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(payload)

    def test_non_finite_upload_changes_no_counter(self):
        service = ProtectionService(stub_engine())
        payload = _frame("upload_request", '{"trace":%s}' % _NAN_TRACE)
        reply = decode_message(asyncio.run(service.handle_wire(payload)))
        assert isinstance(reply, ErrorEnvelope) and reply.code == "protocol"
        with LoopbackClient(service) as client:
            stats = client.stats()
            assert client.top_cells(k=3) == ()
        assert stats.proxy == {
            "chunks_processed": 0,
            "records_in": 0,
            "records_published": 0,
            "records_erased": 0,
            "pieces_published": 0,
            "mechanism_usage": {},
        }
        assert set(stats.server.values()) == {0}

    def test_non_finite_v2_blocks_are_malformed(self):
        nan = struct.pack("<d", float("nan"))
        upload = encode_message_v2(UploadRequest(trace=random_trace(n=3)))
        records = encode_message_v2(
            StreamRecord(user_id="u", records=((0, 1.5, 45.0, 4.0),))
        )
        for frame in (upload, records):
            # The last block is a lng column: overwrite its last value.
            poisoned = frame[: -len(nan)] + nan
            with pytest.raises(ProtocolError, match="finite"):
                decode_frame_v2(poisoned)

    @pytest.mark.parametrize(
        "payload",
        [
            _frame("protect_request", '{"trace":%s,"daily":"false"}' % _TRACE),
            _frame("stream_open", '{"user_id":"u","resume":"false"}'),
            _frame("upload_request", '{"trace":%s,"day_index":1.9}' % _TRACE),
            _frame("query_request", '{"kind":"top_cells","k":true}'),
            _frame("stream_flush", '{"user_id":"u","acked":"7"}'),
            _frame("cluster_join", '{"endpoint":["x"]}'),
            _frame("stats_response", '{"proxy":[["a",1]],"server":{}}'),
            _frame("protect_request", '{"trace":%s,"chunk_s":"1"}' % _TRACE),
        ],
        ids=["daily", "resume", "day_index", "k", "acked", "endpoint", "proxy", "chunk_s"],
    )
    def test_mistyped_values_are_malformed_not_coerced(self, payload):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(payload)

    def test_uncoercible_value_is_an_encode_error(self):
        with pytest.raises(MessageEncodeError, match="not encodable"):
            encode_message(UploadRequest(trace=day_trace(), day_index="first"))

    def test_field_without_a_wire_form_fails_its_plan(self):
        @dataclass(frozen=True)
        class Tagged(WireMessage):
            tags: Set[str]

        with pytest.raises(TypeError, match="no wire form"):
            Tagged(tags={"a"}).to_body()


class TestVocabulary:
    """Each verb declares its slug once, on its class."""

    def test_duplicate_slug_raises_at_class_creation(self):
        before = dict(MESSAGE_TYPES)
        with pytest.raises(TypeError, match="'stats_request' is already declared"):

            class Impostor(WireMessage, slug="stats_request"):
                pass

        assert MESSAGE_TYPES == before
        assert type(decode_message(encode_message(StatsRequest()))) is StatsRequest

    def test_service_doc_names_every_slug(self):
        doc = Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"
        text = doc.read_text(encoding="utf-8")
        assert [slug for slug in MESSAGE_TYPES if f"`{slug}`" not in text] == []


class TestClusterVerbs:
    """The cluster_* control verbs and the metrics operator surface."""

    def test_join_heartbeat_leave_lifecycle(self):
        with LoopbackClient(ProtectionService(stub_engine())) as client:
            joined = client.cluster_join(
                "127.0.0.1:9001", worker_id="w0", capacity=2
            )
            assert isinstance(joined, ClusterJoined)
            assert joined.accepted and joined.epoch == 1
            assert [m["endpoint"] for m in joined.members] == ["127.0.0.1:9001"]
            assert joined.members[0]["worker_id"] == "w0"
            assert joined.members[0]["capacity"] == 2
            ack = client.cluster_heartbeat("127.0.0.1:9001", inflight=3)
            assert isinstance(ack, ClusterHeartbeatAck)
            assert ack.known and ack.epoch == 1
            membership = client.cluster_membership()
            assert isinstance(membership, ClusterMembershipResponse)
            assert membership.members[0]["state"] == "alive"
            assert membership.members[0]["inflight"] == 3
            left = client.cluster_leave("127.0.0.1:9001", reason="test")
            assert isinstance(left, ClusterLeft)
            assert left.removed and left.epoch == 2
            assert client.cluster_membership().members[0]["state"] == "left"

    def test_heartbeat_for_unknown_member_requests_rejoin(self):
        with LoopbackClient(ProtectionService(stub_engine())) as client:
            ack = client.cluster_heartbeat("127.0.0.1:9002")
        assert isinstance(ack, ClusterHeartbeatAck)
        assert not ack.known

    def test_stats_report_uptime_and_versions(self):
        with LoopbackClient(ProtectionService(stub_engine())) as client:
            stats = client.stats()
        assert stats.uptime_s is not None and stats.uptime_s >= 0.0
        assert stats.versions["protocol"] == WIRE_VERSION
        assert isinstance(stats.versions["build"], str) and stats.versions["build"]

    def test_metrics_surface(self):
        with LoopbackClient(ProtectionService(stub_engine())) as client:
            client.upload(day_trace("hal"))
            client.cluster_join("127.0.0.1:9003")
            metrics = client.metrics()
        assert isinstance(metrics, MetricsResponse)
        assert metrics.uptime_s >= 0.0
        assert metrics.versions["protocol"] == WIRE_VERSION
        assert metrics.service["proxy"]["chunks_processed"] == 1
        assert metrics.service["server"]["uploads"] == 1
        assert metrics.stream["sessions_open"] == 0
        assert metrics.cluster["epoch"] == 1
        members = metrics.cluster["members"]
        assert [m["endpoint"] for m in members] == ["127.0.0.1:9003"]
        # The loopback transport has no socket server: the transport
        # hook is simply absent, and the field stays an empty dict.
        assert metrics.transport == {}
