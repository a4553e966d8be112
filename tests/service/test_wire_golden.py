"""Golden wire bytes: every verb's exact v1 line and v2 frame.

The round-trip suites compare the codec only with itself, so a change
that alters the bytes on *both* sides passes them.  This module pins
the bytes instead: ``wire_golden.json`` holds the v1 line and the v2
frame (hex) of each case below, with and without a request id, as the
hand-written per-class codec produced them before bodies were derived
from the dataclass fields.  Encoding must reproduce them exactly, and
decoding them must re-encode to the same bytes, so a peer built from
either codec reads the other's frames.

Regenerate the fixture only for a deliberate wire change::

    PYTHONPATH=src python tests/service/test_wire_golden.py --write
"""

import json
import os
import socket
import sys

import pytest

from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import ProtocolError
from repro.lppm.base import LPPM
from repro.service.api import (
    AuthChallenge,
    AuthRequest,
    AuthResponse,
    ClusterHeartbeat,
    ClusterHeartbeatAck,
    ClusterJoin,
    ClusterJoined,
    ClusterLeave,
    ClusterLeft,
    ClusterMembershipRequest,
    ClusterMembershipResponse,
    ErrorEnvelope,
    HelloRequest,
    HelloResponse,
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
    WIRE_VERSION,
    decode_frame,
    decode_frame_v2,
    decode_message,
    encode_hello_frame,
    encode_message,
    encode_message_v2,
)
from repro.service.rpc import ServiceServer

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "wire_golden.json")
DAY = 86_400.0
REQUEST_IDS = (None, 17)


def tiny_trace(user="u"):
    """Three records whose floats exercise shortest-repr encoding."""
    return Trace(
        user,
        [0.0, 600.5, 1200.125],
        [45.0, 45.123456789, -0.0],
        [4.0, 4.1, 179.99999999999997],
    )


def piece(pseudonym, mechanism="noop", original_records=None):
    return PublishedPiece(
        pseudonym=pseudonym,
        mechanism=mechanism,
        distortion_m=12.5,
        trace=tiny_trace(pseudonym),
        original_records=original_records,
    )


MEMBER = {
    "endpoint": "127.0.0.1:7464",
    "worker_id": "w0",
    "capacity": 4,
    "state": "alive",
    "joined_epoch": 1,
    "inflight": 0,
    "age_s": 0.5,
}

#: name -> message.  The first block mirrors ``TestCodec`` in
#: ``test_api.py``; the second holds the cases where the body is not a
#: plain field-by-field copy of the dataclass.
CASES = {
    "protect_request": ProtectRequest(trace=tiny_trace(), daily=True, chunk_s=DAY),
    "protect_response": ProtectResponse(
        user_id="u",
        pieces=(piece("u#0", original_records=5),),
        erased_records=3,
        original_records=10,
    ),
    "upload_request": UploadRequest(trace=tiny_trace(), day_index=2),
    "upload_response": UploadResponse(
        user_id="u", pseudonyms=("u#0", "u#1"), published_records=9, erased_records=1
    ),
    "query_request_count": QueryRequest(kind="count", lat=45.0, lng=4.0),
    "query_request_top": QueryRequest(kind="top_cells", k=3),
    "query_response_count": QueryResponse(kind="count", count=7),
    "query_response_top": QueryResponse(kind="top_cells", cells=((1, 2, 3), (4, 5, 6))),
    "stats_request": StatsRequest(),
    "stats_response": StatsResponse(
        proxy={"chunks_processed": 1}, server={"uploads": 2}
    ),
    "stats_response_stream": StatsResponse(
        stream={"sessions_open": 2, "records_in": 10}
    ),
    "stats_response_uptime": StatsResponse(
        proxy={"chunks_processed": 1},
        uptime_s=12.5,
        versions={"protocol": 1, "build": "1.0.0"},
    ),
    "stream_open": StreamOpen(user_id="u", window="session", gap_s=1800.0, resume=True),
    "stream_opened": StreamOpened(user_id="u", watermark=41, next_ordinal=42, resumed=True),
    "stream_record": StreamRecord(
        user_id="u", records=((0, 1.5, 45.0, 4.0), (1, 2.5, 45.1, 4.1))
    ),
    "stream_ack": StreamAck(
        user_id="u",
        accepted=2,
        next_ordinal=2,
        watermark=1,
        status="shed",
        reason="overflow.shed_oldest_window",
    ),
    "stream_flush": StreamFlush(user_id="u", acked=7, close_window=True),
    "stream_flushed": StreamFlushed(
        user_id="u",
        watermark=9,
        pieces=(piece("u#3", mechanism="degraded:noop", original_records=4),),
        erased_records=1,
        pieces_dropped=2,
    ),
    "stream_close": StreamClose(user_id="u"),
    "stream_closed": StreamClosed(
        user_id="u",
        watermark=9,
        records_in=10,
        records_shed=0,
        erased_records=1,
        pieces_published=3,
        windows_closed=2,
    ),
    "cluster_join": ClusterJoin(endpoint="127.0.0.1:7464", worker_id="w0", capacity=4),
    "cluster_joined": ClusterJoined(accepted=True, epoch=3, members=(MEMBER,)),
    "cluster_leave": ClusterLeave(endpoint="127.0.0.1:7464", reason="shutdown"),
    "cluster_left": ClusterLeft(removed=True, epoch=4),
    "cluster_heartbeat": ClusterHeartbeat(endpoint="127.0.0.1:7464", inflight=2),
    "cluster_heartbeat_ack": ClusterHeartbeatAck(known=False, epoch=4),
    "cluster_membership_request": ClusterMembershipRequest(),
    "cluster_membership_response": ClusterMembershipResponse(
        epoch=2, members=({"endpoint": "unix:/tmp/w.sock", "state": "stale"},)
    ),
    "metrics_request": MetricsRequest(),
    "metrics_response": MetricsResponse(
        uptime_s=42.25,
        versions={"protocol": 1, "build": "1.0.0"},
        transport={"inflight_requests": 1, "requests_served": 9},
        service={"proxy": {"chunks_processed": 3}},
        stream={"sessions_open": 0},
        feature_cache={"hits": 5, "misses": 2},
        cluster={"epoch": 1, "members": []},
    ),
    "error": ErrorEnvelope(code="bad_request", message="nope"),
    # -- quirk cases --------------------------------------------------
    "auth_request_ask": AuthRequest(),
    "auth_request_proof": AuthRequest(proof="ab" * 32),
    "auth_challenge": AuthChallenge(nonce="0f" * 16),
    "auth_response": AuthResponse(ok=True),
    "stats_response_empty": StatsResponse(),
    "stats_response_empty_uptime": StatsResponse(uptime_s=3.25),
    "hello_request": HelloRequest(),
    "hello_response": HelloResponse(version=1),
    "stream_flushed_one_piece": StreamFlushed(
        user_id="u", watermark=2, pieces=(piece("u#0"),)
    ),
    "stream_record_huge_ordinal": StreamRecord(
        user_id="u", records=((2**63, 1.5, 45.0, 4.0), (2**63 + 1, 2.5, 45.1, 4.1))
    ),
    "stream_record_empty": StreamRecord(user_id="u", records=()),
    "protect_response_unset_original": ProtectResponse(
        user_id="u", pieces=(piece("u#0"),), erased_records=0, original_records=3
    ),
}


def _key(name, request_id):
    return name if request_id is None else f"{name}#id={request_id}"


def generate():
    """The fixture content for the codec in this tree."""
    frames = {}
    for name, message in CASES.items():
        for request_id in REQUEST_IDS:
            frames[_key(name, request_id)] = {
                "v1": encode_message(message, request_id=request_id).decode("utf-8"),
                "v2": encode_message_v2(message, request_id=request_id).hex(),
            }
    hello = {
        _key("hello_request", request_id): encode_hello_frame(
            HelloRequest(), request_id=request_id
        ).decode("utf-8")
        for request_id in REQUEST_IDS
    }
    return {"frames": frames, "hello_frames": hello}


def load_fixture():
    with open(FIXTURE, "r", encoding="utf-8") as f:
        return json.load(f)


GOLDEN = load_fixture() if os.path.exists(FIXTURE) else {"frames": {}, "hello_frames": {}}
PARAMS = [(name, rid) for name in CASES for rid in REQUEST_IDS]


def _id(param):
    return _key(*param)


class TestGoldenFrames:
    def test_fixture_covers_every_case(self):
        assert set(GOLDEN["frames"]) == {_key(*p) for p in PARAMS}

    @pytest.mark.parametrize("param", PARAMS, ids=_id)
    def test_v1_line_is_pinned(self, param):
        name, request_id = param
        golden = GOLDEN["frames"][_key(name, request_id)]["v1"].encode("utf-8")
        assert encode_message(CASES[name], request_id=request_id) == golden
        decoded_id, decoded = decode_frame(golden)
        assert decoded_id == request_id
        assert encode_message(decoded, request_id=decoded_id) == golden

    @pytest.mark.parametrize("param", PARAMS, ids=_id)
    def test_v2_frame_is_pinned(self, param):
        name, request_id = param
        golden = bytes.fromhex(GOLDEN["frames"][_key(name, request_id)]["v2"])
        assert encode_message_v2(CASES[name], request_id=request_id) == golden
        decoded_id, decoded = decode_frame_v2(golden)
        assert decoded_id == request_id
        assert encode_message_v2(decoded, request_id=decoded_id) == golden

    @pytest.mark.parametrize("request_id", REQUEST_IDS)
    def test_hello_frame_is_pinned(self, request_id):
        golden = GOLDEN["hello_frames"][_key("hello_request", request_id)]
        frame = encode_hello_frame(HelloRequest(), request_id=request_id)
        assert frame == golden.encode("utf-8")


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


class TestAbsentKeys:
    """Bodies that leave keys out decode as the wire has always read them."""

    def test_hello_request_without_versions_speaks_v1(self):
        message = decode_message(b'{"v":1,"type":"hello_request","body":{}}')
        assert message.versions == (WIRE_VERSION,)
        reply = decode_message(
            b'{"v":1,"type":"hello_response","body":{"version":1}}'
        )
        assert reply.versions == (WIRE_VERSION,)

    def test_hello_request_without_versions_negotiates_v1_over_tcp(self):
        engine = ProtectionEngine([_Noop()], [_NeverAttack()])
        with ServiceServer(ProtectionService(engine), port=0) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"v":2,"id":0,"type":"hello_request","body":{}}\n')
                fh.flush()
                reply_id, reply = decode_frame(fh.readline())
                assert reply_id == 0
                assert isinstance(reply, HelloResponse) and reply.version == 1
                # The connection stays on v1 JSON lines.
                fh.write(encode_message(StatsRequest(), request_id=1))
                fh.flush()
                reply_id, reply = decode_frame(fh.readline())
                assert reply_id == 1 and isinstance(reply, StatsResponse)

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"v":1,"type":"stats_response","body":{"server":{}}}',
            b'{"v":1,"type":"metrics_response","body":{"versions":{}}}',
        ],
        ids=["stats_response-proxy", "metrics_response-uptime_s"],
    )
    def test_keys_required_on_the_wire(self, payload):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(payload)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_wire_golden.py --write")
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(generate(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {FIXTURE}")
