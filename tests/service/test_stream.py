"""Streaming ingestion through the service protocol (PR 7 tentpole).

End-to-end contract tests for the ``stream_*`` verbs: the loopback and
TCP transports, watermark/resume semantics after a dropped connection,
idempotent flush, overflow surfaced in ``stats``, and — the acceptance
pin — byte-identity of the flushed stream output against the batch
``protect(daily=True)`` path on the same engine.
"""

import numpy as np
import pytest

from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import ServiceError
from repro.lppm.base import LPPM
from repro.service.api import LoopbackClient, ProtectionService
from repro.service.rpc import ServiceClient, ServiceServer
from repro.stream import StreamConfig

DAY = 86_400.0


class _Shift(LPPM):
    name = "shift"

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + 0.2, trace.lngs)


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


def stub_engine():
    return ProtectionEngine([_Shift()], [_NeverAttack()])


_open_clients = []


def mk_client(**stream_kwargs):
    stream = StreamConfig(**stream_kwargs) if stream_kwargs else None
    client = LoopbackClient(ProtectionService(stub_engine(), stream=stream))
    _open_clients.append(client)
    return client


@pytest.fixture(autouse=True)
def _close_clients():
    """Close every client the test made with ``mk_client``."""
    yield
    while _open_clients:
        _open_clients.pop().close()


def random_trace(user="stream-user", n=300, seed=5, span_days=3.0):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, span_days * DAY, n))
    return Trace(
        user, ts, 45.0 + rng.normal(0, 0.02, n), 4.0 + rng.normal(0, 0.02, n)
    )


def rows(trace, start=0, stop=None):
    stop = len(trace) if stop is None else min(stop, len(trace))
    return [
        (
            i,
            float(trace.timestamps[i]),
            float(trace.lats[i]),
            float(trace.lngs[i]),
        )
        for i in range(start, stop)
    ]


def stream_whole_trace(client, trace, batch=64):
    client.stream_open(trace.user_id)
    for start in range(0, len(trace), batch):
        client.stream_record(trace.user_id, rows(trace, start, start + batch))
    return client.stream_flush(trace.user_id, close_window=True)


def assert_pieces_equal(stream_pieces, batch_pieces):
    assert len(stream_pieces) == len(batch_pieces)
    for mine, ref in zip(stream_pieces, batch_pieces):
        assert mine.pseudonym == ref.pseudonym
        assert mine.mechanism == ref.mechanism
        assert np.array_equal(mine.trace.timestamps, ref.trace.timestamps)
        assert np.array_equal(mine.trace.lats, ref.trace.lats)
        assert np.array_equal(mine.trace.lngs, ref.trace.lngs)


class TestStreamVerbs:
    def test_open_record_flush_close_round_trip(self):
        client = mk_client()
        trace = random_trace()
        opened = client.stream_open(trace.user_id)
        assert opened.watermark == -1 and opened.next_ordinal == 0
        ack = client.stream_record(trace.user_id, rows(trace, 0, 100))
        assert ack.accepted == 100 and ack.next_ordinal == 100
        assert ack.status == "ok"
        client.stream_record(trace.user_id, rows(trace, 100))
        flushed = client.stream_flush(trace.user_id, close_window=True)
        assert flushed.watermark == len(trace) - 1
        assert flushed.pieces
        closed = client.stream_close(trace.user_id)
        assert closed.records_in == len(trace)
        assert closed.watermark == len(trace) - 1

    def test_double_open_is_bad_request(self):
        client = mk_client()
        client.stream_open("u")
        with pytest.raises(ServiceError, match="already open"):
            client.stream_open("u")

    def test_record_without_open_is_bad_request(self):
        client = mk_client()
        with pytest.raises(ServiceError, match="no open stream"):
            client.stream_record("ghost", [(0, 0.0, 45.0, 4.0)])

    def test_ordinal_gap_is_bad_request(self):
        client = mk_client()
        client.stream_open("u")
        client.stream_record("u", [(0, 0.0, 45.0, 4.0)])
        with pytest.raises(ServiceError, match="ordinal gap"):
            client.stream_record("u", [(7, 60.0, 45.0, 4.0)])

    def test_stats_exposes_stream_block(self):
        client = mk_client()
        trace = random_trace(n=50)
        stream_whole_trace(client, trace)
        stats = client.stats()
        assert stats.stream["sessions_open"] == 1
        assert stats.stream["records_in"] == 50
        assert stats.stream["windows_closed"] >= 1


class TestByteIdentity:
    @pytest.mark.parametrize("engine", ["stub", "micro"])
    def test_stream_equals_batch_protect(self, engine, request):
        """The acceptance pin: same engine, same windows, same bytes.

        The ``micro`` input streams every test user through the real
        MooD engine."""
        if engine == "stub":
            make_engine, traces = stub_engine, [random_trace()]
        else:
            ctx = request.getfixturevalue("micro_ctx")
            make_engine, traces = ctx.engine, ctx.test.traces()
        with LoopbackClient(
            ProtectionService(make_engine())
        ) as stream_client, LoopbackClient(
            ProtectionService(make_engine())
        ) as batch_client:
            for trace in traces:
                flushed = stream_whole_trace(stream_client, trace)
                batch = batch_client.protect(trace, daily=True)
                assert_pieces_equal(flushed.pieces, batch.pieces)

    def test_session_windows_also_deterministic(self):
        trace = random_trace(seed=9)
        one = stream_whole_trace(mk_client(window="session", gap_s=1800.0), trace)
        two = stream_whole_trace(mk_client(window="session", gap_s=1800.0), trace)
        assert_pieces_equal(one.pieces, two.pieces)

    def test_pieces_are_durable_in_collection_server(self):
        client = mk_client()
        trace = random_trace(n=80)
        flushed = stream_whole_trace(client, trace)
        total = sum(len(p.trace) for p in flushed.pieces)
        assert total > 0
        assert client.stats().server["records"] == total


class TestResume:
    def test_resume_from_watermark_is_loss_and_duplication_free(self):
        """Client dies mid-window; a reconnect resumes from the acked
        watermark, resends the uncovered suffix, and the final output is
        byte-identical to an uninterrupted batch run."""
        trace = random_trace()
        client = mk_client()
        client.stream_open(trace.user_id)
        cut = 2 * len(trace) // 3
        ack = client.stream_record(trace.user_id, rows(trace, 0, cut))
        # -- connection lost here; the client kept only ack.watermark --
        reopened = client.stream_open(trace.user_id, resume=True)
        assert reopened.resumed
        assert reopened.watermark == ack.watermark
        # Resend everything past the watermark (the open-window suffix
        # overlaps what the server still buffers: dedup must absorb it).
        client.stream_record(trace.user_id, rows(trace, reopened.watermark + 1))
        flushed = client.stream_flush(trace.user_id, close_window=True)
        batch = mk_client().protect(trace, daily=True)
        assert_pieces_equal(flushed.pieces, batch.pieces)
        stats = client.stats()
        assert stats.stream["sessions_resumed"] == 1
        assert stats.stream["records_duplicate"] > 0

    def test_lost_flush_reply_is_idempotent(self):
        """Flush reply lost before the client saw it: re-flushing returns
        the same pieces; acking prunes them."""
        trace = random_trace(n=120)
        client = mk_client()
        client.stream_open(trace.user_id)
        client.stream_record(trace.user_id, rows(trace))
        first = client.stream_flush(trace.user_id, close_window=True)
        again = client.stream_flush(trace.user_id)
        assert_pieces_equal(again.pieces, first.pieces)
        assert again.watermark == first.watermark
        acked = client.stream_flush(trace.user_id, acked=first.watermark)
        assert acked.pieces == ()


class TestOverflowOverTheWire:
    def test_blocked_ack_carries_reason_and_tail_is_resendable(self):
        client = mk_client(overflow="block", max_pending_records=20, window_s=1e9)
        trace = random_trace(n=60)
        client.stream_open(trace.user_id)
        ack = client.stream_record(trace.user_id, rows(trace))
        assert ack.status == "blocked"
        assert ack.reason == "backpressure.buffer_full"
        assert ack.accepted == 20
        # The client makes room (end-of-window flush), then resends.
        client.stream_flush(trace.user_id, close_window=True)
        ack2 = client.stream_record(trace.user_id, rows(trace, ack.next_ordinal))
        assert ack2.accepted > 0

    def test_degrade_reason_codes_visible_in_stats(self):
        client = mk_client(overflow="degrade", max_pending_records=16, window_s=1e9)
        trace = random_trace(n=100)
        client.stream_open(trace.user_id)
        ack = client.stream_record(trace.user_id, rows(trace))
        assert ack.accepted == len(trace)
        stats = client.stats()
        assert stats.stream["windows_degraded"] >= 1
        assert stats.stream["overflow_events"]["overflow.degrade_cheap_lppm"] >= 1
        flushed = client.stream_flush(trace.user_id)
        assert any(p.mechanism.startswith("degraded:") for p in flushed.pieces)


class TestStreamOverTcp:
    def test_round_trip_and_byte_identity_over_socket(self):
        trace = random_trace(n=150)
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port) as client:
                flushed = stream_whole_trace(client, trace)
                closed = client.stream_close(trace.user_id)
        assert closed.records_in == len(trace)
        batch = mk_client().protect(trace, daily=True)
        assert_pieces_equal(flushed.pieces, batch.pieces)

    def test_reconnecting_tcp_client_resumes(self):
        """The session lives in the service, not the connection: a new
        socket resumes the same stream."""
        trace = random_trace(n=200)
        cut = len(trace) // 2
        with ServiceServer(ProtectionService(stub_engine()), port=0) as server:
            host, port = server.address
            with ServiceClient(host=host, port=port) as first:
                first.stream_open(trace.user_id)
                ack = first.stream_record(trace.user_id, rows(trace, 0, cut))
            # Socket gone; dial a fresh one and resume.
            with ServiceClient(host=host, port=port) as second:
                reopened = second.stream_open(trace.user_id, resume=True)
                assert reopened.resumed
                assert reopened.watermark == ack.watermark
                second.stream_record(
                    trace.user_id, rows(trace, reopened.watermark + 1)
                )
                flushed = second.stream_flush(trace.user_id, close_window=True)
        batch = mk_client().protect(trace, daily=True)
        assert_pieces_equal(flushed.pieces, batch.pieces)


class TestDrain:
    def test_drain_streams_flushes_open_windows(self):
        client = mk_client()
        service = client._service
        trace = random_trace(n=40)
        client.stream_open(trace.user_id)
        client.stream_record(trace.user_id, rows(trace))
        before = client.stats().stream["records_pending"]
        assert before > 0
        summary = service.drain_streams()
        assert summary["records_flushed"] == before
        assert client.stats().stream["records_pending"] == 0
