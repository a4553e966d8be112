"""Online ingestion: per-user windows, watermarks, bounded backpressure.

The batch engine protects *complete* traces; a deployed crowdsensing
middleware sees an unbounded record stream per user.  This package adds
the online path:

* :class:`~repro.stream.window.WindowAssembler` — per-user tumbling or
  session windows whose closing semantics are bit-identical to the batch
  splitters (:func:`repro.core.split.split_fixed_time` /
  :func:`repro.core.split.split_on_gaps`), so a stream that replays a
  trace publishes the same bytes as ``protect(daily=True)`` on it.
* :class:`~repro.stream.hub.StreamHub` — the session manager: bounded
  buffers with a declared overflow policy (``block`` /
  ``shed`` oldest window / ``degrade`` to the cheapest LPPM), watermark
  bookkeeping (which record ordinals are protected-and-durable), and a
  piece log so a reconnecting client resumes without loss or
  duplication.

The wire vocabulary (``stream_open`` / ``stream_record`` /
``stream_flush`` / ``stream_close``) lives in :mod:`repro.service.api`;
:mod:`repro.service.rpc` adds slow-consumer eviction and the graceful
drain.  See ``docs/STREAMING.md`` for the full contract.
"""

from repro.stream.hub import (
    OVERFLOW_POLICIES,
    REASON_BLOCKED,
    REASON_DEGRADED,
    REASON_PIECE_LOG_SHED,
    REASON_SHED,
    CloseOutcome,
    FlushOutcome,
    IngestOutcome,
    StreamConfig,
    StreamHub,
    StreamSession,
)
from repro.stream.window import WINDOW_KINDS, ClosedWindow, WindowAssembler

__all__ = [
    "OVERFLOW_POLICIES",
    "REASON_BLOCKED",
    "REASON_DEGRADED",
    "REASON_PIECE_LOG_SHED",
    "REASON_SHED",
    "WINDOW_KINDS",
    "CloseOutcome",
    "ClosedWindow",
    "FlushOutcome",
    "IngestOutcome",
    "StreamConfig",
    "StreamHub",
    "StreamSession",
    "WindowAssembler",
]
