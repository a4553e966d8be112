"""Stream session manager: bounded buffers, watermarks, overflow policy.

The :class:`StreamHub` owns every open stream session of a
:class:`~repro.service.api.ProtectionService`.  It is deliberately
synchronous and lock-free — the service calls it under its own state
lock — and keyed by user id, so a
session survives a client reconnect and can be resumed from its
watermark.

Every buffer in the path is bounded:

* the **open window** holds at most ``max_pending_records`` records;
  when a batch would exceed the bound the configured *overflow policy*
  decides: ``block`` rejects the rest of the batch (the client retries),
  ``shed`` drops the oldest buffered window outright (the watermark
  advances over the shed records — they are handled, just not
  published), ``degrade`` force-closes the window and protects it with
  the cheapest single LPPM instead of the full MooD cascade;
* the **piece log** (windows protected but not yet acknowledged by the
  client) holds at most ``max_unacked_windows`` entries; beyond that the
  oldest entries are dropped from the *log only* — their pieces are
  already durable in the collection server, the client just can no
  longer fetch copies over the stream.

Each policy decision is counted under a machine-readable reason code
(``REASON_*``) surfaced verbatim in the service's ``stats`` verb, so an
operator can see *why* load was shed, not just that it was.

Watermark contract: ``watermark`` is the highest record ordinal ``h``
such that every record ``0..h`` is **protected and durable** — its
window went through the cascade (or was deliberately shed/degraded) and
the resulting pieces were ingested into the collection server.  Records
in the open window are not durable.  A reconnecting client resends from
``watermark + 1``; the hub silently skips ordinals it already holds, so
resumption is loss- and duplication-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import DEFAULT_CHUNK_S, ProtectedPiece
from repro.core.trace import Trace
from repro.errors import ConfigurationError, StreamError, check_count, check_positive
from repro.metrics.distortion import spatial_temporal_distortion
from repro.rng import make_rng, stable_user_seed
from repro.stream.window import (
    DEFAULT_GAP_S,
    WINDOW_KINDS,
    ClosedWindow,
    WindowAssembler,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.proxy import MoodProxy

#: Declared overflow policies for the open-window buffer.
OVERFLOW_POLICIES = ("block", "shed", "degrade")

#: Reason codes surfaced in ``stats`` (machine-readable, stable).
REASON_BLOCKED = "backpressure.buffer_full"
REASON_SHED = "overflow.shed_oldest_window"
REASON_DEGRADED = "overflow.degrade_cheap_lppm"
REASON_PIECE_LOG_SHED = "overflow.piece_log_shed"


@dataclass(frozen=True)
class StreamConfig:
    """Server-side streaming defaults (``ProtectionConfig.stream``)."""

    window: str = "tumbling"
    window_s: float = DEFAULT_CHUNK_S
    gap_s: float = DEFAULT_GAP_S
    overflow: str = "block"
    max_pending_records: int = 100_000
    max_unacked_windows: int = 64
    #: Fold each closed raw window into the attacks' fitted state via
    #: :meth:`ProtectionEngine.refit`.  Off by default: refitting
    #: changes attack verdicts, which breaks stream-vs-batch
    #: byte-identity — enable it only for genuinely online deployments.
    refit: bool = False

    def __post_init__(self) -> None:
        if self.window not in WINDOW_KINDS:
            raise ConfigurationError(
                f"stream window must be one of {WINDOW_KINDS}, got {self.window!r}"
            )
        if self.overflow not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"stream overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {self.overflow!r}"
            )
        check_positive("window_s", self.window_s)
        check_positive("gap_s", self.gap_s)
        check_count("max_pending_records", self.max_pending_records)
        check_count("max_unacked_windows", self.max_unacked_windows)
        if not isinstance(self.refit, bool):
            raise ConfigurationError(f"refit must be true or false, got {self.refit!r}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamConfig":
        """Build from a plain dict; values are checked, never coerced."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown stream config keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class IngestOutcome:
    """Result of one ``stream_record`` batch."""

    accepted: int
    next_ordinal: int
    watermark: int
    status: str = "ok"  # "ok" | "blocked" | "shed" | "degraded"
    reason: str = ""


@dataclass(frozen=True)
class FlushOutcome:
    """Result of one ``stream_flush``: the durable frontier + pieces."""

    watermark: int
    pieces: Tuple[ProtectedPiece, ...]
    erased_records: int
    #: Piece-log entries dropped since the session opened (the pieces
    #: themselves stayed durable server-side).
    pieces_dropped: int


@dataclass(frozen=True)
class CloseOutcome:
    """Final accounting of a closed session."""

    watermark: int
    records_in: int
    records_shed: int
    erased_records: int
    pieces_published: int
    windows_closed: int


@dataclass
class StreamSession:
    """Mutable per-user stream state (owned by the hub)."""

    user_id: str
    assembler: WindowAssembler
    overflow: str
    max_pending_records: int
    max_unacked_windows: int
    next_ordinal: int = 0
    watermark: int = -1
    chunk_index: int = 0
    records_in: int = 0
    records_duplicate: int = 0
    records_shed: int = 0
    erased_records: int = 0
    pieces_published: int = 0
    windows_closed: int = 0
    windows_shed: int = 0
    windows_degraded: int = 0
    pieces_dropped: int = 0
    #: ``(last_ordinal, pieces)`` per protected window, pruned on ack.
    unacked: List[Tuple[int, Tuple[ProtectedPiece, ...]]] = field(default_factory=list)


class StreamHub:
    """All open stream sessions of one service deployment.

    ``proxy`` runs the cascade (same engine, same session pseudonyms as
    the batch verbs — the backbone of stream-vs-batch byte-identity);
    ``sink`` makes published pieces durable (the service passes
    ``CollectionServer.receive``).  Not thread-safe by design: callers
    serialise through the service state lock.
    """

    def __init__(
        self,
        proxy: "MoodProxy",
        sink: Optional[Callable[[Trace], None]] = None,
        config: Optional[StreamConfig] = None,
    ) -> None:
        self.proxy = proxy
        self.sink = sink
        self.config = config if config is not None else StreamConfig()
        self.sessions: Dict[str, StreamSession] = {}
        self.sessions_opened = 0
        self.sessions_resumed = 0
        self.sessions_closed = 0
        self.records_in = 0
        self.records_duplicate = 0
        self.records_shed = 0
        self.windows_closed = 0
        self.windows_shed = 0
        self.windows_degraded = 0
        self.pieces_dropped = 0
        #: reason code -> number of policy decisions taken under it.
        self.overflow_events: Dict[str, int] = {}

    # -- session lifecycle -------------------------------------------------

    def open(
        self,
        user_id: str,
        window: Optional[str] = None,
        window_s: Optional[float] = None,
        gap_s: Optional[float] = None,
        resume: bool = False,
    ) -> Tuple[StreamSession, bool]:
        """Open (or with ``resume=True`` re-attach to) a user's session."""
        existing = self.sessions.get(user_id)
        if existing is not None:
            if not resume:
                raise StreamError(
                    f"stream of {user_id!r} is already open; pass resume=true "
                    "to re-attach or close it first"
                )
            self.sessions_resumed += 1
            return existing, True
        if resume:
            # Nothing to resume: fall through to a fresh session (the
            # client's watermark floor is -1 either way).
            pass
        cfg = self.config
        session = StreamSession(
            user_id=user_id,
            assembler=WindowAssembler(
                user_id,
                kind=window if window is not None else cfg.window,
                window_s=window_s if window_s is not None else cfg.window_s,
                gap_s=gap_s if gap_s is not None else cfg.gap_s,
            ),
            overflow=cfg.overflow,
            max_pending_records=cfg.max_pending_records,
            max_unacked_windows=cfg.max_unacked_windows,
        )
        self.sessions[user_id] = session
        self.sessions_opened += 1
        return session, False

    def _session(self, user_id: str) -> StreamSession:
        session = self.sessions.get(user_id)
        if session is None:
            raise StreamError(
                f"no open stream for {user_id!r}; send stream_open first"
            )
        return session

    # -- record path -------------------------------------------------------

    def ingest(
        self, user_id: str, records: Sequence[Sequence[float]]
    ) -> IngestOutcome:
        """Feed one batch of ``(ordinal, t, lat, lng)`` records.

        Consumes records in order until done or until the overflow
        policy says ``block``; duplicates (ordinals below the session's
        frontier, e.g. a resend after resume) are skipped silently.
        """
        session = self._session(user_id)
        accepted = 0
        status = "ok"
        reason = ""
        for row in records:
            ordinal, t, lat, lng = int(row[0]), float(row[1]), float(row[2]), float(row[3])
            if ordinal < session.next_ordinal:
                session.records_duplicate += 1
                self.records_duplicate += 1
                accepted += 1
                continue
            if ordinal > session.next_ordinal:
                raise StreamError(
                    f"ordinal gap in stream of {user_id!r}: expected "
                    f"{session.next_ordinal}, got {ordinal}"
                )
            if session.assembler.pending >= session.max_pending_records:
                action, action_reason = self._overflow(session)
                status, reason = action, action_reason
                if action == "blocked":
                    break
            closed = session.assembler.add(ordinal, t, lat, lng)
            if closed is not None:
                self._protect_window(session, closed)
            session.next_ordinal = ordinal + 1
            session.records_in += 1
            self.records_in += 1
            accepted += 1
        return IngestOutcome(
            accepted=accepted,
            next_ordinal=session.next_ordinal,
            watermark=session.watermark,
            status=status,
            reason=reason,
        )

    def _overflow(self, session: StreamSession) -> Tuple[str, str]:
        """Apply the session's overflow policy to a full open window."""
        if session.overflow == "block":
            self._count(REASON_BLOCKED)
            return "blocked", REASON_BLOCKED
        if session.overflow == "shed":
            window = session.assembler.close_open()
            if window is not None:
                session.records_shed += len(window)
                self.records_shed += len(window)
                session.windows_shed += 1
                self.windows_shed += 1
                # Shed records are handled (deliberately unpublished):
                # the watermark advances so the client never resends them.
                session.watermark = window.last_ordinal
            self._count(REASON_SHED)
            return "shed", REASON_SHED
        # degrade: force-close and protect with the cheapest single LPPM.
        window = session.assembler.close_open()
        if window is not None:
            self._protect_window(session, window, degraded=True)
        self._count(REASON_DEGRADED)
        return "degraded", REASON_DEGRADED

    def _count(self, reason: str) -> None:
        self.overflow_events[reason] = self.overflow_events.get(reason, 0) + 1

    def _protect_window(
        self, session: StreamSession, window: ClosedWindow, degraded: bool = False
    ) -> None:
        """Run one closed window through the cascade (or the cheap path)
        and make its pieces durable; advances the watermark."""
        if degraded:
            pieces, erased = self._degrade(window)
            session.windows_degraded += 1
            self.windows_degraded += 1
        else:
            from repro.service.client import UploadChunk  # lazy: avoids an import cycle

            result = self.proxy.protect_chunk(
                UploadChunk(session.user_id, session.chunk_index, window.trace)
            )
            pieces, erased = tuple(result.pieces), result.erased_records
        session.chunk_index += 1
        session.windows_closed += 1
        self.windows_closed += 1
        session.erased_records += erased
        if self.sink is not None:
            for piece in pieces:
                self.sink(piece.published)
        session.pieces_published += len(pieces)
        session.unacked.append((window.last_ordinal, pieces))
        while len(session.unacked) > session.max_unacked_windows:
            session.unacked.pop(0)
            session.pieces_dropped += 1
            self.pieces_dropped += 1
            self._count(REASON_PIECE_LOG_SHED)
        session.watermark = window.last_ordinal
        if self.config.refit:
            self._refit(window)

    def _degrade(
        self, window: ClosedWindow
    ) -> Tuple[Tuple[ProtectedPiece, ...], int]:
        """Cheapest-LPPM fallback: first single mechanism, no search.

        The window is published after one obfuscation pass regardless of
        attack verdicts — overload trades privacy search for liveness,
        and the ``degraded:`` mechanism prefix makes that visible in
        every readout downstream.
        """
        engine = self.proxy.engine
        if not engine.singles:
            return (), len(window)
        mech = engine.singles[0]
        trace = window.trace
        # Exact repr: a truncated start time would collide windows that
        # open less than a second apart, seeding them identically.
        rng = make_rng(
            stable_user_seed(
                engine.seed,
                f"{trace.user_id}|{mech.name}|{trace.start_time()!r}|{len(trace)}",
            )
        )
        published = mech.apply(trace, rng)
        if len(published) == 0:
            return (), len(trace)
        distortion = spatial_temporal_distortion(trace, published)
        pseudonym = self.proxy.pseudonyms.pseudonym_for(trace.user_id)
        mechanism = f"degraded:{mech.name}"
        piece = ProtectedPiece(
            pseudonym=pseudonym,
            original_user=trace.user_id,
            original=trace,
            published=published.with_user(pseudonym),
            mechanism=mechanism,
            distortion_m=distortion,
        )
        stats = self.proxy.stats
        stats.chunks_processed += 1
        stats.records_in += len(trace)
        stats.pieces_published += 1
        stats.records_published += len(published)
        stats.mechanism_usage[mechanism] = stats.mechanism_usage.get(mechanism, 0) + 1
        return (piece,), 0

    def _refit(self, window: ClosedWindow) -> None:
        """Opt-in online learning: fold the raw window into the attacks."""
        from repro.core.dataset import MobilityDataset

        delta = MobilityDataset("stream-delta")
        delta.add(window.trace)
        self.proxy.engine.refit(delta)

    # -- flush / close -----------------------------------------------------

    def flush(
        self, user_id: str, acked: int = -1, close_window: bool = False
    ) -> FlushOutcome:
        """Ack the durable frontier; return retained pieces past *acked*.

        ``acked`` is the highest watermark the client has durably
        consumed — entries at or below it are pruned from the piece log.
        With ``close_window=True`` the open window is force-closed and
        protected first (end of stream), so the returned watermark
        covers every record sent.
        """
        session = self._session(user_id)
        if close_window:
            window = session.assembler.close_open()
            if window is not None:
                self._protect_window(session, window)
        session.unacked = [
            entry for entry in session.unacked if entry[0] > acked
        ]
        pieces: List[ProtectedPiece] = []
        for _, window_pieces in session.unacked:
            pieces.extend(window_pieces)
        return FlushOutcome(
            watermark=session.watermark,
            pieces=tuple(pieces),
            erased_records=session.erased_records,
            pieces_dropped=session.pieces_dropped,
        )

    def close(self, user_id: str) -> CloseOutcome:
        """Flush the open window, retire the session, return the tally."""
        session = self._session(user_id)
        window = session.assembler.close_open()
        if window is not None:
            self._protect_window(session, window)
        del self.sessions[user_id]
        self.sessions_closed += 1
        return CloseOutcome(
            watermark=session.watermark,
            records_in=session.records_in,
            records_shed=session.records_shed,
            erased_records=session.erased_records,
            pieces_published=session.pieces_published,
            windows_closed=session.windows_closed,
        )

    def drain(self) -> Dict[str, int]:
        """Graceful shutdown: flush every open window so nothing buffered
        is lost; sessions stay queryable until the process exits."""
        flushed_windows = 0
        flushed_records = 0
        for session in self.sessions.values():
            window = session.assembler.close_open()
            if window is not None:
                flushed_records += len(window)
                self._protect_window(session, window)
                flushed_windows += 1
        return {
            "sessions": len(self.sessions),
            "windows_flushed": flushed_windows,
            "records_flushed": flushed_records,
        }

    # -- observability -----------------------------------------------------

    def pending_records(self) -> int:
        """Records currently buffered across all open windows."""
        return sum(s.assembler.pending for s in self.sessions.values())

    def stats_dict(self) -> Dict[str, Any]:
        """The ``stream`` block of the service's ``stats`` verb."""
        return {
            "sessions_open": len(self.sessions),
            "sessions_opened": self.sessions_opened,
            "sessions_resumed": self.sessions_resumed,
            "sessions_closed": self.sessions_closed,
            "records_in": self.records_in,
            "records_duplicate": self.records_duplicate,
            "records_shed": self.records_shed,
            "records_pending": self.pending_records(),
            "windows_closed": self.windows_closed,
            "windows_shed": self.windows_shed,
            "windows_degraded": self.windows_degraded,
            "pieces_dropped": self.pieces_dropped,
            "overflow_events": dict(self.overflow_events),
        }
