"""Per-user window assembly for the streaming ingestion path.

A :class:`WindowAssembler` buffers one user's incoming records and cuts
them into windows whose membership is **bit-identical** to the batch
splitters:

* ``tumbling`` — half-open ``[t0 + k·w, t0 + (k+1)·w)`` windows anchored
  at the first record's timestamp, empty windows skipped, exactly like
  :func:`repro.core.split.split_fixed_time`.  Both paths take each
  boundary from the same helper,
  :func:`repro.core.split.fixed_window_end`, so a record near a
  boundary lands in the same window on both, and skipping any number
  of empty windows costs O(1).
* ``session`` — a new window starts whenever the inter-record gap
  exceeds ``gap_s``, exactly like
  :func:`repro.core.split.split_on_gaps`.

Only the *open* window is buffered; a closed window is handed to the
caller immediately, so the assembler's memory is bounded by the caller's
overflow policy (see :mod:`repro.stream.hub`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.engine import DEFAULT_CHUNK_S
from repro.core.split import fixed_window_end
from repro.core.trace import Trace
from repro.errors import ConfigurationError, StreamError

#: Supported window kinds.
WINDOW_KINDS = ("tumbling", "session")

#: Default session-window gap: one hour without a record ends the visit.
DEFAULT_GAP_S = 3600.0


@dataclass(frozen=True)
class ClosedWindow:
    """One completed window, ready for the cascade.

    ``first_ordinal`` / ``last_ordinal`` are the client-assigned record
    ordinals covered by this window — the unit of the watermark
    bookkeeping: once the window's pieces are durable, the watermark
    advances to ``last_ordinal``.
    """

    trace: Trace
    first_ordinal: int
    last_ordinal: int

    def __len__(self) -> int:
        return len(self.trace)


class WindowAssembler:
    """Assemble one user's record stream into closed windows."""

    def __init__(
        self,
        user_id: str,
        kind: str = "tumbling",
        window_s: float = DEFAULT_CHUNK_S,
        gap_s: float = DEFAULT_GAP_S,
    ) -> None:
        if kind not in WINDOW_KINDS:
            raise ConfigurationError(
                f"unknown window kind {kind!r}; choose from {WINDOW_KINDS}"
            )
        if float(window_s) <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        if float(gap_s) <= 0:
            raise ConfigurationError(f"gap_s must be positive, got {gap_s}")
        self.user_id = user_id
        self.kind = kind
        self.window_s = float(window_s)
        self.gap_s = float(gap_s)
        self._ordinals: List[int] = []
        self._t: List[float] = []
        self._lat: List[float] = []
        self._lng: List[float] = []
        #: First timestamp of the tumbling windows (``None`` until the
        #: first record) and end of the current window.
        self._anchor: Optional[float] = None
        self._window_end: Optional[float] = None

    @property
    def pending(self) -> int:
        """Records buffered in the open window."""
        return len(self._t)

    @property
    def last_t(self) -> Optional[float]:
        return self._t[-1] if self._t else None

    def add(
        self, ordinal: int, t: float, lat: float, lng: float
    ) -> Optional[ClosedWindow]:
        """Buffer one record; returns the window it closed, if any.

        Timestamps must be non-decreasing — an out-of-order record is a
        client error (the wire contract requires records in time order,
        mirroring :class:`~repro.core.trace.Trace`'s sortedness
        invariant).
        """
        if self._t and t < self._t[-1]:
            raise StreamError(
                f"stream of {self.user_id!r} is not sorted by time: record "
                f"{ordinal} at t={t} after t={self._t[-1]}"
            )
        closed: Optional[ClosedWindow] = None
        if self.kind == "tumbling":
            if self._anchor is None:
                self._anchor = t
                self._window_end = fixed_window_end(t, self.window_s, t)
            elif t >= self._window_end:
                closed = self._cut()
                # Empty windows in between are skipped without
                # emitting anything.
                self._window_end = fixed_window_end(
                    self._anchor, self.window_s, t
                )
        else:  # session
            if self._t and t - self._t[-1] > self.gap_s:
                closed = self._cut()
        self._ordinals.append(int(ordinal))
        self._t.append(float(t))
        self._lat.append(float(lat))
        self._lng.append(float(lng))
        return closed

    def close_open(self) -> Optional[ClosedWindow]:
        """Cut the open window (flush / end of stream); ``None`` if empty.

        A mid-stream forced close re-anchors tumbling windows at the
        next record — byte-identity with the batch path holds for the
        natural end-of-stream close, which is the only close the replay
        and bench paths perform.
        """
        if not self._t:
            return None
        window = self._cut()
        self._anchor = None
        self._window_end = None
        return window

    def _cut(self) -> ClosedWindow:
        window = ClosedWindow(
            trace=Trace(self.user_id, self._t, self._lat, self._lng),
            first_ordinal=self._ordinals[0],
            last_ordinal=self._ordinals[-1],
        )
        self._ordinals = []
        self._t = []
        self._lat = []
        self._lng = []
        return window
