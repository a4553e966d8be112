"""Mobility traces: timestamp-sorted sequences of records owned by a user.

A :class:`Trace` is the unit every LPPM, attack, and MooD itself operates
on (paper §2.1: ``T ∈ (R² × R⁺)*``).  Internally the trace is backed by
three parallel numpy arrays (timestamps, latitudes, longitudes) because
the hot paths — heatmap accumulation, Laplace perturbation, distortion —
are all vectorisable.  Traces are immutable: every transformation returns
a new instance.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.record import Record
from repro.errors import EmptyTraceError, UnsortedTraceError


class Trace:
    """An immutable, chronologically sorted mobility trace.

    Parameters
    ----------
    user_id:
        Owner of the trace.  Fine-grained protection publishes sub-traces
        under renewed pseudonyms (see
        :meth:`repro.core.engine.ProtectionEngine.finalize`).
    timestamps, lats, lngs:
        Parallel arrays.  ``timestamps`` must be non-decreasing.
    """

    __slots__ = ("user_id", "_t", "_lat", "_lng", "_fp")

    def __init__(
        self,
        user_id: str,
        timestamps: Sequence[float],
        lats: Sequence[float],
        lngs: Sequence[float],
    ) -> None:
        t = np.asarray(timestamps, dtype=np.float64)
        lat = np.asarray(lats, dtype=np.float64)
        lng = np.asarray(lngs, dtype=np.float64)
        if not (t.shape == lat.shape == lng.shape) or t.ndim != 1:
            raise ValueError(
                f"timestamps/lats/lngs must be 1-D and equally sized, "
                f"got shapes {t.shape}, {lat.shape}, {lng.shape}"
            )
        if t.size > 1 and np.any(np.diff(t) < 0):
            raise UnsortedTraceError(f"trace of user {user_id!r} is not sorted by time")
        self.user_id = user_id
        self._t = t
        self._lat = lat
        self._lng = lng
        self._fp: Optional[bytes] = None
        self._t.setflags(write=False)
        self._lat.setflags(write=False)
        self._lng.setflags(write=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_records(cls, user_id: str, records: Iterable[Record]) -> "Trace":
        """Build a trace from :class:`Record` objects (sorted automatically)."""
        recs = sorted(records)
        return cls(
            user_id,
            [r.t for r in recs],
            [r.lat for r in recs],
            [r.lng for r in recs],
        )

    @classmethod
    def empty(cls, user_id: str) -> "Trace":
        """An empty trace for *user_id*."""
        return cls(user_id, [], [], [])

    # -- array views ---------------------------------------------------

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only array of POSIX timestamps."""
        return self._t

    @property
    def lats(self) -> np.ndarray:
        """Read-only array of latitudes (degrees)."""
        return self._lat

    @property
    def lngs(self) -> np.ndarray:
        """Read-only array of longitudes (degrees)."""
        return self._lng

    @property
    def fingerprint(self) -> bytes:
        """Content digest of the record arrays (user id excluded).

        Two traces with identical timestamps and coordinates share a
        fingerprint regardless of ownership, which is exactly what the
        feature cache needs: heatmaps, POI sets, and MMC models depend
        only on the records.  Computed lazily and memoised (traces are
        immutable).
        """
        if self._fp is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self._t.tobytes())
            h.update(self._lat.tobytes())
            h.update(self._lng.tobytes())
            self._fp = h.digest()
        return self._fp

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return int(self._t.size)

    def __bool__(self) -> bool:
        return self._t.size > 0

    def __iter__(self) -> Iterator[Record]:
        for i in range(len(self)):
            yield Record(float(self._t[i]), float(self._lat[i]), float(self._lng[i]))

    def __getitem__(self, i: int) -> Record:
        return Record(float(self._t[i]), float(self._lat[i]), float(self._lng[i]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and np.array_equal(self._t, other._t)
            and np.array_equal(self._lat, other._lat)
            and np.array_equal(self._lng, other._lng)
        )

    def __hash__(self) -> int:
        return hash((self.user_id, len(self), self.duration_s()))

    def __repr__(self) -> str:
        if len(self) == 0:
            return f"Trace(user={self.user_id!r}, empty)"
        return (
            f"Trace(user={self.user_id!r}, n={len(self)}, "
            f"span={self.duration_s() / 3600.0:.1f}h)"
        )

    # -- temporal accessors ----------------------------------------------

    def start_time(self) -> float:
        """Timestamp of the first record."""
        self._require_nonempty()
        return float(self._t[0])

    def end_time(self) -> float:
        """Timestamp of the last record."""
        self._require_nonempty()
        return float(self._t[-1])

    def duration_s(self) -> float:
        """Covered time span in seconds (0 for traces with < 2 records)."""
        if len(self) < 2:
            return 0.0
        return float(self._t[-1] - self._t[0])

    # -- transformations -------------------------------------------------

    def with_user(self, user_id: str) -> "Trace":
        """Same records under a different user id (pseudonym renewal)."""
        return Trace(user_id, self._t, self._lat, self._lng)

    def with_positions(self, lats: np.ndarray, lngs: np.ndarray) -> "Trace":
        """Same user and timestamps with replaced coordinates."""
        return Trace(self.user_id, self._t, lats, lngs)

    def slice_time(self, t_from: float, t_to: float) -> "Trace":
        """Sub-trace with records in the half-open window ``[t_from, t_to)``."""
        mask = (self._t >= t_from) & (self._t < t_to)
        return Trace(self.user_id, self._t[mask], self._lat[mask], self._lng[mask])

    def head(self, n: int) -> "Trace":
        """First *n* records."""
        return Trace(self.user_id, self._t[:n], self._lat[:n], self._lng[:n])

    def tail(self, n: int) -> "Trace":
        """Last *n* records."""
        if n <= 0:
            return Trace.empty(self.user_id)
        return Trace(self.user_id, self._t[-n:], self._lat[-n:], self._lng[-n:])

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces of the same user (re-sorted by time)."""
        if other.user_id != self.user_id:
            raise ValueError(
                f"cannot concat traces of different users "
                f"({self.user_id!r} vs {other.user_id!r})"
            )
        t = np.concatenate([self._t, other._t])
        lat = np.concatenate([self._lat, other._lat])
        lng = np.concatenate([self._lng, other._lng])
        order = np.argsort(t, kind="stable")
        return Trace(self.user_id, t[order], lat[order], lng[order])

    # -- geometry ----------------------------------------------------------

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(min_lat, min_lng, max_lat, max_lng)`` of the trace."""
        self._require_nonempty()
        return (
            float(self._lat.min()),
            float(self._lng.min()),
            float(self._lat.max()),
            float(self._lng.max()),
        )

    def centroid(self) -> Tuple[float, float]:
        """Arithmetic mean position (adequate at city scale)."""
        self._require_nonempty()
        return (float(self._lat.mean()), float(self._lng.mean()))

    # -- internals -----------------------------------------------------------

    def _require_nonempty(self) -> None:
        if len(self) == 0:
            raise EmptyTraceError(f"trace of user {self.user_id!r} is empty")


def merge_traces(user_id: str, traces: Sequence[Trace]) -> Trace:
    """Merge several traces into one owned by *user_id*, sorted by time."""
    if not traces:
        return Trace.empty(user_id)
    t = np.concatenate([tr.timestamps for tr in traces])
    lat = np.concatenate([tr.lats for tr in traces])
    lng = np.concatenate([tr.lngs for tr in traces])
    order = np.argsort(t, kind="stable")
    return Trace(user_id, t[order], lat[order], lng[order])
