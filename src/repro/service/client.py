"""Mobile client of the crowdsensing campaign.

Each client owns one user's (synthetic) device: it buffers the GPS fixes
the device produces and, once a day, hands the buffered chunk to the
MooD proxy for protection and upload (paper §3.4: "a crowdsensing
application where users send their data daily").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.split import split_fixed_time
from repro.core.trace import Trace
from repro.errors import check_positive


@dataclass
class UploadChunk:
    """One daily upload: the raw sub-trace a client submits to the proxy."""

    user_id: str
    day_index: int
    trace: Trace

    @property
    def records(self) -> int:
        return len(self.trace)


class MobileClient:
    """Buffers a user's daily mobility and emits upload chunks."""

    def __init__(self, trace: Trace, chunk_s: float = 86_400.0) -> None:
        self.user_id = trace.user_id
        self.chunk_s = check_positive("chunk_s", chunk_s)
        self._chunks: List[Trace] = (
            split_fixed_time(trace, self.chunk_s) if len(trace) else []
        )
        self._next = 0

    @property
    def days_total(self) -> int:
        return len(self._chunks)

    @property
    def days_remaining(self) -> int:
        return len(self._chunks) - self._next

    def next_upload(self) -> Optional[UploadChunk]:
        """The next daily chunk, or ``None`` when the campaign is over."""
        if self._next >= len(self._chunks):
            return None
        chunk = UploadChunk(self.user_id, self._next, self._chunks[self._next])
        self._next += 1
        return chunk

    def upload_times(self, campaign_start: float) -> List[float]:
        """Virtual times at which this client wakes up to upload.

        Uploads happen at the end of each chunk's day, relative to the
        campaign start.
        """
        return [
            campaign_start + (i + 1) * self.chunk_s for i in range(len(self._chunks))
        ]
