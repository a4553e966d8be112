"""The MooD protection proxy.

The deployment unit of the paper: a trusted middleware sitting between
the mobile clients and the crowdsensing server.  Every daily chunk goes
through the full MooD cascade (single LPPM → compositions → fine-grained
splitting); only protected pieces — under fresh pseudonyms — are
forwarded, and vulnerable leftovers are dropped on the proxy.

Pseudonym management is factored into :class:`PseudonymProvider` so the
service API can scope it per session: the proxy only guarantees that
whatever provider it is given sees pieces in a deterministic order.

The proxy also keeps operational counters (uploads, LPPM applications,
erased records) so the deployment experiment can report middleware-side
cost alongside privacy outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.engine import MoodResult, ProtectedPiece, ProtectionEngine
from repro.core.trace import Trace
from repro.service.client import UploadChunk


class PseudonymProvider:
    """Allocates the published identity of each protected piece.

    The proxy asks for one pseudonym per published piece, in
    deterministic (piece) order; implementations must never hand out the
    raw user id and must keep pseudonyms unique across the session so
    two pieces of the same user are never linkable through their ids.
    """

    def pseudonym_for(self, user_id: str) -> str:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all allocations (start a fresh session)."""


class SessionPseudonyms(PseudonymProvider):
    """The paper's scheme: ``user#k`` with a per-user running counter.

    Counters span the whole session, so two days of the same user never
    share a published id.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def pseudonym_for(self, user_id: str) -> str:
        k = self._counters.get(user_id, 0)
        self._counters[user_id] = k + 1
        return f"{user_id}#{k}"

    def reset(self) -> None:
        self._counters.clear()


@dataclass
class ProxyStats:
    """Operational counters of the proxy."""

    chunks_processed: int = 0
    records_in: int = 0
    records_published: int = 0
    records_erased: int = 0
    pieces_published: int = 0
    #: Mechanism name -> number of chunks it ended up protecting.
    mechanism_usage: Dict[str, int] = field(default_factory=dict)

    @property
    def erasure_ratio(self) -> float:
        """Share of incoming records the proxy had to drop."""
        if self.records_in == 0:
            return 0.0
        return self.records_erased / self.records_in


class MoodProxy:
    """Applies MooD to each uploaded chunk and pseudonymises the output."""

    def __init__(
        self,
        engine: ProtectionEngine,
        *,
        pseudonyms: Optional[PseudonymProvider] = None,
    ) -> None:
        self.engine = engine
        self.stats = ProxyStats()
        self.pseudonyms = pseudonyms if pseudonyms is not None else SessionPseudonyms()

    def protect_chunk(self, chunk: UploadChunk) -> MoodResult:
        """Protect one daily chunk; pieces carry session-scoped pseudonyms.

        The full per-chunk outcome (published pieces *and* erased
        leftovers) with each piece re-published under the pseudonym the
        session provider allocates — the richer sibling of
        :meth:`process` used by the service API, which needs mechanism
        and distortion per piece on the wire.
        """
        result = self.engine.protect(chunk.trace)
        self.stats.chunks_processed += 1
        self.stats.records_in += chunk.records
        self.stats.records_erased += result.erased_records
        renewed: List[ProtectedPiece] = []
        for piece in result.pieces:
            pseudonym = self.pseudonyms.pseudonym_for(chunk.user_id)
            renewed.append(
                ProtectedPiece(
                    pseudonym=pseudonym,
                    original_user=piece.original_user,
                    original=piece.original,
                    published=piece.published.with_user(pseudonym),
                    mechanism=piece.mechanism,
                    distortion_m=piece.distortion_m,
                )
            )
            self.stats.pieces_published += 1
            self.stats.records_published += len(piece.published)
            self.stats.mechanism_usage[piece.mechanism] = (
                self.stats.mechanism_usage.get(piece.mechanism, 0) + 1
            )
        result.pieces = renewed
        return result

    def process(self, chunk: UploadChunk) -> List[Trace]:
        """Protect one daily chunk; returns the publishable sub-traces.

        Pseudonyms are unique across the whole campaign (``user#k`` with
        a per-user running counter), so two days of the same user never
        share a published id.
        """
        return [piece.published for piece in self.protect_chunk(chunk).pieces]
