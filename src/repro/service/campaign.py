"""End-to-end crowdsensing campaign simulation.

Wires clients, the protection service, and the collection server onto
the discrete-event loop: every client uploads its daily chunk at the end
of each campaign day; the service protects (or erases) it and ingests
the published pieces.  The campaign report aggregates privacy,
operational, and utility outcomes — the deployment-side evidence the
paper's title promises.

Since the service API redesign the campaign no longer calls the proxy
directly: each upload goes through a
:class:`~repro.service.api.LoopbackClient` — the same messages, codec,
and :class:`~repro.service.api.ProtectionService` dispatch as the socket
deployment (`python -m repro serve`), minus the socket.  Simulation and
deployment exercise one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine
from repro.errors import ConfigurationError
from repro.service.api import LoopbackClient, ProtectionService
from repro.service.client import MobileClient
from repro.service.events import EventLoop
from repro.service.proxy import MoodProxy, ProxyStats
from repro.service.server import CollectionServer, ServerStats


@dataclass
class CampaignReport:
    """Outcome of a simulated campaign."""

    days: float
    clients: int
    proxy: ProxyStats
    server: ServerStats
    #: Pearson correlation of per-cell counts, protected vs raw.
    count_query_fidelity: float
    #: Virtual duration of the simulation, seconds.
    virtual_duration_s: float

    @property
    def data_loss(self) -> float:
        return self.proxy.erasure_ratio


class CrowdsensingCampaign:
    """Simulate a daily-upload campaign over a dataset of raw traces."""

    def __init__(
        self,
        raw: MobilityDataset,
        engine: Optional[ProtectionEngine] = None,
        chunk_s: float = 86_400.0,
        *,
        service: Optional[ProtectionService] = None,
    ) -> None:
        self.raw = raw
        if (engine is None) == (service is None):
            got = "neither" if engine is None else "both"
            raise ConfigurationError(
                f"CrowdsensingCampaign takes an engine or a 'service'; got {got}"
            )
        self.service = service if service is not None else ProtectionService(engine)
        self.clients: List[MobileClient] = [
            MobileClient(trace, chunk_s) for trace in raw.traces() if len(trace) > 0
        ]

    @property
    def proxy(self) -> MoodProxy:
        """The service's proxy (cascade + pseudonyms + counters)."""
        return self.service.proxy

    @property
    def server(self) -> CollectionServer:
        """The service's collection server (protected corpus + queries)."""
        return self.service.server

    def run(self) -> CampaignReport:
        """Run the full campaign on the event loop and report."""
        if not self.clients:
            raise ValueError("campaign has no active clients")
        start = min(c._chunks[0].start_time() for c in self.clients if c.days_total)
        loop = EventLoop(start_time=start)
        rpc = LoopbackClient(self.service)

        def make_upload(client: MobileClient):
            def upload() -> None:
                chunk = client.next_upload()
                if chunk is None:
                    return
                rpc.upload(chunk.trace, day_index=chunk.day_index)

            return upload

        for client in self.clients:
            action = make_upload(client)
            for t in client.upload_times(start):
                loop.schedule(t, action, label=f"upload:{client.user_id}")
        try:
            loop.run()
        finally:
            rpc.close()
        fidelity = self.server.density_correlation(self.raw)
        return CampaignReport(
            days=(loop.now - start) / 86_400.0,
            clients=len(self.clients),
            proxy=self.proxy.stats,
            server=self.server.stats,
            count_query_fidelity=fidelity,
            virtual_duration_s=loop.now - start,
        )
