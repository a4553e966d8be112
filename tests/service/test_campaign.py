"""Integration tests for the crowdsensing campaign simulation."""

import numpy as np
import pytest

from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.lppm.base import LPPM
from repro.service.campaign import CrowdsensingCampaign

DAY = 86_400.0


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


def corpus(n_users=3, days=3):
    ds = MobilityDataset("camp")
    for i in range(n_users):
        n = int(days * DAY / 600.0)
        ts = np.arange(n) * 600.0
        ds.add(Trace(f"u{i}", ts, np.full(n, 45.0 + 0.01 * i), np.full(n, 4.0)))
    return ds


class TestCampaignStub:
    """Campaign mechanics with stub protection (fast, deterministic)."""

    def _run(self, n_users=3, days=3):
        mood = ProtectionEngine([_Noop()], [_NeverAttack()])
        return CrowdsensingCampaign(corpus(n_users, days), mood).run()

    def test_all_chunks_processed(self):
        report = self._run(n_users=3, days=3)
        assert report.proxy.chunks_processed == 9
        assert report.clients == 3

    def test_no_loss_with_protecting_stub(self):
        report = self._run()
        assert report.data_loss == 0.0
        assert report.proxy.records_published == corpus().record_count()

    def test_virtual_days(self):
        report = self._run(days=3)
        assert report.days == pytest.approx(3.0, abs=0.1)

    def test_count_fidelity_perfect_for_noop(self):
        report = self._run()
        assert report.count_query_fidelity == pytest.approx(1.0)

    def test_server_sees_only_pseudonyms(self):
        mood = ProtectionEngine([_Noop()], [_NeverAttack()])
        campaign = CrowdsensingCampaign(corpus(), mood)
        campaign.run()
        collected = campaign.server.as_dataset()
        assert all("#" in uid for uid in collected.user_ids())

    def test_empty_campaign_rejected(self):
        mood = ProtectionEngine([_Noop()], [_NeverAttack()])
        with pytest.raises(ValueError):
            CrowdsensingCampaign(MobilityDataset("empty"), mood).run()


class TestCampaignRealMood:
    """End-to-end with the real LPPMs/attacks on a micro corpus."""

    def test_realistic_campaign(self, micro_ctx):
        campaign = CrowdsensingCampaign(micro_ctx.test, micro_ctx.engine())
        report = campaign.run()
        assert report.clients == len(micro_ctx.test)
        assert report.proxy.chunks_processed >= report.clients
        # MooD keeps loss small even per-chunk.
        assert report.data_loss < 0.35
        # Utility: the density map still carries signal.
        assert report.count_query_fidelity > 0.2
        # Everything the server holds resists the attack suite.
        for trace in campaign.server.as_dataset():
            original_user = trace.user_id.split("#")[0]
            for attack in micro_ctx.attacks:
                assert attack.reidentify(trace) != original_user


class TestCampaignThroughServiceApi:
    """The campaign must drive the transport-agnostic service API."""

    def test_campaign_owns_a_protection_service(self):
        from repro.service.api import ProtectionService

        engine = ProtectionEngine([_Noop()], [_NeverAttack()])
        campaign = CrowdsensingCampaign(corpus(), engine)
        assert isinstance(campaign.service, ProtectionService)
        assert campaign.proxy is campaign.service.proxy
        assert campaign.server is campaign.service.server

    def test_injected_service_is_used(self):
        from repro.service.api import ProtectionService

        service = ProtectionService(ProtectionEngine([_Noop()], [_NeverAttack()]))
        campaign = CrowdsensingCampaign(corpus(), service=service)
        report = campaign.run()
        assert campaign.service is service
        assert report.proxy is service.proxy.stats
        assert service.server.stats.uploads == report.server.uploads > 0

    def test_service_plus_engine_rejected(self):
        from repro.errors import ConfigurationError
        from repro.service.api import ProtectionService

        engine = ProtectionEngine([_Noop()], [_NeverAttack()])
        service = ProtectionService(ProtectionEngine([_Noop()], [_NeverAttack()]))
        with pytest.raises(ConfigurationError, match="both"):
            CrowdsensingCampaign(corpus(), engine, service=service)
        with pytest.raises(ConfigurationError, match="neither"):
            CrowdsensingCampaign(corpus())

    def test_campaign_report_matches_direct_proxy_loop(self):
        """Service + codec round-trip must not change campaign outcomes."""
        from repro.core.split import split_fixed_time
        from repro.service.client import UploadChunk
        from repro.service.proxy import MoodProxy
        from repro.service.server import CollectionServer

        report = CrowdsensingCampaign(
            corpus(), ProtectionEngine([_Noop()], [_NeverAttack()])
        ).run()

        proxy = MoodProxy(ProtectionEngine([_Noop()], [_NeverAttack()]))
        server = CollectionServer()
        for trace in corpus().traces():
            for day, chunk in enumerate(split_fixed_time(trace, DAY)):
                for piece in proxy.process(UploadChunk(trace.user_id, day, chunk)):
                    server.receive(piece)
        assert report.proxy == proxy.stats
        assert report.server == server.stats
        collected = {t.user_id for t in server.as_dataset()}
        assert report.server.distinct_pseudonyms == len(collected)

