"""Tests for the crowdsensing client, proxy, and server components."""

import numpy as np
import pytest

from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.errors import ConfigurationError, InvalidRecordError
from repro.geo.grid import MetricGrid
from repro.lppm.base import LPPM
from repro.service.client import MobileClient, UploadChunk
from repro.service.proxy import MoodProxy
from repro.service.server import CollectionServer

DAY = 86_400.0


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


class _AlwaysAttack:
    name = "always"

    def reidentify(self, trace):
        return trace.user_id


def multi_day_trace(user="u", days=3, period=600.0):
    n = int(days * DAY / period)
    ts = np.arange(n) * period
    return Trace(user, ts, np.full(n, 45.0), np.full(n, 4.0))


class TestMobileClient:
    def test_chunking(self):
        client = MobileClient(multi_day_trace(days=3), chunk_s=DAY)
        assert client.days_total == 3
        assert client.days_remaining == 3
        # Checked, not coerced: True made one-second chunks, inf one chunk
        # uploaded at virtual time inf, "86400" a bare TypeError.
        for bad in (True, float("inf"), "86400", 0.0, float("nan")):
            with pytest.raises(ConfigurationError, match="chunk_s"):
                MobileClient(multi_day_trace(days=3), chunk_s=bad)

    def test_next_upload_sequence(self):
        client = MobileClient(multi_day_trace(days=2), chunk_s=DAY)
        first = client.next_upload()
        second = client.next_upload()
        assert first.day_index == 0
        assert second.day_index == 1
        assert client.next_upload() is None

    def test_upload_times(self):
        client = MobileClient(multi_day_trace(days=2), chunk_s=DAY)
        times = client.upload_times(campaign_start=0.0)
        assert times == [DAY, 2 * DAY]

    def test_empty_trace(self):
        client = MobileClient(Trace.empty("u"))
        assert client.days_total == 0
        assert client.next_upload() is None


class TestMoodProxy:
    def _proxy(self, attack):
        mood = ProtectionEngine([_Noop()], [attack], delta_s=4 * 3600.0)
        return MoodProxy(mood)

    def test_protecting_proxy_publishes(self):
        proxy = self._proxy(_NeverAttack())
        chunk = UploadChunk("u", 0, multi_day_trace(days=1))
        published = proxy.process(chunk)
        assert len(published) == 1
        assert proxy.stats.records_published == chunk.records
        assert proxy.stats.records_erased == 0

    def test_hopeless_chunk_erased(self):
        proxy = self._proxy(_AlwaysAttack())
        chunk = UploadChunk("u", 0, multi_day_trace(days=1))
        published = proxy.process(chunk)
        assert published == []
        assert proxy.stats.records_erased == chunk.records
        assert proxy.stats.erasure_ratio == 1.0

    def test_pseudonyms_unique_across_days(self):
        proxy = self._proxy(_NeverAttack())
        ids = []
        for day in range(3):
            chunk = UploadChunk("u", day, multi_day_trace(days=1))
            ids.extend(t.user_id for t in proxy.process(chunk))
        assert len(ids) == len(set(ids)) == 3
        assert all(i.startswith("u#") for i in ids)

    def test_mechanism_usage_tracked(self):
        proxy = self._proxy(_NeverAttack())
        proxy.process(UploadChunk("u", 0, multi_day_trace(days=1)))
        assert proxy.stats.mechanism_usage == {"noop": 1}


class TestCollectionServer:
    def test_receive_and_stats(self):
        server = CollectionServer(MetricGrid(800.0, 45.0))
        server.receive(multi_day_trace("u#0", days=1))
        server.receive(multi_day_trace("u#1", days=1))
        stats = server.stats
        assert stats.uploads == 2
        assert stats.distinct_pseudonyms == 2
        assert stats.records > 0

    def test_count_query(self):
        server = CollectionServer(MetricGrid(800.0, 45.0))
        trace = multi_day_trace("u#0", days=1)
        server.receive(trace)
        assert server.count_in_cell(45.0, 4.0) == len(trace)
        assert server.count_in_cell(50.0, 10.0) == 0

    def test_top_cells(self):
        server = CollectionServer(MetricGrid(800.0, 45.0))
        server.receive(multi_day_trace("u#0", days=1))
        top = server.top_cells(3)
        assert len(top) >= 1
        assert top[0][1] >= top[-1][1]

    def test_density_correlation_perfect_for_raw(self):
        server = CollectionServer(MetricGrid(800.0, 45.0))
        ds = MobilityDataset("ref")
        trace = multi_day_trace("u", days=1)
        ds.add(trace)
        server.receive(trace)
        assert server.density_correlation(ds) == pytest.approx(1.0)

    def test_cell_counts_match_the_per_record_grid(self):
        grid = MetricGrid(800.0, 45.0)
        server = CollectionServer(grid)
        rng = np.random.default_rng(3)
        expected = {}
        for k in range(4):
            n = int(rng.integers(1, 200))
            # Both hemispheres and sides of the meridian: negative cells too.
            lats = rng.uniform(-0.05, 0.05, n) + rng.choice([-45.0, 45.0])
            lngs = rng.uniform(-0.05, 0.05, n) + rng.choice([-0.02, 4.0])
            trace = Trace(f"u#{k}", np.arange(n, dtype=float), lats, lngs)
            server.receive(trace)
            for lat, lng in zip(lats.tolist(), lngs.tolist()):
                cell = grid.cell_of(lat, lng)
                expected[cell] = expected.get(cell, 0) + 1
        assert server.top_cells(len(expected) + 1) == sorted(
            expected.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for cell, n in expected.items():
            lat, lng = grid.center_of(cell)
            assert server.count_in_cell(lat, lng) == n

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_record_rejected_before_any_change(self, bad):
        server = CollectionServer(MetricGrid(800.0, 45.0))
        server.receive(multi_day_trace("u#0", days=1))
        stats, counts = server.stats, dict(server._cell_counts)
        trace = multi_day_trace("u#1", days=1)
        lats = trace.lats.copy()
        lats[len(lats) // 2] = bad
        with pytest.raises(InvalidRecordError):
            server.receive(Trace("u#1", trace.timestamps, lats, trace.lngs))
        assert server.stats == stats
        assert server._cell_counts == counts
        assert server.as_dataset().user_ids() == ["u#0"]

    def test_density_correlation_matches_per_record_counts(self):
        grid = MetricGrid(800.0, 45.0)
        server = CollectionServer(grid)
        ds = MobilityDataset("ref")
        for k in range(3):
            trace = multi_day_trace(f"u{k}", days=1)
            ds.add(trace)
            # Publish a shifted copy, so the two maps differ.
            server.receive(trace.with_positions(trace.lats + 0.004 * k, trace.lngs))
        true_counts = {}
        for trace in ds:
            for lat, lng in zip(trace.lats.tolist(), trace.lngs.tolist()):
                cell = grid.cell_of(lat, lng)
                true_counts[cell] = true_counts.get(cell, 0) + 1
        cells = sorted(set(true_counts) | set(server._cell_counts))
        a = np.array([true_counts.get(c, 0) for c in cells], dtype=np.float64)
        b = np.array([server._cell_counts.get(c, 0) for c in cells], dtype=np.float64)
        assert server.density_correlation(ds) == float(np.corrcoef(a, b)[0, 1])

    def test_as_dataset(self):
        server = CollectionServer(MetricGrid(800.0, 45.0))
        server.receive(multi_day_trace("u#0", days=1))
        out = server.as_dataset()
        assert out.user_ids() == ["u#0"]

    def test_stats_counters_are_incremental(self):
        """`stats` must not rescan the stored traces on every access."""
        server = CollectionServer(MetricGrid(800.0, 45.0))
        expected_records = 0
        for k in range(5):
            trace = multi_day_trace(f"u#{k}", days=1)
            server.receive(trace)
            expected_records += len(trace)
            stats = server.stats
            assert stats.uploads == k + 1
            assert stats.records == expected_records
            assert stats.distinct_pseudonyms == k + 1
        # Reading stats is pure: repeated access returns equal values
        # without touching the stored traces.
        server._traces = None  # a rescan would now blow up
        again = server.stats
        assert again.records == expected_records
        assert again.distinct_pseudonyms == 5

    def test_duplicate_pseudonym_not_double_counted(self):
        server = CollectionServer(MetricGrid(800.0, 45.0))
        server.receive(multi_day_trace("u#0", days=1))
        server.receive(multi_day_trace("u#0", days=1))
        assert server.stats.uploads == 2
        assert server.stats.distinct_pseudonyms == 1
