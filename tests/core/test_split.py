"""Tests for repro.core.split — halving, chunking, train/test."""

import numpy as np
import pytest

from repro.core.dataset import MobilityDataset
from repro.core.split import (
    SECONDS_PER_DAY,
    fixed_window_end,
    most_active_window,
    split_fixed_time,
    split_in_half,
    split_on_gaps,
    train_test_split,
)
from repro.core.trace import Trace
from repro.errors import ConfigurationError

from tests.conftest import make_trace


def uniform_trace(user="u", n=100, dt=600.0, t0=0.0):
    ts = t0 + np.arange(n) * dt
    return Trace(user, ts, np.full(n, 45.0), np.full(n, 4.0))


class TestSplitInHalf:
    def test_partition_is_lossless(self):
        t = uniform_trace(n=101)
        left, right = split_in_half(t)
        assert len(left) + len(right) == len(t)

    def test_split_at_temporal_midpoint(self):
        t = uniform_trace(n=100, dt=60.0)
        left, right = split_in_half(t)
        mid = t.start_time() + t.duration_s() / 2
        assert left.end_time() < mid
        assert right.start_time() >= mid

    def test_keeps_user(self):
        left, right = split_in_half(uniform_trace("alice"))
        assert left.user_id == "alice"
        assert right.user_id == "alice"

    def test_single_record(self):
        t = Trace("u", [0.0], [45.0], [4.0])
        left, right = split_in_half(t)
        assert len(left) == 1
        assert len(right) == 0

    def test_empty(self):
        left, right = split_in_half(Trace.empty("u"))
        assert len(left) == 0 and len(right) == 0

    def test_last_record_not_lost(self):
        # Regression: the half-open slice must still include end_time().
        t = uniform_trace(n=11, dt=100.0)
        left, right = split_in_half(t)
        assert right.end_time() == t.end_time()


class TestSplitFixedTime:
    def test_covers_all_records(self):
        t = uniform_trace(n=240, dt=600.0)  # 40 hours
        chunks = split_fixed_time(t, 86_400.0)
        assert sum(len(c) for c in chunks) == len(t)

    def test_chunk_duration_bounded(self):
        t = uniform_trace(n=240, dt=600.0)
        for chunk in split_fixed_time(t, 3600.0):
            assert chunk.duration_s() < 3600.0

    def test_empty_trace(self):
        assert split_fixed_time(Trace.empty("u"), 60.0) == []

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            split_fixed_time(uniform_trace(), 0.0)

    def test_chronological_order(self):
        chunks = split_fixed_time(uniform_trace(n=100, dt=500.0), 3600.0)
        starts = [c.start_time() for c in chunks]
        assert starts == sorted(starts)

    def test_skips_empty_windows(self):
        # Two bursts a week apart: no empty chunks in between.
        a = uniform_trace(n=10, dt=60.0, t0=0.0)
        b = uniform_trace(n=10, dt=60.0, t0=7 * SECONDS_PER_DAY)
        t = a.concat(b)
        chunks = split_fixed_time(t, SECONDS_PER_DAY)
        assert len(chunks) == 2
        assert all(len(c) > 0 for c in chunks)

    def test_boundary_k_is_t0_plus_k_times_window(self):
        # A record sitting exactly on t0 + k*w opens window k.
        t0, w = 0.3, 0.1
        ts = [t0] + [t0 + k * w for k in (7, 8, 1000, 10**9)]
        trace = Trace("edge", ts, np.full(5, 45.0), np.full(5, 4.0))
        chunks = split_fixed_time(trace, w)
        assert [c.start_time() for c in chunks] == ts
        assert fixed_window_end(t0, w, ts[2]) == t0 + 9 * w

    def test_window_below_timestamp_resolution_rejected(self):
        # ulp(1e12) is ~1.2e-4 s: microsecond windows cannot be placed.
        trace = Trace("far", [1e12, 1e12 + 1.0], [45.0, 45.0], [4.0, 4.0])
        with pytest.raises(ConfigurationError, match="resolution"):
            split_fixed_time(trace, 1e-6)


class TestSplitOnGaps:
    def test_no_gaps_single_piece(self):
        pieces = split_on_gaps(uniform_trace(n=10, dt=60.0), max_gap_s=120.0)
        assert len(pieces) == 1

    def test_each_gap_splits(self):
        a = uniform_trace(n=5, dt=60.0, t0=0.0)
        b = uniform_trace(n=5, dt=60.0, t0=10_000.0)
        pieces = split_on_gaps(a.concat(b), max_gap_s=300.0)
        assert len(pieces) == 2
        assert len(pieces[0]) == 5

    def test_lossless(self):
        a = uniform_trace(n=7, dt=60.0, t0=0.0)
        b = uniform_trace(n=3, dt=60.0, t0=99_999.0)
        pieces = split_on_gaps(a.concat(b), max_gap_s=1000.0)
        assert sum(len(p) for p in pieces) == 10

    def test_empty(self):
        assert split_on_gaps(Trace.empty("u"), 10.0) == []

    def test_invalid_gap(self):
        with pytest.raises(ConfigurationError):
            split_on_gaps(uniform_trace(), -5.0)


class TestMostActiveWindow:
    def test_short_trace_unchanged(self):
        t = uniform_trace(n=10, dt=600.0)
        assert most_active_window(t, days=30) == t

    def test_picks_densest_window(self):
        sparse = uniform_trace("u", n=5, dt=SECONDS_PER_DAY, t0=0.0)
        dense = uniform_trace("u", n=500, dt=300.0, t0=40 * SECONDS_PER_DAY)
        t = sparse.concat(dense)
        window = most_active_window(t, days=5)
        assert len(window) >= 500

    def test_invalid_days(self):
        with pytest.raises(ConfigurationError):
            most_active_window(uniform_trace(), days=0)


class TestTrainTestSplit:
    def _dataset(self, n_users=3, days=10):
        ds = MobilityDataset("d")
        for i in range(n_users):
            n = int(days * SECONDS_PER_DAY / 600.0)
            ds.add(uniform_trace(f"u{i}", n=n, dt=600.0))
        return ds

    def test_disjoint_in_time(self):
        train, test = train_test_split(self._dataset(), train_days=5, test_days=5)
        for user in train.user_ids():
            assert train[user].end_time() <= test[user].start_time()

    def test_same_users_both_sides(self):
        train, test = train_test_split(self._dataset(), train_days=5, test_days=5)
        assert train.user_ids() == test.user_ids()

    def test_inactive_users_dropped(self):
        ds = self._dataset(2)
        ds.add(Trace("sparse", [0.0, 60.0], [45.0, 45.0], [4.0, 4.0]))
        train, test = train_test_split(ds, train_days=5, test_days=5)
        assert "sparse" not in train.user_ids()
        assert "sparse" not in test.user_ids()

    def test_names(self):
        train, test = train_test_split(self._dataset(), train_days=5, test_days=5)
        assert train.name.endswith("-train")
        assert test.name.endswith("-test")

    def test_no_record_lost_within_window(self):
        ds = self._dataset(1, days=10)
        train, test = train_test_split(ds, train_days=5, test_days=5)
        total = train.record_count() + test.record_count()
        assert total == ds.record_count()
