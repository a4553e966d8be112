"""WindowAssembler: bit-identical window membership vs the batch splitters.

The streaming path's byte-identity guarantee starts here: if a record
lands in a different window than :func:`split_fixed_time` /
:func:`split_on_gaps` would put it in, every downstream byte (RNG seed,
pseudonym, published positions) diverges.  So window membership is
pinned with exact array equality, including the float-accumulation
boundary behaviour and skipped-empty-window behaviour of the batch
splitter.
"""

import time

import numpy as np
import pytest

from repro.core.split import split_fixed_time, split_on_gaps
from repro.core.trace import Trace
from repro.errors import ConfigurationError, StreamError
from repro.stream import ClosedWindow, WindowAssembler


def random_trace(user="w", n=500, seed=11, span_days=5.0):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, span_days * 86_400.0, n))
    return Trace(
        user,
        ts,
        45.0 + rng.normal(0, 0.02, n),
        4.8 + rng.normal(0, 0.02, n),
    )


def stream_windows(trace, **kwargs):
    """Run *trace* through an assembler; returns the closed windows."""
    assembler = WindowAssembler(trace.user_id, **kwargs)
    windows = []
    for i in range(len(trace)):
        closed = assembler.add(
            i, float(trace.timestamps[i]), float(trace.lats[i]), float(trace.lngs[i])
        )
        if closed is not None:
            windows.append(closed)
    tail = assembler.close_open()
    if tail is not None:
        windows.append(tail)
    return windows


def assert_same_chunks(windows, chunks):
    assert len(windows) == len(chunks)
    for window, chunk in zip(windows, chunks):
        assert np.array_equal(window.trace.timestamps, chunk.timestamps)
        assert np.array_equal(window.trace.lats, chunk.lats)
        assert np.array_equal(window.trace.lngs, chunk.lngs)


class TestTumblingEquivalence:
    @pytest.mark.parametrize("window_s", [3600.0, 86_400.0, 7200.5])
    def test_matches_split_fixed_time(self, window_s):
        trace = random_trace()
        windows = stream_windows(trace, kind="tumbling", window_s=window_s)
        assert_same_chunks(windows, split_fixed_time(trace, window_s))

    def test_sparse_trace_skips_empty_windows(self):
        # Two bursts 10 windows apart: the batch splitter emits no empty
        # chunks between them and neither must the assembler.
        ts = np.concatenate([np.arange(5) * 60.0, 36_000.0 + np.arange(5) * 60.0])
        trace = Trace("sparse", ts, np.full(10, 45.0), np.full(10, 4.0))
        windows = stream_windows(trace, kind="tumbling", window_s=3600.0)
        assert_same_chunks(windows, split_fixed_time(trace, 3600.0))
        assert len(windows) == 2

    def test_boundary_float_accumulation_matches(self):
        # Timestamps sitting exactly on accumulated k*w boundaries — the
        # case where `t0 + k*w` (multiplication) and `+= w` (repeated
        # addition) can disagree in the last ulp.
        w = 0.1  # 0.1 is inexact in binary: accumulation drifts
        ts = np.cumsum(np.full(200, w / 3.0))
        trace = Trace("edge", ts, np.full(200, 45.0), np.full(200, 4.0))
        windows = stream_windows(trace, kind="tumbling", window_s=w)
        assert_same_chunks(windows, split_fixed_time(trace, w))

    def test_ordinals_cover_the_trace_contiguously(self):
        trace = random_trace(n=100)
        windows = stream_windows(trace, kind="tumbling", window_s=7200.0)
        spans = [(w.first_ordinal, w.last_ordinal) for w in windows]
        assert spans[0][0] == 0
        assert spans[-1][1] == len(trace) - 1
        for (_, prev_last), (first, _) in zip(spans, spans[1:]):
            assert first == prev_last + 1
        assert all(
            last - first + 1 == len(w)
            for (first, last), w in zip(spans, windows)
        )


class TestTumblingCost:
    def test_huge_span_costs_o_records_on_both_paths(self):
        # Regression: both walkers stepped once per window between the
        # first and last record (1e12 steps here), so one request could
        # tie up a server thread for hours.
        trace = Trace("far", [0.0, 1e12], [45.0, 45.1], [4.0, 4.1])
        start = time.perf_counter()
        chunks = split_fixed_time(trace, 1.0)
        windows = stream_windows(trace, kind="tumbling", window_s=1.0)
        assert time.perf_counter() - start < 0.5
        assert len(chunks) == 2
        assert_same_chunks(windows, chunks)


class TestSessionEquivalence:
    @pytest.mark.parametrize("gap_s", [1000.0, 3600.0])
    def test_matches_split_on_gaps(self, gap_s):
        trace = random_trace(seed=23)
        windows = stream_windows(trace, kind="session", gap_s=gap_s)
        assert_same_chunks(windows, split_on_gaps(trace, gap_s))

    def test_gap_exactly_at_threshold_does_not_split(self):
        # split_on_gaps breaks on diff > gap, not >=.
        ts = np.array([0.0, 100.0, 200.0])
        trace = Trace("thr", ts, np.full(3, 45.0), np.full(3, 4.0))
        windows = stream_windows(trace, kind="session", gap_s=100.0)
        assert_same_chunks(windows, split_on_gaps(trace, 100.0))
        assert len(windows) == 1


class TestContract:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="window kind"):
            WindowAssembler("u", kind="hopping")

    @pytest.mark.parametrize("kwargs", [{"window_s": 0.0}, {"gap_s": -1.0}])
    def test_nonpositive_params_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WindowAssembler("u", **kwargs)

    def test_out_of_order_record_raises(self):
        assembler = WindowAssembler("u")
        assembler.add(0, 100.0, 45.0, 4.0)
        with pytest.raises(StreamError, match="not sorted"):
            assembler.add(1, 99.0, 45.0, 4.0)

    def test_equal_timestamps_allowed(self):
        # Trace allows ties (non-decreasing); so must the assembler.
        assembler = WindowAssembler("u")
        assembler.add(0, 100.0, 45.0, 4.0)
        assert assembler.add(1, 100.0, 45.1, 4.1) is None
        assert assembler.pending == 2

    def test_close_open_empty_returns_none(self):
        assert WindowAssembler("u").close_open() is None

    def test_close_open_reanchors_tumbling(self):
        assembler = WindowAssembler("u", kind="tumbling", window_s=100.0)
        assembler.add(0, 0.0, 45.0, 4.0)
        window = assembler.close_open()
        assert isinstance(window, ClosedWindow) and len(window) == 1
        # The next record re-anchors: no window closes at t=150 even
        # though it crosses the old t=100 boundary.
        assert assembler.add(1, 150.0, 45.0, 4.0) is None
        assert assembler.add(2, 260.0, 45.0, 4.0) is not None
