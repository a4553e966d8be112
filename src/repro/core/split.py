"""Trace and dataset splitting utilities.

Three kinds of splits appear in the paper:

* **train/test split** (§4.2): the 30 most-active days of each dataset,
  first 15 days as the attacker's background knowledge ``H``, last 15 as
  the trace ``T`` the user wants to share;
* **fixed-time chunking** (§3.4/§4.5): cut a trace into 24 h sub-traces
  to model daily crowdsensing uploads;
* **recursive halving** (Algorithm 1, line 28): MooD's fine-grained stage
  splits a trace in half by time and recurses until the duration floor δ.

A gap-based splitter (the paper's future-work suggestion) ships behind
the same API and is exercised by the ablation bench.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.registry import register_split_policy

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0


@register_split_policy("half")
def split_in_half(trace: Trace) -> Tuple[Trace, Trace]:
    """Split *trace* at the midpoint of its covered time span.

    This is ``Split_in_half`` from Algorithm 1.  Records strictly before
    the temporal midpoint go left, the rest right; with < 2 records the
    right half is empty.
    """
    if len(trace) < 2:
        return (trace, Trace.empty(trace.user_id))
    mid = trace.start_time() + trace.duration_s() / 2.0
    left = trace.slice_time(trace.start_time(), mid)
    right = trace.slice_time(mid, np.nextafter(trace.end_time(), np.inf))
    return (left, right)


def fixed_window_end(t0: float, window_s: float, t: float) -> float:
    """End of the fixed window ``[t0 + k·w, t0 + (k+1)·w)`` holding *t* (>= *t0*).

    The one boundary rule of fixed-time chunking, shared by
    :func:`split_fixed_time` and the streaming
    :class:`~repro.stream.window.WindowAssembler` so both cut a trace
    identically: boundary ``k`` is ``t0 + k * window_s``.  The float
    quotient only seeds ``k`` and is then corrected against those
    boundaries, so the cost does not grow with the number of empty
    windows before *t*.
    """
    resolution = math.ulp(max(abs(t0), abs(t)))
    if not window_s >= resolution:
        # Boundaries finer than the float spacing of the timestamps
        # collapse onto each other and cannot be told apart.
        raise ConfigurationError(
            f"window_s={window_s} is below the float resolution "
            f"({resolution}) of timestamp {t}"
        )
    k = max(0, math.floor((t - t0) / window_s))
    while k > 0 and t0 + k * window_s > t:
        k -= 1
    while t0 + (k + 1) * window_s <= t:
        k += 1
    return t0 + (k + 1) * window_s


def split_fixed_time(trace: Trace, window_s: float) -> List[Trace]:
    """Cut *trace* into consecutive windows of *window_s* seconds.

    Windows are anchored at the first record (see
    :func:`fixed_window_end`) and empty windows are skipped at no cost,
    so the work grows with the records, not with the trace's span.
    With ``window_s = 86 400`` this models the daily-upload
    crowdsensing scenario of §4.2.
    """
    if window_s <= 0:
        raise ConfigurationError(f"window_s must be positive, got {window_s}")
    t = trace.timestamps
    bounds = [0]
    while bounds[-1] < len(t):
        end = fixed_window_end(float(t[0]), window_s, float(t[bounds[-1]]))
        bounds.append(int(np.searchsorted(t, end, side="left")))
    return _cut(trace, bounds)


def split_on_gaps(trace: Trace, max_gap_s: float) -> List[Trace]:
    """Split *trace* wherever consecutive records are more than *max_gap_s* apart.

    Paper §6 suggests splitting "according to time gaps" as an alternative
    fine-grained policy; this provides it.
    """
    if max_gap_s <= 0:
        raise ConfigurationError(f"max_gap_s must be positive, got {max_gap_s}")
    if len(trace) == 0:
        return []
    breaks = np.nonzero(np.diff(trace.timestamps) > max_gap_s)[0] + 1
    return _cut(trace, [0, *breaks, len(trace)])


def _cut(trace: Trace, bounds: Sequence[int]) -> List[Trace]:
    """The pieces of *trace* between consecutive record indices in *bounds*."""
    t, lat, lng = trace.timestamps, trace.lats, trace.lngs
    return [
        Trace(trace.user_id, t[a:b], lat[a:b], lng[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


def most_active_window(trace: Trace, days: int = 30) -> Trace:
    """Restrict *trace* to its most active *days*-long window (most records).

    Mirrors the paper's preprocessing: "we considered the 30 most active
    successive days of each dataset".  The window is aligned to whole days
    from the trace start and chosen to maximise the record count.
    """
    if days <= 0:
        raise ConfigurationError(f"days must be positive, got {days}")
    if len(trace) == 0:
        return trace
    window = days * SECONDS_PER_DAY
    if trace.duration_s() <= window:
        return trace
    t = trace.timestamps
    best_start = trace.start_time()
    best_count = -1
    start = trace.start_time()
    while start <= trace.end_time():
        count = int(np.count_nonzero((t >= start) & (t < start + window)))
        if count > best_count:
            best_count = count
            best_start = start
        start += SECONDS_PER_DAY
    return trace.slice_time(best_start, best_start + window)


def train_test_split(
    dataset: MobilityDataset,
    train_days: int = 15,
    test_days: int = 15,
    min_records: int = 2,
) -> Tuple[MobilityDataset, MobilityDataset]:
    """Chronological per-user split into background knowledge and shared trace.

    Each user's trace is first restricted to its most active
    ``train_days + test_days`` window, then cut at the boundary.  Users
    that end up with fewer than *min_records* records on either side are
    dropped from **both** halves ("only active users during those periods
    were considered", §4.2).
    """
    train = MobilityDataset(f"{dataset.name}-train")
    test = MobilityDataset(f"{dataset.name}-test")
    for trace in dataset.traces():
        if len(trace) == 0:
            continue
        window = most_active_window(trace, days=train_days + test_days)
        cut = window.start_time() + train_days * SECONDS_PER_DAY
        past = window.slice_time(window.start_time(), cut)
        future = window.slice_time(cut, np.nextafter(window.end_time(), np.inf))
        if len(past) < min_records or len(future) < min_records:
            continue
        train.add(past)
        test.add(future)
    return (train, test)
