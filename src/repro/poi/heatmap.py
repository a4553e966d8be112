"""Heatmap mobility profiles.

A heatmap aggregates a user's mobility over a metric grid: each cell's
value is the number of the user's records falling in that cell,
normalised to a probability distribution.  Heatmaps are the profile
model of the AP-attack [22] and the representation manipulated by the
HMC LPPM [23]; both use 800 m cells in the paper.

:class:`TopsoeIndex` is the one nearest-profile kernel over a set of
heatmaps: the AP-attack ranks profiles with it, HMC picks its target.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.trace import Trace
from repro.errors import EmptyTraceError
from repro.geo.grid import Cell, MetricGrid

#: Packing stride for (ix, iy) cell pairs; iy must fit in ±2**30 (it does
#: for any cell size above ~1 cm — |lat| ≤ 90° is ~1e7 m of northing).
_PACK = 2**31
_HALF_PACK = 2**30
_EPS = 1e-12
#: Records per block of :func:`build_heatmaps`.  A block's cell keys,
#: trace ids and sort temporaries take ~0.4 MB whatever the background
#: size: a fit's transient arrays add to an endpoint's peak RSS.
_BLOCK_RECORDS = 4_096
_LN2 = float(np.log(2.0))
_Views = Tuple[Tuple[Cell, ...], Tuple[Tuple[Cell, float], ...], Dict[Cell, float]]


def pack_cells(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Packed ``ix * 2**31 + iy`` cell keys; they sort like :class:`Cell` objects."""
    return ix * _PACK + iy


def unpack_cells(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(ix, iy)`` of packed *keys*.  Centred decode: negative rows and
    columns (any lat/lng sign) round-trip exactly instead of borrowing
    into the neighbouring column."""
    iy = (keys + _HALF_PACK) % _PACK - _HALF_PACK
    return (keys - iy) // _PACK, iy


def _to_cells(keys: np.ndarray) -> List[Cell]:
    ix, iy = unpack_cells(keys)
    return list(map(Cell, ix.tolist(), iy.tolist()))


class Heatmap:
    """A normalised visit-frequency distribution over grid cells."""

    __slots__ = ("grid", "_packed", "_views")

    def __init__(self, grid: MetricGrid, counts: Dict[Cell, float]) -> None:
        total = float(sum(counts.values()))
        if total <= 0:
            raise EmptyTraceError("cannot build a heatmap with zero total mass")
        cells = sorted(c for c, v in counts.items() if v > 0)
        self.grid = grid
        self._packed = (
            np.array([c.ix * _PACK + c.iy for c in cells], dtype=np.int64),
            np.array([counts[c] / total for c in cells]),
        )
        self._views: Optional[_Views] = None

    @classmethod
    def from_counts(cls, grid: MetricGrid, keys: np.ndarray, counts: np.ndarray) -> "Heatmap":
        """The heatmap of record *counts* per packed cell, *keys* ascending
        and unique (as :func:`numpy.unique` returns them)."""
        heatmap = cls.__new__(cls)
        heatmap.grid, heatmap._views = grid, None
        heatmap._packed = (keys, counts / float(counts.sum()))
        return heatmap

    def _view(self) -> _Views:
        """The cell views, built on first use: the Topsoe kernels read only
        :meth:`packed`, so most heatmaps never create :class:`Cell` objects.
        Heatmaps are immutable and the views are tuples, safe to share."""
        if self._views is None:
            keys, masses = self._packed
            cells = tuple(_to_cells(keys))
            items = tuple(zip(cells, masses.tolist()))
            self._views = (cells, items, dict(items))
        return self._views

    # -- mapping access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._packed[0])

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._view()[2]

    def mass(self, cell: Cell) -> float:
        """Probability mass of *cell* (0 if unvisited)."""
        return self._view()[2].get(cell, 0.0)

    def cells(self) -> Tuple[Cell, ...]:
        """Visited cells, sorted for deterministic iteration."""
        return self._view()[0]

    def items(self) -> Tuple[Tuple[Cell, float], ...]:
        """``(cell, mass)`` pairs, sorted by cell."""
        return self._view()[1]

    def packed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Packed cell keys, ascending (:meth:`cells` order), and their masses."""
        return self._packed

    def support(self) -> frozenset:
        """The set of visited cells."""
        return frozenset(self.cells())

    def top_cells(self, k: int) -> List[Cell]:
        """The *k* most visited cells (ties broken by cell index)."""
        return [c for c, _ in sorted(self.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]

    def entropy(self) -> float:
        """Shannon entropy of the visit distribution, in bits."""
        p = self._packed[1]
        return float(-np.sum(p * np.log2(p)))

    def __repr__(self) -> str:
        return f"Heatmap(cells={len(self)}, grid={self.grid!r})"


def build_heatmap(trace: Trace, grid: MetricGrid) -> Heatmap:
    """Accumulate *trace* into a heatmap over *grid*.

    Vectorised: the lat/lng arrays are converted to packed cell keys in
    one pass, then reduced with :func:`numpy.unique`.  The cell indices
    agree with :meth:`MetricGrid.cell_of` in *all four* quadrants (see
    :func:`unpack_cells`).
    """
    if len(trace) == 0:
        raise EmptyTraceError(f"trace of user {trace.user_id!r} is empty")
    record_keys = pack_cells(*grid.cells_of(trace.lats, trace.lngs))
    keys, counts = np.unique(record_keys, return_counts=True)
    return Heatmap.from_counts(grid, keys, counts)


def build_heatmaps(traces: Sequence[Trace], grid: MetricGrid) -> List[Heatmap]:
    """``[build_heatmap(t, grid) for t in traces]``, in bulk.

    Consecutive traces are reduced together, ``_BLOCK_RECORDS`` records
    or one trace at a time: their packed cell keys are sorted by (trace,
    key) in one pass and cut at every key or trace change.  The keys and
    counts are those :func:`numpy.unique` gives :func:`build_heatmap`, so
    every heatmap is bit-identical to the per-trace one.
    """
    out: List[Heatmap] = []
    start = 0
    while start < len(traces):
        stop, size = start + 1, len(traces[start])
        while stop < len(traces) and size + len(traces[stop]) <= _BLOCK_RECORDS:
            size += len(traces[stop])
            stop += 1
        out += _heatmap_block(traces[start:stop], grid)
        start = stop
    return out


def _heatmap_block(traces: Sequence[Trace], grid: MetricGrid) -> List[Heatmap]:
    lengths = np.array([len(t) for t in traces])
    for trace, n in zip(traces, lengths.tolist()):
        if n == 0:
            raise EmptyTraceError(f"trace of user {trace.user_id!r} is empty")
    lats = np.concatenate([t.lats for t in traces])
    lngs = np.concatenate([t.lngs for t in traces])
    keys = pack_cells(*grid.cells_of(lats, lngs))
    rows = np.repeat(np.arange(len(traces)), lengths)
    keys = keys[np.lexsort((keys, rows))]
    # A (trace, cell) run starts at every key change and every trace start.
    starts = np.cumsum(lengths) - lengths
    new = np.empty(keys.size, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    new[starts] = True
    first = np.flatnonzero(new)
    counts = np.diff(np.append(first, keys.size))
    keys = keys[first]
    cuts = np.searchsorted(first, starts).tolist() + [first.size]
    return [
        Heatmap.from_counts(grid, keys[lo:hi], counts[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
    ]


def aggregate_heatmaps(grid: MetricGrid, heatmaps: Iterable[Heatmap]) -> Heatmap:
    """Average several heatmaps into a population-level heatmap."""
    counts: Dict[Cell, float] = {}
    n = 0
    for hm in heatmaps:
        if hm.grid != grid:
            raise ValueError("all heatmaps must share the same grid")
        for cell, mass in hm.items():
            counts[cell] = counts.get(cell, 0.0) + mass
        n += 1
    if n == 0:
        raise ValueError("no heatmaps to aggregate")
    return Heatmap(grid, counts)


class TopsoeIndex:
    """Nearest-profile Topsoe kernel over a fitted set of heatmaps.

    Per profile row ``p`` and query ``q``, with ``V`` the profile cell
    vocabulary and ``q_out`` the query mass outside it,

        T(p, q) = Σ_j [ p_j ln p_j + q_j ln(2 q_j) − (p_j+q_j) ln(p_j+q_j) ]
                  + ln 2 · (1 + q_out)                      (j ∈ supp(q)∩V)

    because both distributions sum to one (the profile mass outside
    ``supp(q)`` contributes ``p_j ln 2`` each).  So the index stores only
    the non-zero profile masses and their fit-time ``p ln p``, column by
    column (one column per cell of ``V``, in cell order).  A query fills
    a Fortran-ordered ``(users × |supp(q)∩V|)`` block with each column's
    zero-mass term ``0 − q_j ln q_j`` and overwrites only the entries of
    profiles that visit the cell, so the logarithm runs over the profile
    non-zeros, not the whole block.  Every term is the one the dense
    ``(users × cells)`` gather computes (``0 + q_j`` is ``q_j``), and the
    block's row sums add the columns one after another as the gather's
    do, so every divergence is bit-identical to it
    (:func:`repro.attacks.reference.topsoe_divergences_reference`).  Rows
    are the users in sorted order: a first minimum is the smallest user
    id.
    """

    __slots__ = ("users", "_keys", "_colptr", "_rows", "_mass", "_plogp")

    def __init__(self, profiles: Mapping[str, Heatmap]) -> None:
        self.users: Tuple[str, ...] = tuple(sorted(profiles))
        packed = [profiles[user].packed() for user in self.users]
        keys = np.concatenate([np.zeros(0, np.int64)] + [k for k, _ in packed])
        self._keys, col_of = np.unique(keys, return_inverse=True)
        order = np.argsort(col_of, kind="stable")
        self._colptr = np.searchsorted(col_of[order], np.arange(len(self._keys) + 1))
        self._rows = np.repeat(np.arange(len(packed)), [len(k) for k, _ in packed])[order]
        self._mass = np.concatenate([np.zeros(0)] + [m for _, m in packed])[order]
        self._plogp = self._mass * np.log(np.maximum(self._mass, _EPS))

    def cells(self) -> Tuple[Cell, ...]:
        """The profile cell vocabulary, in column order (sorted)."""
        return tuple(_to_cells(self._keys))

    def dense(self) -> np.ndarray:
        """The ``(users × cells)`` profile matrix, columns in :meth:`cells` order."""
        matrix = np.zeros((len(self.users), len(self._keys)))
        cols = np.repeat(np.arange(len(self._keys)), np.diff(self._colptr))
        matrix[self._rows, cols] = self._mass
        return matrix

    def divergences(self, query: Heatmap) -> np.ndarray:
        """Topsoe divergence of *query* against every profile, in :attr:`users` order."""
        n = len(self.users)
        if n == 0:
            return np.zeros(0)
        qkeys, qmass = query.packed()
        col = np.minimum(np.searchsorted(self._keys, qkeys), len(self._keys) - 1)
        hit = self._keys[col] == qkeys
        q_out = 0.0
        for mass in qmass[~hit].tolist():  # one add at a time, in cell order
            q_out += mass
        div = np.full(n, _LN2 * (1.0 + q_out))
        if hit.any():
            cols, q = col[hit], qmass[hit]
            lo, counts = self._colptr[cols], self._colptr[cols + 1] - self._colptr[cols]
            entries = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
            slots = np.repeat(np.arange(len(cols)) * n, counts) + self._rows[entries]
            # block.T is the Fortran-ordered (users × cols) block.
            block = np.empty((len(cols), n))
            block[:] = (0.0 - q * np.log(q))[:, None]
            # q > 0 on every selected column, so p + q > 0: no masking needed.
            m = self._mass[entries] + np.repeat(q, counts)
            block.reshape(-1)[slots] = self._plogp[entries] - m * np.log(m)
            div += block.T.sum(axis=1)
            div += float((q * np.log(2.0 * q)).sum())
        return div

    def nearest(
        self, query: Heatmap, exclude: Optional[str] = None
    ) -> Optional[Tuple[str, float]]:
        """Closest profile to *query* as ``(user, divergence)``, with
        *exclude*'s row masked; ties go to the smallest user id (first
        minimum), and ``None`` when no row is left."""
        div = self.divergences(query)
        row = bisect.bisect_left(self.users, exclude) if exclude is not None else len(div)
        if row < len(div) and self.users[row] == exclude:
            div[row] = np.inf
        if not np.isfinite(div).any():
            return None
        best = int(np.argmin(div))
        return (self.users[best], float(div[best]))
