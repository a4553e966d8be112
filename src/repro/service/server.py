"""The crowdsensing collection server.

Receives pseudonymised, protected sub-traces from the proxy and serves
the aggregate queries that motivate the campaign (paper §3.4/§4.6:
count-style analyses such as noise or pollution mapping).  The server
never sees raw data, so its query results quantify the *utility* that
survives protection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.errors import InvalidRecordError
from repro.geo.grid import Cell, MetricGrid
from repro.poi.heatmap import pack_cells, unpack_cells


def _cell_counts(grid: MetricGrid, lats: np.ndarray, lngs: np.ndarray) -> Dict[Cell, int]:
    """Records per grid cell, in cell order.  Raises
    :class:`InvalidRecordError` on a non-finite coordinate, which
    :meth:`MetricGrid.cells_of` would map to a garbage cell."""
    if not (np.isfinite(lats).all() and np.isfinite(lngs).all()):
        raise InvalidRecordError("cannot count a record with a non-finite coordinate")
    keys, counts = np.unique(pack_cells(*grid.cells_of(lats, lngs)), return_counts=True)
    ix, iy = unpack_cells(keys)
    return dict(zip(map(Cell, ix.tolist(), iy.tolist()), counts.tolist()))


@dataclass
class ServerStats:
    uploads: int = 0
    records: int = 0
    distinct_pseudonyms: int = 0


class CollectionServer:
    """Stores published sub-traces and answers spatial count queries."""

    def __init__(self, grid: Optional[MetricGrid] = None) -> None:
        self.grid = grid or MetricGrid(cell_size_m=800.0)
        self._traces: List[Trace] = []
        self._cell_counts: Dict[Cell, int] = {}
        self._pseudonyms: set = set()
        # Incremental counters: ``stats`` is read on every service
        # round-trip, so it must not rescan all stored traces.
        self._uploads = 0
        self._records = 0

    def receive(self, trace: Trace) -> None:
        """Ingest one published sub-trace.

        Raises :class:`InvalidRecordError` on a non-finite coordinate
        before any state changes.
        """
        counts = _cell_counts(self.grid, trace.lats, trace.lngs)
        self._traces.append(trace)
        self._pseudonyms.add(trace.user_id)
        self._uploads += 1
        self._records += len(trace)
        for cell, n in counts.items():
            self._cell_counts[cell] = self._cell_counts.get(cell, 0) + n

    @property
    def stats(self) -> ServerStats:
        return ServerStats(
            uploads=self._uploads,
            records=self._records,
            distinct_pseudonyms=len(self._pseudonyms),
        )

    # -- analytics queries -------------------------------------------------

    def count_in_cell(self, lat: float, lng: float) -> int:
        """Count query: records observed in the cell containing a point."""
        return self._cell_counts.get(self.grid.cell_of(lat, lng), 0)

    def top_cells(self, k: int) -> List[Tuple[Cell, int]]:
        """The *k* busiest cells (e.g. a congestion map)."""
        return sorted(self._cell_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def density_correlation(self, reference: MobilityDataset) -> float:
        """Pearson correlation between collected and true per-cell counts.

        This is the utility readout of the deployment experiment: how
        faithfully a count-query analysis over the protected uploads
        matches the same analysis over the raw data.
        """
        traces = list(reference)
        true_counts = _cell_counts(
            self.grid,
            np.concatenate([np.zeros(0)] + [t.lats for t in traces]),
            np.concatenate([np.zeros(0)] + [t.lngs for t in traces]),
        )
        cells = sorted(set(true_counts) | set(self._cell_counts))
        if len(cells) < 2:
            return 1.0
        a = np.array([true_counts.get(c, 0) for c in cells], dtype=np.float64)
        b = np.array([self._cell_counts.get(c, 0) for c in cells], dtype=np.float64)
        if np.array_equal(a, b):
            return 1.0
        if a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    def as_dataset(self, name: str = "collected") -> MobilityDataset:
        """All received sub-traces as a dataset (for attack audits)."""
        out = MobilityDataset(name)
        for trace in self._traces:
            out.add(trace)
        return out
