"""AP-attack [22] (Maouche et al.): heatmap matching with Topsoe divergence.

The strongest known re-identification attack in the paper's evaluation.
Each user's past mobility is aggregated into an 800 m-cell heatmap; an
anonymous trace is attributed to the known user whose heatmap minimises
the Topsoe divergence.

This is the hot path of MooD's composition search (every candidate
composition is attacked), so the profiles live in a fitted
:class:`~repro.poi.heatmap.TopsoeIndex`: a query touches only the
profile columns the anonymous trace actually visits, plus a closed-form
correction for the rest (the decomposition is documented there).  HMC
selects its confusion target with the same index.

:meth:`ApAttack.top1` skips even the final sort: the ``is_protected``
inner loop needs one argmin, not a ranking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.base import Attack
from repro.registry import register_attack
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.geo.grid import MetricGrid
from repro.poi.heatmap import Heatmap, TopsoeIndex, build_heatmap, build_heatmaps

_EPS = 1e-12


@register_attack("ap")
class ApAttack(Attack):
    """Re-identification by heatmap similarity."""

    name = "AP-attack"

    def __init__(self, cell_size_m: float = 800.0, ref_lat: float = 45.0) -> None:
        super().__init__()
        self.grid = MetricGrid(cell_size_m, ref_lat=ref_lat)
        self._profiles: Dict[str, Heatmap] = {}
        #: The fitted profile index.
        self.index = TopsoeIndex({})

    def _build_profiles(self, background: MobilityDataset) -> None:
        traces = [t for t in background.traces() if len(t) > 0]
        heatmaps = self._cached_many(
            "heatmap",
            traces,
            (self.grid.cell_size_m, self.grid.ref_lat),
            lambda missing: build_heatmaps(missing, self.grid),
        )
        self._profiles = dict(zip((t.user_id for t in traces), heatmaps))
        self.index = TopsoeIndex(self._profiles)

    supports_refit = True

    def refit(self, delta: MobilityDataset) -> "ApAttack":
        """Replace the profiles of *delta*'s users (dropping users whose
        delta trace is empty) and rebuild the index from the updated
        profiles: exactly what a full :meth:`fit` builds."""
        self._require_fitted()
        for trace in delta.traces():
            if len(trace) > 0:
                self._profiles[trace.user_id] = self._heatmap(trace)
            else:
                self._profiles.pop(trace.user_id, None)
        self.index = TopsoeIndex(self._profiles)
        return self

    @property
    def _users(self) -> Tuple[str, ...]:
        return self.index.users

    def _heatmap(self, trace: Trace) -> Heatmap:
        return self._cached(
            "heatmap",
            trace,
            (self.grid.cell_size_m, self.grid.ref_lat),
            lambda: build_heatmap(trace, self.grid),
        )

    def profile_matrix(self) -> np.ndarray:
        """The (users × cells) profile matrix, columns in ``index.cells()`` order."""
        self._require_fitted()
        return self.index.dense()

    def _divergences(self, trace: Trace) -> Optional[np.ndarray]:
        """Topsoe divergence of *trace* against every profile row.

        ``None`` when no hypothesis can be formed (empty trace or no
        profiles); otherwise one value per user of :attr:`_users`.
        """
        self._require_fitted()
        if len(trace) == 0 or not self.index.users:
            return None
        return self.index.divergences(self._heatmap(trace))

    def rank(self, trace: Trace) -> List[Tuple[str, float]]:
        divergences = self._divergences(trace)
        if divergences is None:
            return []
        order = np.argsort(divergences, kind="stable")
        return [(self._users[i], float(divergences[i])) for i in order]

    def top1(self, trace: Trace) -> Optional[Tuple[str, float]]:
        """Argmin fast path: no full sort, no ranking list.

        The index returns the first minimum over users in sorted order, so
        ties break on the smallest user id — exactly like the stable sort
        in :meth:`rank`.
        """
        self._require_fitted()
        if len(trace) == 0:
            return None
        return self.index.nearest(self._heatmap(trace))


def _topsoe_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Topsoe divergence of each row of *p* against the vector *q*.

    ``T(p, q) = Σ p ln(2p/(p+q)) + q ln(2q/(p+q))`` with 0·ln(0/x) = 0.

    Retained as the scalar-reference kernel for the equivalence tests
    and benchmarks (see :mod:`repro.attacks.reference`); the query path
    uses the decomposition in :class:`~repro.poi.heatmap.TopsoeIndex`.
    """
    m = p + q[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        left = p * np.log(2.0 * p / np.maximum(m, _EPS))
        right = q[None, :] * np.log(2.0 * q[None, :] / np.maximum(m, _EPS))
    left = np.where(p > _EPS, left, 0.0)
    right = np.where(q[None, :] > _EPS, right, 0.0)
    return (left + right).sum(axis=1)
