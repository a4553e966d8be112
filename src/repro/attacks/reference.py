"""Scalar reference implementations of the attack kernels.

The vectorised hot paths (the :class:`~repro.poi.heatmap.TopsoeIndex`
behind :meth:`ApAttack.rank` and HMC's target selection, the
:class:`~repro.poi.clustering.PlaceIndex` behind :meth:`PoiAttack.rank`
and :meth:`PitAttack.rank`) replaced straightforward implementations
that are easy to audit against the papers.  Those originals live on
here, byte-for-byte, as the ground truth for:

* the equivalence property tests (``tests/test_equivalence.py``) — the
  fast kernels must reproduce these rankings *exactly*, including
  tie-break order, on randomised traces;
* the micro-benchmarks (``benchmarks/bench_micro.py`` and
  ``python -m repro bench``) — the committed ``BENCH_*.json`` speedups
  are measured against these functions, not against a remembered
  number.

:func:`fit_per_trace` fits an engine from per-trace features, the
reference for the bulk background fit, and
:func:`topsoe_divergences_reference` is the dense block kernel the
index's sparse one must match byte for byte.

They take a *fitted* attack (or HMC) and reuse its profiles, so
reference and fast path see identical training state.
:func:`best_protecting_reference` likewise takes an engine: it is the
exhaustive composition search that the bounded one must publish the
same winner as.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.ap_attack import ApAttack, _topsoe_rows
from repro.attacks.pit_attack import PIT_DISTANCES, PitAttack
from repro.attacks.poi_attack import PoiAttack
from repro.core.composition import ComposedLPPM
from repro.core.dataset import MobilityDataset
from repro.core.engine import ProtectionEngine
from repro.core.trace import Trace
from repro.geo.grid import Cell
from repro.lppm.base import LPPM
from repro.lppm.hmc import HeatmapConfusion
from repro.lppm.hybrid import is_protected
from repro.metrics.distortion import spatial_temporal_distortion
from repro.metrics.divergence import topsoe
from repro.poi.clustering import POI
from repro.poi.heatmap import Heatmap, TopsoeIndex, build_heatmap

__all__ = [
    "ap_rank_reference",
    "best_protecting_reference",
    "fit_per_trace",
    "hmc_target_reference",
    "pit_rank_reference",
    "poi_set_distance_reference",
    "poi_rank_reference",
    "rankings_equivalent",
    "topsoe_divergences_reference",
]


def rankings_equivalent(
    fast: Sequence[Tuple[str, float]],
    reference: Sequence[Tuple[str, float]],
    tol: float = 1e-9,
) -> bool:
    """True iff two rankings agree up to floating-point-degenerate ties.

    The fast kernels reorder floating-point sums, so a pair of users
    whose distances are *mathematically equal* can carry different
    last-ulp noise in the two implementations — the scalar reference
    then breaks the "tie" by that noise, while the vectorised kernel
    breaks the exact tie by user id.  Equivalence therefore means:

    * the same candidate set with distances equal within *tol* (relative);
    * identical order everywhere the reference's distance gaps exceed
      *tol* — i.e. wherever the ranking carries information, it is the
      same ranking; inside a tie group the ordering is permutable.
    """
    if len(fast) != len(reference):
        return False
    fast_by_user = dict(fast)
    if len(fast_by_user) != len(fast) or set(fast_by_user) != {
        u for u, _ in reference
    }:
        return False
    for user, dist in reference:
        if not abs(fast_by_user[user] - dist) <= tol * (1.0 + abs(dist)):
            return False
    fast_users = [u for u, _ in fast]
    i = 0
    while i < len(reference):
        j = i + 1
        while (
            j < len(reference)
            and reference[j][1] - reference[j - 1][1]
            <= tol * (1.0 + abs(reference[j][1]))
        ):
            j += 1
        if set(fast_users[i:j]) != {u for u, _ in reference[i:j]}:
            return False
        i = j
    return True


def ap_rank_reference(attack: ApAttack, trace: Trace) -> List[Tuple[str, float]]:
    """The original :meth:`ApAttack.rank`: pad the profile matrix with the
    anonymous trace's out-of-vocabulary cells and run the dense Topsoe
    kernel over the full ``(users × width)`` copy."""
    attack._require_fitted()
    users = attack.index.users
    if len(trace) == 0 or not users:
        return []
    anon = build_heatmap(trace, attack.grid)
    cell_index = {cell: j for j, cell in enumerate(attack.index.cells())}
    n_known = len(cell_index)
    extra: Dict[Cell, int] = {}
    for cell in anon.cells():
        if cell not in cell_index:
            extra.setdefault(cell, n_known + len(extra))
    width = n_known + len(extra)
    q = np.zeros(width, dtype=np.float64)
    for cell, mass in anon.items():
        q[cell_index.get(cell, extra.get(cell))] = mass
    p = np.zeros((len(users), width), dtype=np.float64)
    p[:, :n_known] = attack.profile_matrix()
    divergences = _topsoe_rows(p, q)
    order = np.argsort(divergences, kind="stable")
    return [(users[i], float(divergences[i])) for i in order]


def topsoe_divergences_reference(index: TopsoeIndex, query: Heatmap) -> np.ndarray:
    """The block kernel :meth:`TopsoeIndex.divergences` replaced: scatter
    the profile masses and their ``p ln p`` of the query's columns into
    dense Fortran-ordered ``(users × |supp(q)∩V|)`` blocks and take the
    logarithm of every entry, zeros included.  The index must return
    these bytes."""
    n = len(index.users)
    if n == 0:
        return np.zeros(0)
    qkeys, qmass = query.packed()
    col = np.minimum(np.searchsorted(index._keys, qkeys), len(index._keys) - 1)
    hit = index._keys[col] == qkeys
    q_out = 0.0
    for mass in qmass[~hit].tolist():  # one add at a time, in cell order
        q_out += mass
    div = np.full(n, float(np.log(2.0)) * (1.0 + q_out))
    if hit.any():
        cols, q = col[hit], qmass[hit]
        lo, counts = index._colptr[cols], index._colptr[cols + 1] - index._colptr[cols]
        entries = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        slots = np.repeat(np.arange(len(cols)) * n, counts) + index._rows[entries]
        p, plogp = np.zeros((2, n * len(cols)))
        p[slots], plogp[slots] = index._mass[entries], index._plogp[entries]
        m = p.reshape((n, len(cols)), order="F") + q[None, :]
        div += (plogp.reshape((n, len(cols)), order="F") - m * np.log(m)).sum(axis=1)
        div += float((q * np.log(2.0 * q)).sum())
    return div


def _union_topsoe(a: Heatmap, b: Heatmap) -> float:
    """Topsoe divergence between two heatmaps aligned on their union support."""
    cells = sorted(a.support() | b.support())
    p = np.array([a.mass(c) for c in cells])
    q = np.array([b.mass(c) for c in cells])
    return topsoe(p, q)


def hmc_target_reference(hmc: HeatmapConfusion, trace: Trace) -> List[Tuple[str, float]]:
    """The original HMC target selection, as a ranking: one scalar Topsoe
    divergence per other user's profile over the union support, sorted by
    ``(divergence, user)``.  Its head is the profile the original
    per-profile loop picked (first strict minimum in user order)."""
    own = build_heatmap(trace, hmc.grid)
    scored = [
        (user, _union_topsoe(own, profile))
        for user, profile in hmc._profiles.items()
        if user != trace.user_id
    ]
    scored.sort(key=lambda ud: (ud[1], ud[0]))
    return scored


def _directed_distance_reference(a: Sequence[POI], b: Sequence[POI]) -> float:
    """Weighted mean over *a* of the distance to the nearest POI of *b*."""
    total_w = 0.0
    acc = 0.0
    for poi in a:
        nearest = min(poi.distance_m(other) for other in b)
        acc += poi.weight * nearest
        total_w += poi.weight
    return acc / total_w if total_w > 0 else math.inf


def poi_set_distance_reference(a: Sequence[POI], b: Sequence[POI]) -> float:
    """The original pure-Python symmetrised nearest-neighbour distance."""
    if not a or not b:
        return math.inf
    return 0.5 * (
        _directed_distance_reference(a, b) + _directed_distance_reference(b, a)
    )


def poi_rank_reference(attack: PoiAttack, trace: Trace) -> List[Tuple[str, float]]:
    """The original :meth:`PoiAttack.rank`: one scalar set distance per
    profiled user, then a ``(distance, user)`` sort."""
    attack._require_fitted()
    anon = attack._extract(trace)
    if not anon:
        return []
    scored = [
        (user, poi_set_distance_reference(anon, profile))
        for user, profile in attack._profiles.items()
    ]
    scored = [(u, d) for u, d in scored if math.isfinite(d)]
    scored.sort(key=lambda ud: (ud[1], ud[0]))
    return scored


def pit_rank_reference(attack: PitAttack, trace: Trace) -> List[Tuple[str, float]]:
    """The original :meth:`PitAttack.rank`: one scalar MMC distance
    (the attack's :data:`PIT_DISTANCES` entry) per profiled user, then a
    ``(distance, user)`` sort."""
    attack._require_fitted()
    anon = attack._model(trace)
    if len(anon) == 0:
        return []
    distance_fn = PIT_DISTANCES[attack.distance_name]
    scored = [
        (user, distance_fn(anon, known))
        for user, known in attack._profiles.items()
    ]
    scored = [(u, d) for u, d in scored if math.isfinite(d)]
    scored.sort(key=lambda ud: (ud[1], ud[0]))
    return scored


def best_protecting_reference(
    engine: ProtectionEngine,
    trace: Trace,
    mechanisms: Sequence[ComposedLPPM],
    prefixes: Optional[Dict[Tuple[LPPM, ...], Trace]] = None,
) -> Optional[Tuple[Trace, str, float]]:
    """The original :meth:`ProtectionEngine._best_protecting`: attack
    every candidate, then keep the lowest-STD protecting one (first on a
    tie).  Counts one :attr:`~ProtectionEngine.evaluations` per attacked
    candidate and feeds the engine's search strategy as the original did.
    Candidates come from :meth:`ProtectionEngine._candidate` with the
    search's *prefixes*, so this is a drop-in for ``_best_protecting``."""
    ordered = list(mechanisms)
    strategy = engine.search_strategy
    if strategy is not None:
        by_name = {m.name: m for m in mechanisms}
        ordered = [by_name[n] for n in strategy.order(list(by_name))]
    best: Optional[Tuple[Trace, str, float]] = None
    for mech in ordered:
        candidate = engine._candidate(trace, mech, prefixes)
        if len(candidate) == 0:
            continue
        engine.evaluations += 1
        protected = is_protected(candidate, trace.user_id, engine.attacks)
        if strategy is not None:
            strategy.record_outcome(mech.name, protected)
        if not protected:
            continue
        distortion = spatial_temporal_distortion(trace, candidate)
        if best is None or distortion < best[2]:
            best = (candidate, mech.name, distortion)
        if strategy is not None and strategy.stop_at_first_success:
            break
    return best


def fit_per_trace(engine: ProtectionEngine, background: MobilityDataset) -> ProtectionEngine:
    """Fit the unfitted *engine* from features built one trace at a time.

    Every background trace's merged places (:func:`extract_pois` then
    :func:`merge_nearby_pois`), MMC (:func:`build_mmc`) and heatmap
    (:func:`build_heatmap`) go into the engine's feature cache through
    the attacks' per-trace methods, the protect path's; :meth:`fit` then
    finds them all cached and only assembles profiles and indexes.  A
    fit through the bulk kernels must leave the same fitted state.  The
    engine's cache must hold the whole background (four entries per
    trace) or the fit rebuilds evicted features in bulk.
    """
    for trace in background.traces():
        for attack in engine.attacks:
            if isinstance(attack, PitAttack):
                attack._model(trace)
            elif isinstance(attack, PoiAttack):
                attack._extract(trace)
            elif isinstance(attack, ApAttack) and len(trace) > 0:
                attack._heatmap(trace)
    return engine.fit(background)
