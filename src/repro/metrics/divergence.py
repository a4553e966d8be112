"""Divergences between discrete distributions.

The AP-attack compares heatmaps with the Topsoe divergence [13], a
symmetrised Kullback-Leibler variant equal to twice the Jensen-Shannon
divergence.  The functions here accept aligned probability vectors; the
attacks use the sparse kernel :class:`repro.poi.heatmap.TopsoeIndex`.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def _validate(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise ValueError(f"distributions must be aligned, got shapes {p.shape} vs {q.shape}")
    if np.any(p < -_EPS) or np.any(q < -_EPS):
        raise ValueError("distributions must be non-negative")


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence ``KL(p || q)`` in nats.

    Terms where ``p == 0`` contribute nothing; terms where ``q == 0`` but
    ``p > 0`` diverge, so callers should smooth or use a bounded
    divergence (Topsoe / Jensen-Shannon) for heatmaps with disjoint
    support.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _validate(p, q)
    mask = p > _EPS
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], _EPS))))


def jensen_shannon(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence (bounded by ``ln 2``, symmetric)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _validate(p, q)
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)


def topsoe(p: np.ndarray, q: np.ndarray) -> float:
    """Topsoe divergence: ``2 * JS(p, q)``, bounded by ``2 ln 2``.

    This is the heatmap distance used by the AP-attack [22].
    """
    return 2.0 * jensen_shannon(p, q)
