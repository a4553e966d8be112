"""Location Privacy Protection Mechanisms (paper §2.3 and §4.1.2)."""

from repro.lppm.base import LPPM
from repro.lppm.cloaking import SpatialCloaking
from repro.lppm.geoi import GeoInd
from repro.lppm.hmc import HeatmapConfusion
from repro.lppm.hybrid import HybridLPPM, HybridResult, is_protected
from repro.lppm.identity import Identity
from repro.lppm.promesse import Promesse
from repro.lppm.trl import Trilateration

__all__ = [
    "LPPM",
    "Identity",
    "GeoInd",
    "Trilateration",
    "HeatmapConfusion",
    "Promesse",
    "SpatialCloaking",
    "HybridLPPM",
    "HybridResult",
    "is_protected",
]


def default_lppm_suite(past_traces=None, ref_lat: float = 45.0):
    """The paper's three LPPMs with their §4.1.2 parameters.

    HMC requires users' past traces to learn candidate target heatmaps;
    pass *past_traces* to get a fitted instance, or ``None`` to receive
    an unfitted one (it must be fitted before use).
    """
    hmc = HeatmapConfusion(cell_size_m=800.0, ref_lat=ref_lat)
    if past_traces is not None:
        hmc.fit(past_traces)
    return [GeoInd(epsilon=0.01), Trilateration(radius_m=1000.0), hmc]


def extended_lppm_suite(past_traces=None, ref_lat: float = 45.0):
    """The paper's three LPPMs plus Promesse [28] and spatial cloaking.

    Paper §6: "MooD can be extended by using state-of-the-art LPPMs" —
    with n = 5 the composition search grows to Σ n!/(n−i)! = 325
    candidates; the ablation bench measures the cost/benefit.
    """
    return default_lppm_suite(past_traces, ref_lat) + [
        Promesse(epsilon_m=200.0),
        SpatialCloaking(cell_size_m=400.0, ref_lat=ref_lat),
    ]
