"""Mobility-profile substrates: POIs, Mobility Markov Chains, heatmaps.

These three models (illustrated in Figure 1 of the paper) are the
building blocks of the re-identification attacks and of the HMC LPPM.
"""

from repro.poi.clustering import POI, extract_pois, extract_pois_many
from repro.poi.heatmap import Heatmap, TopsoeIndex, build_heatmap, build_heatmaps
from repro.poi.mmc import MarkovChain, build_mmc

__all__ = [
    "POI",
    "extract_pois",
    "extract_pois_many",
    "Heatmap",
    "build_heatmap",
    "build_heatmaps",
    "TopsoeIndex",
    "MarkovChain",
    "build_mmc",
]
