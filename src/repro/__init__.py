"""repro — a reproduction of MooD (Middleware '19).

MooD is a user-centric, fine-grained, multi-LPPM middleware that
protects mobility traces against user re-identification attacks.  This
package provides the full system: the mobility data model, POI/MMC/
heatmap profiling, three re-identification attacks, three LPPMs plus the
HybridLPPM baseline, the MooD engine, utility/privacy metrics, synthetic
stand-ins for the four evaluation datasets, a crowdsensing deployment
simulator, and the experiment harnesses that regenerate every table and
figure of the paper.

Quickstart::

    from repro import (
        ProtectionConfig, ProtectionEngine,
        generate_dataset, train_test_split,
    )

    raw = generate_dataset("privamov", seed=42)
    background, to_share = train_test_split(raw)
    engine = ProtectionEngine.from_config(ProtectionConfig()).fit(background)
    result = engine.protect(to_share.traces()[0])
    print(result.fully_protected, result.mean_distortion_m())

    # or over the whole dataset, in parallel:
    report = engine.protect_dataset(to_share)

Every component (LPPM, attack, split policy, search strategy, executor)
is registry-backed — see :mod:`repro.registry` — so the engine can also
be rebuilt from a JSON config file alone (``docs/API.md``).
"""

from repro.attacks import (
    NO_GUESS,
    ApAttack,
    Attack,
    PitAttack,
    PoiAttack,
    default_attack_suite,
)
from repro.config import ProtectionConfig
from repro.core import (
    ComposedLPPM,
    EvaluationReport,
    MobilityDataset,
    MoodResult,
    ProtectedPiece,
    ProtectionEngine,
    ProtectionReport,
    Record,
    Trace,
    composition_count,
    enumerate_compositions,
    merge_traces,
    most_active_window,
    split_fixed_time,
    split_in_half,
    split_on_gaps,
    train_test_split,
)
from repro.datasets import DATASET_NAMES, generate_dataset
from repro.errors import ReproError
from repro.lppm import (
    GeoInd,
    HeatmapConfusion,
    HybridLPPM,
    Identity,
    LPPM,
    Trilateration,
    default_lppm_suite,
)
from repro.metrics import (
    data_loss,
    distortion_buckets,
    spatial_temporal_distortion,
    topsoe,
)
from repro.registry import available, build, register, spec_of

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # data model
    "Record",
    "Trace",
    "merge_traces",
    "MobilityDataset",
    "split_in_half",
    "split_fixed_time",
    "split_on_gaps",
    "most_active_window",
    "train_test_split",
    # LPPMs
    "LPPM",
    "Identity",
    "GeoInd",
    "Trilateration",
    "HeatmapConfusion",
    "HybridLPPM",
    "default_lppm_suite",
    # attacks
    "Attack",
    "PoiAttack",
    "PitAttack",
    "ApAttack",
    "default_attack_suite",
    "NO_GUESS",
    # protection engine
    "ProtectionConfig",
    "ProtectionEngine",
    "ProtectionReport",
    "EvaluationReport",
    "MoodResult",
    "ProtectedPiece",
    "ComposedLPPM",
    "composition_count",
    "enumerate_compositions",
    # registries
    "register",
    "build",
    "available",
    "spec_of",
    # metrics
    "spatial_temporal_distortion",
    "distortion_buckets",
    "data_loss",
    "topsoe",
    # datasets
    "DATASET_NAMES",
    "generate_dataset",
]
