"""Core data model and the MooD protection engine."""

from repro.core.composition import (
    ComposedLPPM,
    composition_count,
    enumerate_compositions,
)
from repro.core.dataset import MobilityDataset
from repro.core.engine import (
    DEFAULT_CHUNK_S,
    DEFAULT_DELTA_S,
    EvaluationReport,
    HybridEvaluation,
    LppmEvaluation,
    MoodEvaluation,
    MoodResult,
    ProtectedPiece,
    ProtectionEngine,
    ProtectionReport,
)
from repro.core.record import Record
from repro.core.search import (
    CompositionSearchStrategy,
    ExhaustiveSearch,
    GreedySuccessSearch,
)
from repro.core.split import (
    most_active_window,
    split_fixed_time,
    split_in_half,
    split_on_gaps,
    train_test_split,
)
from repro.core.trace import Trace, merge_traces

__all__ = [
    "Record",
    "Trace",
    "merge_traces",
    "MobilityDataset",
    "split_in_half",
    "split_fixed_time",
    "split_on_gaps",
    "most_active_window",
    "train_test_split",
    "ComposedLPPM",
    "composition_count",
    "enumerate_compositions",
    "MoodResult",
    "ProtectedPiece",
    "ProtectionEngine",
    "ProtectionReport",
    "EvaluationReport",
    "DEFAULT_DELTA_S",
    "DEFAULT_CHUNK_S",
    "CompositionSearchStrategy",
    "ExhaustiveSearch",
    "GreedySuccessSearch",
    "LppmEvaluation",
    "HybridEvaluation",
    "MoodEvaluation",
]
