"""Tests for repro.core.engine — the unified protection engine.

Covers the declarative path (config JSON → engine → cascade), the
executor backends (serial vs. process determinism), the unified
``evaluate`` API, and the public ``search_whole_trace``/``finalize``
hooks.
"""

import json

import numpy as np
import pytest

from repro.attacks import NO_GUESS
from repro.config import ProtectionConfig
from repro.core.dataset import MobilityDataset
from repro.core.engine import (
    EvaluationReport,
    ProtectionEngine,
    ProtectionReport,
)
from repro.core.search import GreedySuccessSearch
from repro.core.split import train_test_split
from repro.core.trace import Trace
from repro.datasets.generators import generate_dataset
from repro.datasets.io import save_csv
from repro.errors import ConfigurationError
from repro.lppm.base import LPPM
from repro.lppm.identity import Identity


class _Shift(LPPM):
    """Deterministic test LPPM: shift latitude by a constant."""

    def __init__(self, name="shift", dlat=0.2):
        self.name = name
        self.dlat = dlat

    def apply(self, trace, rng=None):
        return trace.with_positions(trace.lats + self.dlat, trace.lngs)


class _Erase(LPPM):
    """Test LPPM whose output is always empty."""

    name = "erase"

    def apply(self, trace, rng=None):
        return Trace.empty(trace.user_id)


class _ThresholdAttack:
    """Re-identifies unless the latitude moved by at least *threshold*."""

    name = "atk"

    def __init__(self, threshold=0.1):
        self.threshold = threshold

    def reidentify(self, trace):
        if len(trace) and float(np.mean(trace.lats)) - 45.0 >= self.threshold:
            return "<confused>"
        return trace.user_id


def _trace(user="u", n=30):
    return Trace(user, np.arange(n) * 600.0, np.full(n, 45.0), np.full(n, 4.0))


@pytest.fixture(scope="module")
def tiny_split():
    """A small generated corpus split into background/test."""
    raw = generate_dataset("privamov", seed=11, n_users=6, days=6)
    return train_test_split(raw, train_days=3, test_days=3)


class TestFromConfig:
    def test_engine_from_json_alone_runs_end_to_end(self, tiny_split, tmp_path):
        """Acceptance: the full cascade from a JSON file, no hand-built objects."""
        train, test = tiny_split
        path = tmp_path / "run.json"
        ProtectionConfig(seed=3).to_file(path)
        with open(path) as f:
            cfg = ProtectionConfig.from_dict(json.load(f))
        engine = ProtectionEngine.from_config(cfg).fit(train)
        report = engine.evaluate("mood", test)
        assert isinstance(report, EvaluationReport)
        assert set(report.users()) == set(test.user_ids())
        assert 0.0 <= report.data_loss() <= 1.0
        published = report.published_dataset()
        # Published ids are pseudonyms, never raw user ids.
        assert all("#" in u for u in published.user_ids())

    def test_from_config_builds_strategy_and_policy(self):
        cfg = ProtectionConfig(
            search_strategy={"name": "greedy", "alpha": 2.0}, split_policy="gap"
        )
        engine = ProtectionEngine.from_config(cfg)
        assert isinstance(engine.search_strategy, GreedySuccessSearch)
        assert engine.search_strategy.alpha == 2.0

    def test_fit_is_idempotent_on_fitted_components(self, micro_ctx):
        engine = micro_ctx.engine()
        assert engine.fit(micro_ctx.train) is engine

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ProtectionEngine([], [_ThresholdAttack()])
        with pytest.raises(ConfigurationError):
            ProtectionEngine([_Shift()], [])
        with pytest.raises(ConfigurationError):
            ProtectionEngine([_Shift()], [_ThresholdAttack()], split_policy="zigzag")
        with pytest.raises(ConfigurationError):
            ProtectionEngine([_Shift()], [_ThresholdAttack()], jobs=0)
        with pytest.raises(ConfigurationError, match="delta_s"):
            ProtectionEngine([_Shift()], [_ThresholdAttack()], delta_s=float("nan"))
        # Checked as ProtectionConfig.validate checks them, never coerced:
        # coercion would run seed 2.7 as 2, build no chain for a length of
        # True or 0, and run delta_s=True as 1 s.
        bad = [
            ("seed", 2.7),
            ("seed", True),
            ("seed", "5"),
            ("max_composition_length", True),
            ("max_composition_length", 0),
            ("max_composition_length", 2.5),
            ("delta_s", True),
            ("delta_s", "5"),
        ]
        for key, value in bad:
            with pytest.raises(ConfigurationError, match=key):
                ProtectionEngine([_Shift()], [_ThresholdAttack()], **{key: value})
            with pytest.raises(ConfigurationError, match=key):
                ProtectionConfig(**{key: value}).validate()
        engine = ProtectionEngine([_Shift()], [_ThresholdAttack()], delta_s=float("inf"))
        assert engine.delta_s == float("inf")


@pytest.fixture(scope="module")
def serial_published(tiny_split, tmp_path_factory):
    """The serial-backend published dataset: the byte-level reference."""
    train, test = tiny_split
    engine = ProtectionEngine.from_config(ProtectionConfig(seed=5)).fit(train)
    report = engine.evaluate("mood", test)
    path = tmp_path_factory.mktemp("published") / "serial.csv"
    save_csv(report.published_dataset(), path)
    return path.read_bytes(), report.non_protected(), engine.evaluations


class TestExecutorDeterminism:
    def test_all_backends_registered(self):
        from repro.registry import available

        assert set(available("executor")) == {"serial", "process", "remote"}

    @pytest.mark.parametrize("executor", ["process"])
    def test_every_executor_matches_serial_byte_for_byte(
        self, tiny_split, tmp_path, serial_published, executor
    ):
        """Acceptance: every registered backend publishes the identical dataset."""
        train, test = tiny_split
        reference_bytes, reference_non_protected, reference_evaluations = (
            serial_published
        )
        base = ProtectionConfig(seed=5).to_dict()
        parallel = ProtectionEngine.from_config(
            ProtectionConfig.from_dict({**base, "executor": executor, "jobs": 2})
        ).fit(train)

        report = parallel.evaluate("mood", test)
        path = tmp_path / "parallel.csv"
        save_csv(report.published_dataset(), path)
        assert path.read_bytes() == reference_bytes
        assert report.non_protected() == reference_non_protected
        # The evaluation counter is reconciled from the worker deltas.
        assert parallel.evaluations == reference_evaluations

    def test_process_executor_reports_the_serial_feature_cache_counts(self, micro_ctx):
        """Pool workers count in their own copies of the feature cache;
        the parent adds each task's deltas to the engine's cache."""
        counts = []
        for executor in ("serial", {"name": "process", "jobs": 2}):
            engine = micro_ctx.engine(executor=executor)
            cache = engine.feature_cache
            cache.clear()  # both runs start cold
            before = (engine.evaluations, cache.hits, cache.misses, cache.evictions)
            engine.protect_dataset(micro_ctx.test)
            after = (engine.evaluations, cache.hits, cache.misses, cache.evictions)
            counts.append(tuple(b - a for a, b in zip(before, after)))
        serial, process = counts
        assert serial[2] > 0 and serial[1] > 0
        assert process == serial

    def test_sharded_assignment_is_stable(self):
        from repro.core.engine import _shard_of

        first = [_shard_of(f"user{i}", 4) for i in range(32)]
        assert first == [_shard_of(f"user{i}", 4) for i in range(32)]
        assert all(0 <= s < 4 for s in first)
        assert len(set(first)) > 1  # users actually spread across shards

    def test_partition_ignores_worker_budget_and_host(self):
        """Satellite regression: the logical partition is a pure function
        of item content and the shard modulus — never of cpu_count."""
        from repro.core.engine import _partition_items, _shard_of

        traces = [_trace(f"user{i}") for i in range(20)]
        buckets = _partition_items(traces, 8)
        assert buckets == _partition_items(traces, 8)
        for shard, bucket in buckets.items():
            for idx, item in bucket:
                assert _shard_of(item.user_id, 8) == shard
                assert traces[idx] is item
        assert sum(len(b) for b in buckets.values()) == len(traces)

    def test_invalid_executor_params_rejected(self):
        from repro.core.engine import ProcessExecutor, RemoteExecutor, SerialExecutor

        endpoints = ["127.0.0.1:1"]
        with pytest.raises(ConfigurationError):
            RemoteExecutor(endpoints, shards=0)
        # jobs is None or an int >= 1, shards an int >= 1: negatives used
        # to run serially (process), and bools and floats used to be
        # truncated instead of rejected.
        for bad in (
            lambda: RemoteExecutor(endpoints, jobs=-1),
            lambda: RemoteExecutor(endpoints, shards=True),
            lambda: ProcessExecutor(jobs=-3),
            lambda: ProcessExecutor(jobs=2.5),
            lambda: SerialExecutor(jobs=0),
            lambda: RemoteExecutor(endpoints, jobs=1.5),
            lambda: RemoteExecutor(endpoints, jobs=True),
            lambda: RemoteExecutor(endpoints, shards=2.7),
            lambda: ProtectionEngine([_Shift()], [_ThresholdAttack()], jobs=2.5),
            lambda: ProtectionEngine([_Shift()], [_ThresholdAttack()], jobs=False),
        ):
            with pytest.raises(ConfigurationError, match="must be >= 1"):
                bad()
        # The engine builds its executor up front, so a config carrying a
        # bad spec fails at construction, not at the first batch.
        remote = {"name": "remote", "endpoints": endpoints}
        for executor in (
            {**remote, "jobs": -1},
            {"name": "process", "jobs": -3},
            {**remote, "shards": 2.7},
            {**remote, "shards": 0},
            {"name": "process", "shard": 4},
        ):
            with pytest.raises(ConfigurationError):
                ProtectionEngine.from_config(ProtectionConfig(executor=executor))

    def test_protect_dataset_reports(self):
        lppms = [_Shift("strong", 0.3)]
        engine = ProtectionEngine(lppms, [_ThresholdAttack(0.2)])
        ds = MobilityDataset("toy")
        for i in range(4):
            ds.add(_trace(f"u{i}"))
        report = engine.protect_dataset(ds)
        assert isinstance(report, ProtectionReport)
        assert set(report.results) == set(ds.user_ids())
        assert report.evaluations > 0
        assert report.wall_time_s >= 0.0
        assert report.users_per_second > 0.0
        assert report.non_protected() == set()

    def test_stateful_strategy_falls_back_to_serial(self):
        engine = ProtectionEngine(
            [_Shift("strong", 0.3)],
            [_ThresholdAttack(0.2)],
            search_strategy="greedy",
            executor="process",
            jobs=2,
        )
        ds = MobilityDataset("toy")
        ds.add(_trace("u0"))
        ds.add(_trace("u1"))
        with pytest.warns(RuntimeWarning, match="serial"):
            report = engine.protect_dataset(ds)
        assert report.non_protected() == set()


class TestUnifiedEvaluate:
    def test_unknown_strategy_rejected(self, micro_ctx):
        with pytest.raises(ConfigurationError):
            micro_ctx.engine().evaluate("quantum", micro_ctx.test)

    def test_lppm_strategy_resolves_by_name_and_spec(self, micro_ctx):
        engine = micro_ctx.engine()
        by_name = engine.evaluate("lppm", micro_ctx.test, lppm="Geo-I").result
        assert by_name.lppm_name == "Geo-I"
        by_spec = engine.evaluate(
            "lppm", micro_ctx.test, lppm={"name": "identity"}
        ).result
        assert by_spec.lppm_name == "no-LPPM"

    def test_lppm_strategy_resolves_registry_slug_to_engine_instance(self, micro_ctx):
        # 'geoi' (slug) must pick the engine's own fitted/configured
        # mechanism, never silently build a fresh default one.
        engine = micro_ctx.engine()
        assert engine._resolve_lppm("geoi") is engine._resolve_lppm("Geo-I")
        with pytest.raises(ConfigurationError, match="engine's LPPMs"):
            engine.evaluate("lppm", micro_ctx.test, lppm="promesse")

    def test_report_unified_accessors(self, micro_ctx):
        engine = micro_ctx.engine()
        report = engine.evaluate("lppm", micro_ctx.test, lppm=Identity())
        assert report.protected() | report.non_protected() == report.users()
        # Record-level loss for all-or-nothing strategies needs the corpus.
        with pytest.raises(ConfigurationError):
            report.data_loss()
        assert 0.0 <= report.data_loss(micro_ctx.test) <= 1.0
        with pytest.raises(ConfigurationError):
            report.published_dataset()

    def test_per_attack_readout_rejected_outside_lppm(self, micro_ctx):
        report = micro_ctx.engine().evaluate("mood", micro_ctx.test, composition_only=True)
        with pytest.raises(ConfigurationError, match="lppm"):
            report.non_protected(["POI-attack"])

    def test_lppm_evaluation_does_not_inflate_candidate_counter(self):
        engine = ProtectionEngine([_Shift("strong", 0.3)], [_ThresholdAttack(0.2)])
        ds = MobilityDataset("toy")
        ds.add(_trace("u0"))
        engine.evaluate("lppm", ds)
        assert engine.evaluations == 0

    def test_no_guess_sentinel_for_empty_obfuscation(self):
        engine = ProtectionEngine([_Erase()], [_ThresholdAttack()])
        ds = MobilityDataset("toy")
        ds.add(_trace("u0"))
        ev = engine.evaluate("lppm", ds, lppm=_Erase()).result
        assert ev.guesses["u0"]["atk"] == NO_GUESS
        assert ev.non_protected() == set()
        assert ev.distortions["u0"] == float("inf")


class TestPublicHooks:
    """Satellite: the private-API leak is sealed by public methods."""

    def test_search_whole_trace_and_finalize(self):
        engine = ProtectionEngine([_Shift("strong", 0.3)], [_ThresholdAttack(0.2)])
        piece = engine.search_whole_trace(_trace())
        assert piece is not None
        assert piece.mechanism == "strong"
        result = engine.protect(_trace())
        assert result.pieces[0].pseudonym == "u#0"
