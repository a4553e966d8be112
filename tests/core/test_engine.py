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

        assert {"serial", "process", "sharded"} <= set(available("executor"))

    @pytest.mark.parametrize(
        "executor",
        [
            "process",
            {"name": "sharded", "shards": 2},
            {"name": "sharded", "shards": 3},
        ],
        ids=lambda e: e if isinstance(e, str) else "-".join(
            str(v) for v in e.values()
        ),
    )
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

    def test_sharded_placement_does_not_depend_on_jobs(self, monkeypatch):
        """Satellite regression: `shards` used to be clamped by the worker
        budget (`os.cpu_count()` when jobs is unset), so the shard a user
        landed on silently varied across hosts.  Now `shards` is pure
        placement: every mod-`shards` bucket stays intact on one pool,
        whatever the budget."""
        import multiprocessing

        from repro.core.engine import ShardedExecutor, _shard_of

        captured = []
        original_pool = multiprocessing.Pool

        def tracking_pool(processes, *args, **kwargs):
            pool = original_pool(processes, *args, **kwargs)
            original_map_async = pool.map_async

            def capturing_map_async(fn, items, *a, **kw):
                captured.append(list(items))
                return original_map_async(fn, items, *a, **kw)

            pool.map_async = capturing_map_async
            return pool

        monkeypatch.setattr(multiprocessing, "Pool", tracking_pool)
        engine = ProtectionEngine([_Shift("strong", 0.3)], [_ThresholdAttack(0.2)])
        ds = MobilityDataset("toy")
        for i in range(12):
            ds.add(_trace(f"u{i}"))
        # jobs=3 does not divide shards=8: under the old clamp the
        # partition modulus silently became 3 and mod-8 buckets split.
        ShardedExecutor(jobs=3, shards=8).map(engine, "protect", ds.traces(), {})
        assert len(captured) == 3
        pool_of_shard = {}
        for pool_index, items in enumerate(captured):
            for item in items:
                shard = _shard_of(item.user_id, 8)
                # Every mod-8 bucket lives wholly on one pool.
                assert pool_of_shard.setdefault(shard, pool_index) == pool_index
        # The corpus actually spans more shards than pools, so the test
        # would catch a modulus clamped to the pool count.
        assert len(pool_of_shard) > 3

    def test_invalid_executor_params_rejected(self):
        from repro.core.engine import (
            ProcessExecutor,
            RemoteExecutor,
            SerialExecutor,
            ShardedExecutor,
        )

        with pytest.raises(ConfigurationError):
            ShardedExecutor(shards=0)
        # jobs is None or an int >= 1, shards an int >= 1: negatives used
        # to crash (sharded) or run serially (process), and bools and
        # floats used to be truncated instead of rejected.
        endpoints = ["127.0.0.1:1"]
        for bad in (
            lambda: ShardedExecutor(jobs=-1),
            lambda: ShardedExecutor(shards=2.7),
            lambda: ShardedExecutor(shards=True),
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
        for executor in (
            {"name": "sharded", "jobs": -1},
            {"name": "process", "jobs": -3},
            {"name": "sharded", "shards": 2.7},
            {"name": "sharded", "shards": 0},
            {"name": "sharded", "shard": 4},
        ):
            with pytest.raises(ConfigurationError):
                ProtectionEngine.from_config(ProtectionConfig(executor=executor))

    def test_sharded_worker_budget_is_capped_by_jobs(self, monkeypatch):
        """shards > jobs must not spawn more than `jobs` processes."""
        import multiprocessing

        from repro.core.engine import ShardedExecutor

        spawned = []
        original_pool = multiprocessing.Pool

        def tracking_pool(processes, *args, **kwargs):
            spawned.append(processes)
            return original_pool(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", tracking_pool)
        engine = ProtectionEngine([_Shift("strong", 0.3)], [_ThresholdAttack(0.2)])
        ds = MobilityDataset("toy")
        for i in range(6):
            ds.add(_trace(f"u{i}"))
        # jobs=1: shards collapse to 1 → pure serial, no pools at all.
        report = ShardedExecutor(jobs=1, shards=8).map(
            engine, "protect", ds.traces(), {}
        )
        assert len(report) == 6 and spawned == []
        # jobs=2, shards=8: at most 2 worker processes in total.
        report = ShardedExecutor(jobs=2, shards=8).map(
            engine, "protect", ds.traces(), {}
        )
        assert len(report) == 6 and sum(spawned) <= 2

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
