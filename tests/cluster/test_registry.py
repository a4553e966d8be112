"""Tests for the coordinator's membership registry."""

import time

import pytest

from repro.cluster import (
    STATE_ALIVE,
    STATE_LEFT,
    STATE_STALE,
    ClusterRegistry,
    canonical_endpoint,
)
from repro.errors import ConfigurationError


def entry_of(registry, endpoint):
    _, entries = registry.snapshot()
    for entry in entries:
        if entry["endpoint"] == endpoint:
            return entry
    raise AssertionError(f"{endpoint} not in snapshot: {entries}")


class TestCanonicalEndpoint:
    def test_tcp_and_unix_spellings(self):
        assert canonical_endpoint("127.0.0.1:7464") == "127.0.0.1:7464"
        assert canonical_endpoint("unix:/tmp/w.sock") == "unix:/tmp/w.sock"

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_endpoint("not an endpoint")
        with pytest.raises(ConfigurationError):
            canonical_endpoint("host:notaport")


class TestJoinLeaveHeartbeat:
    def test_join_bumps_epoch_once(self):
        registry = ClusterRegistry()
        assert registry.epoch == 0
        epoch, rejoined = registry.join("127.0.0.1:9001", worker_id="w0")
        assert (epoch, rejoined) == (1, False)
        assert len(registry) == 1
        # Idempotent rejoin of an alive member: liveness refresh only,
        # no epoch bump (heartbeat-by-rejoin is cheap).
        epoch, rejoined = registry.join("127.0.0.1:9001")
        assert (epoch, rejoined) == (1, False)
        assert registry.epoch == 1

    def test_leave_then_rejoin_gets_fresh_epoch(self):
        registry = ClusterRegistry()
        registry.join("127.0.0.1:9001")
        assert registry.leave("127.0.0.1:9001", reason="bye")
        assert registry.epoch == 2
        assert entry_of(registry, "127.0.0.1:9001")["state"] == STATE_LEFT
        assert len(registry) == 0
        epoch, rejoined = registry.join("127.0.0.1:9001")
        assert (epoch, rejoined) == (3, True)
        assert entry_of(registry, "127.0.0.1:9001")["state"] == STATE_ALIVE

    def test_leave_unknown_or_left_member_is_false(self):
        registry = ClusterRegistry()
        assert not registry.leave("127.0.0.1:9001")
        registry.join("127.0.0.1:9001")
        assert registry.leave("127.0.0.1:9001")
        assert not registry.leave("127.0.0.1:9001")
        # Garbage endpoints never poison the table.
        assert not registry.leave("@@@")
        assert registry.epoch == 2

    def test_heartbeat_refreshes_and_reports_unknown(self):
        registry = ClusterRegistry()
        assert not registry.heartbeat("127.0.0.1:9001")
        registry.join("127.0.0.1:9001")
        assert registry.heartbeat("127.0.0.1:9001", inflight=5)
        assert entry_of(registry, "127.0.0.1:9001")["inflight"] == 5
        # Heartbeats do not bump the epoch: subscribers diff on change.
        assert registry.epoch == 1
        registry.leave("127.0.0.1:9001")
        assert not registry.heartbeat("127.0.0.1:9001")
        assert not registry.heartbeat("@@@")


class TestStalenessAndPrune:
    def test_silent_member_reports_stale_but_schedulable(self):
        registry = ClusterRegistry(stale_after_s=0.05)
        registry.join("127.0.0.1:9001")
        assert entry_of(registry, "127.0.0.1:9001")["state"] == STATE_ALIVE
        time.sleep(0.08)
        entry = entry_of(registry, "127.0.0.1:9001")
        assert entry["state"] == STATE_STALE
        assert entry["age_s"] > 0.0
        assert registry.alive() == ["127.0.0.1:9001"]
        # A heartbeat brings it straight back to alive.
        registry.heartbeat("127.0.0.1:9001")
        assert entry_of(registry, "127.0.0.1:9001")["state"] == STATE_ALIVE

    def test_prune_drops_left_and_silent_members(self):
        registry = ClusterRegistry(stale_after_s=0.05)
        registry.join("127.0.0.1:9001")
        registry.join("127.0.0.1:9002")
        registry.leave("127.0.0.1:9002")
        time.sleep(0.08)
        epoch_before = registry.epoch
        assert registry.prune() == 2
        assert registry.epoch == epoch_before + 1
        assert registry.snapshot()[1] == ()
        # Pruning an empty table is a no-op, epoch included.
        assert registry.prune() == 0
        assert registry.epoch == epoch_before + 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterRegistry(stale_after_s=0.0)
        with pytest.raises(ConfigurationError, match="must be positive"):
            ClusterRegistry(stale_after_s="15")
        registry = ClusterRegistry()
        with pytest.raises(ConfigurationError):
            registry.join("not an endpoint")


class TestSnapshot:
    def test_snapshot_is_join_ordered_and_open_dict(self):
        registry = ClusterRegistry()
        registry.join("127.0.0.1:9002", worker_id="b", capacity=2)
        registry.join("127.0.0.1:9001", worker_id="a", capacity=1)
        epoch, entries = registry.snapshot()
        assert epoch == 2
        assert [e["endpoint"] for e in entries] == [
            "127.0.0.1:9002",
            "127.0.0.1:9001",
        ]
        for entry in entries:
            assert set(entry) >= {
                "endpoint",
                "worker_id",
                "capacity",
                "state",
                "joined_epoch",
                "inflight",
                "age_s",
            }
