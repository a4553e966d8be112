"""Tests for the worker announcer and the membership subscription."""

import time

import pytest

from repro.cluster import ClusterAnnouncer, MembershipSubscription
from repro.errors import ConfigurationError
from repro.service.api import ProtectionService
from repro.service.rpc import ServiceServer

from tests.cluster.test_elastic import mk_engine


def wait_until(predicate, timeout=5.0, tick=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(tick)
    return False


@pytest.fixture
def coordinator():
    service = ProtectionService(mk_engine())
    server = ServiceServer(service, port=0)
    host, port = server.start_background()
    yield service, f"{host}:{port}"
    server.stop_background()


def member_state(service, endpoint):
    _, entries = service.cluster.snapshot()
    for entry in entries:
        if entry["endpoint"] == endpoint:
            return entry["state"]
    return None


class TestSubscriptionValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            MembershipSubscription("not an endpoint")
        with pytest.raises(ConfigurationError):
            MembershipSubscription("127.0.0.1:1", poll_s=0.0)
        with pytest.raises(ConfigurationError):
            MembershipSubscription("127.0.0.1:1", timeout=-1.0)
        with pytest.raises(ConfigurationError, match="poll_s"):
            MembershipSubscription("127.0.0.1:1", poll_s=True)

    def test_announcer_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterAnnouncer("127.0.0.1:1", "127.0.0.1:2", heartbeat_s=0.0)
        # True and 1.5 used to be coerced to 1.0 s and a capacity of 1.
        with pytest.raises(ConfigurationError, match="must be positive"):
            ClusterAnnouncer("127.0.0.1:1", "127.0.0.1:2", heartbeat_s=True)
        with pytest.raises(ConfigurationError, match="capacity"):
            ClusterAnnouncer("127.0.0.1:1", "127.0.0.1:2", capacity=1.5)
        with pytest.raises(ConfigurationError):
            ClusterAnnouncer("@@@", "127.0.0.1:2")


class TestAnnouncer:
    def test_join_heartbeat_and_graceful_leave(self, coordinator):
        service, endpoint = coordinator
        announcer = ClusterAnnouncer(
            endpoint, "127.0.0.1:9100", worker_id="w0", heartbeat_s=0.05
        ).start()
        try:
            assert wait_until(
                lambda: member_state(service, "127.0.0.1:9100") == "alive"
            )
            assert wait_until(lambda: announcer.heartbeats >= 2)
            assert announcer.joined
        finally:
            announcer.stop()
        # Graceful departure: the registry shows the leave.
        assert member_state(service, "127.0.0.1:9100") == "left"
        assert not announcer.joined

    def test_rejoins_after_coordinator_forgets(self, coordinator):
        """A heartbeat answered known=False (registry wiped, e.g. a
        coordinator restart) triggers an immediate re-join."""
        service, endpoint = coordinator
        announcer = ClusterAnnouncer(
            endpoint, "127.0.0.1:9101", heartbeat_s=0.05
        ).start()
        try:
            assert wait_until(
                lambda: member_state(service, "127.0.0.1:9101") == "alive"
            )
            attempts = announcer.join_attempts
            service.cluster.leave("127.0.0.1:9101")
            service.cluster.prune(max_age_s=10**9)  # forget it entirely
            assert wait_until(
                lambda: member_state(service, "127.0.0.1:9101") == "alive"
            )
            assert announcer.join_attempts > attempts
        finally:
            announcer.stop()

    def test_unreachable_coordinator_is_absorbed(self):
        announcer = ClusterAnnouncer(
            "127.0.0.1:1", "127.0.0.1:9102", heartbeat_s=0.02
        ).start()
        try:
            time.sleep(0.1)
            assert not announcer.joined
        finally:
            announcer.stop()

    def test_start_is_idempotent(self, coordinator):
        service, endpoint = coordinator
        announcer = ClusterAnnouncer(endpoint, "127.0.0.1:9103", heartbeat_s=0.05)
        try:
            assert announcer.start() is announcer.start()
            assert wait_until(lambda: announcer.joined)
        finally:
            announcer.stop()
            announcer.stop()  # stop is idempotent too
