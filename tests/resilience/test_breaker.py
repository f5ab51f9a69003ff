"""Circuit breaker state machine: every transition, zero sleeps.

The breaker's clock is injectable, so open-state cooldowns advance by
mutating a fake clock — the whole suite runs in milliseconds.  The
router-level tests at the bottom drive the same transitions through
``FleetRouter.probe_backends`` with the deterministic fault injector
deciding which probes fail, proving the dispatch/probe plumbing feeds
the breaker the way the unit tests assume.
"""

import pytest

from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(
        failure_threshold=3, reset_timeout_s=10.0, clock=clock
    )


class TestClosedState:
    def test_starts_closed_and_available(self, breaker):
        assert breaker.state == BREAKER_CLOSED
        assert breaker.available()
        assert breaker.consecutive_failures == 0

    def test_failures_below_threshold_stay_closed(self, breaker):
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state == BREAKER_CLOSED
        assert breaker.consecutive_failures == 2
        assert breaker.available()

    def test_success_resets_the_failure_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        # Closing an already-closed breaker is not a readmission.
        assert breaker.record_success() is False
        assert breaker.consecutive_failures == 0
        # The count restarts: two more failures still don't trip it.
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_begin_probe_is_a_no_op_while_closed(self, breaker):
        assert breaker.begin_probe() is False
        assert breaker.state == BREAKER_CLOSED


class TestTripping:
    def test_threshold_consecutive_failures_trip_it_open(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        # Exactly the tripping failure reports True.
        assert breaker.record_failure() is True
        assert breaker.state == BREAKER_OPEN
        assert breaker.opened_count == 1

    def test_open_breaker_unavailable_until_cooldown(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.available()
        clock.advance(9.9)
        assert not breaker.available()
        clock.advance(0.2)  # past reset_timeout_s
        assert breaker.available()

    def test_failure_while_open_restarts_the_cooldown(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(9.0)
        # A late failure (a last-resort dispatch that also failed) is
        # not a new trip, but it does push the half-open probe back.
        assert breaker.record_failure() is False
        assert breaker.opened_count == 1
        clock.advance(9.0)
        assert not breaker.available()
        clock.advance(1.1)
        assert breaker.available()


class TestHalfOpen:
    def trip(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.1)

    def test_begin_probe_needs_the_cooldown(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.begin_probe() is False  # still cooling down
        clock.advance(10.1)
        assert breaker.begin_probe() is True
        assert breaker.state == BREAKER_HALF_OPEN

    def test_closed_to_open_to_half_open_to_closed(self, breaker, clock):
        """The readmission path: the PR's headline state walk."""
        self.trip(breaker, clock)
        assert breaker.begin_probe() is True
        # The successful probe readmits: record_success reports it.
        assert breaker.record_success() is True
        assert breaker.state == BREAKER_CLOSED
        assert breaker.available()
        # Fully healthy again: the failure count restarted.
        assert breaker.record_failure() is False
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_failure_reopens(self, breaker, clock):
        self.trip(breaker, clock)
        assert breaker.begin_probe() is True
        # One failed trial re-opens immediately (no threshold count).
        assert breaker.record_failure() is True
        assert breaker.state == BREAKER_OPEN
        assert breaker.opened_count == 2
        # And the cooldown restarted from the re-open.
        assert not breaker.available()
        clock.advance(10.1)
        assert breaker.available()

    def test_half_open_is_available_for_dispatch(self, breaker, clock):
        self.trip(breaker, clock)
        breaker.begin_probe()
        assert breaker.available()


class TestReporting:
    def test_describe_snapshot(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(4.0)
        snap = breaker.describe()
        assert snap["state"] == BREAKER_OPEN
        assert snap["opened_count"] == 1
        assert snap["closed_count"] == 0
        assert snap["open_age_s"] == pytest.approx(4.0)
        breaker.record_success()
        snap = breaker.describe()
        assert snap["state"] == BREAKER_CLOSED
        assert snap["closed_count"] == 1
        assert snap["open_age_s"] is None

    def test_state_codes_cover_every_state(self):
        assert BREAKER_STATE_CODES == {
            BREAKER_CLOSED: 0,
            BREAKER_HALF_OPEN: 1,
            BREAKER_OPEN: 2,
        }

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=-1.0)


class TestRouterDrivenTransitions:
    """The same walk, driven through the router's probe plumbing with
    the deterministic fault injector deciding which probes fail."""

    def make_router(self, clock):
        from repro.resilience.fleet_chaos import ChaosBackend
        from repro.service.fleet import FleetConfig, FleetRouter
        from repro.service.service import CompileService, ServiceConfig

        service = CompileService(
            ServiceConfig(cache_dir=None),
            compile_fn=lambda req, digest: None,
        )
        from repro.service.fleet import LocalBackend

        victim = ChaosBackend(LocalBackend("b0", service))
        router = FleetRouter(
            [victim],
            FleetConfig(
                probe_interval_s=0.0,  # no thread: tests drive probes
                breaker_failure_threshold=2,
                breaker_reset_timeout_s=5.0,
                clock=clock,
            ),
        )
        return router, victim

    def test_probe_failures_trip_and_probe_success_readmits(self, clock):
        router, victim = self.make_router(clock)
        try:
            breaker = router._breakers["b0"]
            assert router.probe_backends() == {"b0": True}

            # Deterministic fault: the victim dies (kill persists until
            # restart), so probes start failing.
            victim._killed = True
            assert router.probe_backends() == {"b0": False}
            assert breaker.state == BREAKER_CLOSED  # 1 of 2 failures
            assert router.probe_backends() == {"b0": False}
            assert breaker.state == BREAKER_OPEN  # tripped
            assert not victim.alive()  # trip marked it dead
            assert router.stats()["breaker_opened"] == 1

            # Cooling down: the prober skips the backend entirely.
            probes_before = router.stats()["probes"]
            assert router.probe_backends() == {"b0": False}
            assert router.stats()["probes"] == probes_before

            # Cooldown elapses -> half-open trial; still dead -> reopen.
            clock.advance(5.1)
            assert router.probe_backends() == {"b0": False}
            assert breaker.state == BREAKER_OPEN
            assert breaker.opened_count == 2

            # Restart the backend; the next eligible probe readmits it.
            victim.restart()
            clock.advance(5.1)
            assert router.probe_backends() == {"b0": True}
            assert breaker.state == BREAKER_CLOSED
            assert victim.alive()
            assert router.stats()["readmissions"] >= 1
            stats = router.stats()["backends"]["b0"]
            assert stats["breaker"]["state"] == BREAKER_CLOSED
            assert stats["alive"] is True
        finally:
            router.close()
