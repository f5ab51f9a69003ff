"""Per-backend circuit breaker for the fleet's self-healing membership.

The breaker is a three-state machine guarding dispatch to one backend:

``closed``
    Healthy.  Requests flow; consecutive failures are counted and reset
    on any success.  ``failure_threshold`` consecutive failures trip the
    breaker open.
``open``
    Unhealthy.  The backend is demoted to last resort in the routing
    order.  After ``reset_timeout_s`` the breaker becomes eligible for a
    single half-open probe.
``half-open``
    One probe in flight (the background prober's health check, or a
    last-resort dispatch).  Success closes the breaker — the backend is
    readmitted — while failure re-opens it and restarts the reset clock.

The clock is injectable so state transitions can be tested with a fake
clock and zero sleeps; production uses ``time.monotonic``.  All methods
are thread-safe: the router's dispatchers and the background prober
both record into the same breaker.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..config import (
    DEFAULT_BREAKER_FAILURE_THRESHOLD,
    DEFAULT_BREAKER_RESET_TIMEOUT_S,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "BREAKER_STATE_CODES",
    "CircuitBreaker",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Numeric encoding for the breaker-state gauge (metrics can only carry
#: numbers): closed=0, half-open=1, open=2 — "bigger is worse".
BREAKER_STATE_CODES: Dict[str, int] = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


class CircuitBreaker:
    def __init__(
        self,
        failure_threshold: int = DEFAULT_BREAKER_FAILURE_THRESHOLD,
        reset_timeout_s: float = DEFAULT_BREAKER_RESET_TIMEOUT_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        # Lifetime transition counters, surfaced in stats.
        self._opened_count = 0
        self._closed_count = 0

    # -- inspection (non-mutating) ------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    @property
    def opened_count(self) -> int:
        with self._lock:
            return self._opened_count

    def available(self) -> bool:
        """Whether dispatch should prefer this backend.

        Closed and half-open breakers are available; an open breaker
        becomes available again once its reset timeout has elapsed (the
        next request or probe acts as the half-open trial).  Purely an
        ordering hint — the router still uses open backends as a last
        resort, and every outcome is recorded either way.
        """
        with self._lock:
            if self._state != BREAKER_OPEN:
                return True
            return self._reset_elapsed_locked()

    def _reset_elapsed_locked(self) -> bool:
        if self._opened_at is None:
            return True
        return self._clock() - self._opened_at >= self.reset_timeout_s

    # -- transitions ---------------------------------------------------

    def begin_probe(self) -> bool:
        """Move an open breaker whose reset timeout has elapsed into
        half-open, reserving the single trial.  Returns True when the
        caller holds the probe slot (also for already-half-open), False
        when the breaker is closed (no probe needed) or still cooling
        down."""
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                return True
            if self._state == BREAKER_OPEN and self._reset_elapsed_locked():
                self._state = BREAKER_HALF_OPEN
                return True
            return False

    def record_success(self) -> bool:
        """Record a successful request or probe.  Returns True when this
        success *closed* a non-closed breaker (i.e. the backend was just
        readmitted)."""
        with self._lock:
            readmitted = self._state != BREAKER_CLOSED
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._opened_at = None
            if readmitted:
                self._closed_count += 1
            return readmitted

    def record_failure(self) -> bool:
        """Record a failed request or probe.  Returns True when this
        failure *opened* the breaker (tripped from closed, or re-opened
        a half-open trial)."""
        with self._lock:
            now = self._clock()
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_OPEN
                self._opened_at = now
                self._opened_count += 1
                return True
            if self._state == BREAKER_OPEN:
                # Still failing while open: restart the reset clock so
                # probes back off instead of hammering a down backend.
                self._opened_at = now
                return False
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._state = BREAKER_OPEN
                self._opened_at = now
                self._opened_count += 1
                return True
            return False

    # -- reporting -----------------------------------------------------

    def describe(self) -> Dict[str, object]:
        with self._lock:
            age = (
                None
                if self._opened_at is None
                else max(0.0, self._clock() - self._opened_at)
            )
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opened_count": self._opened_count,
                "closed_count": self._closed_count,
                "open_age_s": age,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures})"
        )
