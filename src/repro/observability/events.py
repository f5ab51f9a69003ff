"""Bounded structured event log for control-plane transitions.

The fleet's *data plane* (compile requests) is instrumented with spans
and metrics that can be switched off for zero overhead.  The *control
plane* — breaker transitions, reroutes, deadline sheds, store
quarantines, queue rejections, degraded compiles — is different: those
transitions are rare (they happen when something is already going
wrong), each one is exactly what an operator needs to see, and losing
them because observability was off defeats the point.  So the event
log is always on and bounded: a fixed-capacity ring that counts what it
drops.

Every event is a flat JSON object::

    {"seq": 17, "ts": 1754650000.123, "kind": "breaker_open",
     "backend": "b1", "failures": 3}

``seq`` is a process-wide monotonically increasing sequence number, so a
follower (``repro fleet events --follow``) polls ``/v1/events?since=N``
and never sees an event twice; ``ts`` is Unix wall-clock seconds.  When
an event refers to a request it carries its ``trace_id``, linking the
control-plane record to the stitched data-plane trace.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..config import DEFAULT_EVENT_LOG_CAPACITY

#: Event kinds emitted by the service tiers and the compile pipeline
#: (the schema's closed vocabulary; documented in docs/observability.md).
EVENT_KINDS = (
    "breaker_open",
    "breaker_half_open",
    "breaker_closed",
    "backend_readmitted",
    "reroute",
    "deadline_shed",
    "queue_rejected",
    "quarantine",
    "fallback_mapping",
    "unoptimized_plan",
)


class EventLog:
    """Thread-safe bounded ring of structured events."""

    def __init__(self, capacity: int = DEFAULT_EVENT_LOG_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_seq = 0
        self._dropped = 0

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the stored record (with seq/ts).

        ``kind`` must come from :data:`EVENT_KINDS` — a closed
        vocabulary is what keeps the event schema documentable and the
        ``--follow`` feed greppable.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; "
                f"known: {', '.join(EVENT_KINDS)}"
            )
        event: Dict[str, Any] = {"kind": kind, "ts": time.time()}
        event.update(fields)
        with self._lock:
            event["seq"] = self._next_seq
            self._next_seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)
        return event

    def snapshot(self, since: Optional[int] = None) -> Dict[str, Any]:
        """Events with ``seq > since`` (all retained when ``since=None``).

        The envelope carries ``next_seq`` (pass it back as ``since`` to
        poll incrementally) and ``dropped`` (events lost to the ring
        bound since process start).
        """
        with self._lock:
            if since is None:
                events: List[Dict[str, Any]] = list(self._events)
            else:
                events = [e for e in self._events if e["seq"] > since]
            return {
                "events": events,
                "next_seq": self._next_seq,
                "dropped": self._dropped,
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        """Drop everything and reset counters (tests only)."""
        with self._lock:
            self._events.clear()
            self._next_seq = 0
            self._dropped = 0


#: Process-wide log: servers expose it at /v1/events, the router and the
#: service emit into it, chaos campaigns assert against it.
_EVENT_LOG = EventLog()


def get_event_log() -> EventLog:
    return _EVENT_LOG


def emit_event(kind: str, **fields: Any) -> Dict[str, Any]:
    """Convenience wrapper over the process-wide log."""
    return _EVENT_LOG.emit(kind, **fields)
