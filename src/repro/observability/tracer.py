"""Span-based tracer with Chrome trace-event (Perfetto) export.

Every pipeline stage opens a span through a context manager::

    with get_tracer().span("search", levels=3) as sp:
        ...
        sp.set(candidates=result.candidates_total)

Completed spans become ``ph: "X"`` (complete) events in the Chrome
trace-event format; :meth:`Tracer.instant` emits ``ph: "i"`` markers.
The resulting JSON (:meth:`Tracer.to_chrome`) loads directly in
Perfetto / ``chrome://tracing``.

Two backends share the interface:

* :class:`Tracer` — records events (timestamps from a monotonic clock,
  microseconds relative to the tracer's epoch, one timeline per thread);
* :class:`NullTracer` — the zero-overhead disabled backend.  Its
  :meth:`~NullTracer.span` returns a shared singleton whose
  ``__enter__``/``__exit__`` do nothing: the cost of a disabled span is
  two trivial method calls and no allocation (asserted by
  ``benchmarks/bench_observability_overhead.py``).

The recording backend keeps its events in a ring of
:data:`~repro.config.DEFAULT_TRACE_CAPACITY` events — a server traces
every request for its whole life — and counts what the ring drops.
Every export declares the drop: :meth:`Tracer.tail_info` adds it to its
count, and the Chrome document carries a ``dropped_events`` metadata
record once anything was dropped.

On span exit the tracer also feeds the active metrics registry a
``stage_ms.<name>`` histogram observation, so per-stage wall time shows
up in ``repro stats`` without separate timing code at every call site.

**Distributed trace context.**  A W3C-traceparent-style context —
``trace_id`` (32 hex chars) plus a parent ``span_id`` (16 hex chars) —
can be activated on a tracer with :meth:`Tracer.trace_context`.  While a
context is active on a thread, every span records ``trace_id`` /
``span_id`` / ``parent_span_id`` in its args and nested spans parent
onto the enclosing span, so fragments recorded in different processes
can be stitched back into one tree (:mod:`.stitch`) by following the
span ids across the wire.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional, Set, Tuple

from ..config import DEFAULT_TRACE_CAPACITY

#: Histogram buckets (milliseconds) for per-stage wall-time metrics.
#: Fixed and deterministic so snapshots are comparable across runs.
STAGE_MS_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (W3C traceparent width)."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh 16-hex-char span id (W3C traceparent width)."""
    return secrets.token_hex(8)


def is_valid_trace_id(value: Any) -> bool:
    return (
        isinstance(value, str)
        and len(value) == 32
        and all(c in "0123456789abcdef" for c in value)
    )


class _NullSpan:
    """The span handle of the disabled backend: every method is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, **args: Any) -> None:
        pass

    def event(self, name: str, **args: Any) -> None:
        pass


#: Shared singleton: a disabled span never allocates.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled backend: accepts the full tracer API, records nothing."""

    enabled = False

    def span(self, name: str, cat: str = "pipeline", **args: Any) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, cat: str = "pipeline", **args: Any) -> None:
        pass

    def events(self) -> List[Dict[str, Any]]:
        return []

    def tail(self, limit: int = 100) -> List[Dict[str, Any]]:
        return []

    def tail_info(self, limit: int = 100) -> Tuple[List[Dict[str, Any]], int]:
        return [], 0

    def span_names(self) -> Set[str]:
        return set()

    def events_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        return []

    @contextmanager
    def trace_context(
        self, trace_id: Optional[str], parent_span_id: Optional[str] = None
    ) -> Iterator[None]:
        yield


#: Shared singleton installed whenever tracing is off.
NULL_TRACER = NullTracer()


class _Span:
    """A live span: open on ``__enter__``, recorded on ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start", "span_id")

    def __init__(
        self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0
        self.span_id: Optional[str] = None

    def __enter__(self) -> "_Span":
        self._start = self._tracer._now_us()
        ctx = self._tracer._context_stack()
        if ctx:
            trace_id, parent = ctx[-1]
            self.span_id = new_span_id()
            self.args["trace_id"] = trace_id
            self.args["span_id"] = self.span_id
            if parent is not None:
                self.args["parent_span_id"] = parent
            ctx.append((trace_id, self.span_id))
        return self

    def set(self, **args: Any) -> None:
        """Attach result attributes to the span (shown in Perfetto)."""
        self.args.update(args)

    def event(self, name: str, **args: Any) -> None:
        """Emit an instant event nested under this span's timeline."""
        self._tracer.instant(name, cat=self.cat, **args)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        end = self._tracer._now_us()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        if self.span_id is not None:
            ctx = self._tracer._context_stack()
            if ctx and ctx[-1][1] == self.span_id:
                ctx.pop()
        self._tracer._record(self, end)
        return False


class Tracer:
    """The recording backend: a bounded ring of the most recent events."""

    enabled = True

    def __init__(self) -> None:
        self._events: Deque[Dict[str, Any]] = deque(
            maxlen=DEFAULT_TRACE_CAPACITY
        )
        #: Events the ring has dropped since the tracer was created.
        self.dropped = 0
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        # Wall-clock time of the epoch (microseconds since the Unix
        # epoch): lets the stitcher rebase fragments from different
        # processes onto one shared timeline.
        self.epoch_unix_us = time.time() * 1e6
        self._local = threading.local()

    # -- distributed trace context ----------------------------------------

    def _context_stack(self) -> List[Tuple[str, Optional[str]]]:
        stack = getattr(self._local, "ctx", None)
        if stack is None:
            stack = self._local.ctx = []
        return stack

    @contextmanager
    def trace_context(
        self, trace_id: Optional[str], parent_span_id: Optional[str] = None
    ) -> Iterator[None]:
        """Activate a distributed trace context on the calling thread.

        Spans opened while the context is active carry ``trace_id`` /
        ``span_id`` / ``parent_span_id`` args and nest onto each other;
        the outermost span parents onto ``parent_span_id`` (the caller's
        span in another process, or ``None`` for a trace root).
        ``trace_id=None`` activates nothing, so a caller with an
        optional trace needs no untraced twin of its body.
        """
        if trace_id is None:
            yield
            return
        stack = self._context_stack()
        stack.append((trace_id, parent_span_id))
        depth = len(stack)
        try:
            yield
        finally:
            # Unwind to where we were even if a span leaked (e.g. an
            # exception escaped between __enter__ and __exit__).
            del stack[depth - 1:]

    def current_context(self) -> Optional[Tuple[str, Optional[str]]]:
        """The (trace_id, active span_id) pair, or ``None``."""
        stack = self._context_stack()
        return stack[-1] if stack else None

    # -- recording ---------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def span(self, name: str, cat: str = "pipeline", **args: Any) -> _Span:
        return _Span(self, name, cat, args)

    def _record(self, span: _Span, end_us: float) -> None:
        event = {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span._start,
            "dur": end_us - span._start,
            "pid": 1,
            "tid": threading.get_ident() & 0xFFFF,
        }
        if span.args:
            event["args"] = dict(span.args)
        self._append(event)
        # Per-stage wall time flows into the metrics registry so one
        # instrumentation point serves both backends.
        from .state import get_metrics

        metrics = get_metrics()
        if metrics.enabled:
            metrics.histogram(
                f"stage_ms.{span.name}", STAGE_MS_BUCKETS
            ).observe((end_us - span._start) / 1e3)

    def instant(self, name: str, cat: str = "pipeline", **args: Any) -> None:
        ctx = self._context_stack()
        if ctx:
            trace_id, parent = ctx[-1]
            args["trace_id"] = trace_id
            if parent is not None:
                args["parent_span_id"] = parent
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": self._now_us(),
            "pid": 1,
            "tid": threading.get_ident() & 0xFFFF,
        }
        if args:
            event["args"] = dict(args)
        self._append(event)

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)

    # -- export ------------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot of every retained event, in completion order."""
        with self._lock:
            return list(self._events)

    def tail(self, limit: int = 100) -> List[Dict[str, Any]]:
        """The most recent events (embedded in failure reports)."""
        with self._lock:
            return list(self._events)[-limit:]

    def tail_info(self, limit: int = 100) -> Tuple[List[Dict[str, Any]], int]:
        """The most recent events plus how many older ones were dropped
        (by this tail's limit or by the ring).

        Failure reports embed this so a truncated tail declares itself
        (``trace_truncated`` / ``trace_dropped_events``) instead of
        silently looking complete.
        """
        with self._lock:
            dropped = self.dropped + max(0, len(self._events) - limit)
            return list(self._events)[-limit:], dropped

    def events_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Events recorded under a distributed trace context."""
        with self._lock:
            return [
                e
                for e in self._events
                if e.get("args", {}).get("trace_id") == trace_id
            ]

    def span_names(self) -> Set[str]:
        """Distinct names of completed spans (pipeline-stage coverage)."""
        with self._lock:
            return {e["name"] for e in self._events if e["ph"] == "X"}

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event document of the retained events; a
        ``dropped_events`` metadata record declares any the ring lost."""
        with self._lock:
            events = list(self._events)
            dropped = self.dropped
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "repro pipeline"},
            }
        ]
        if dropped:
            metadata.append({
                "name": "dropped_events",
                "ph": "M",
                "pid": 1,
                "args": {"dropped_events": dropped},
            })
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> str:
        """Write the Chrome trace JSON artifact; returns the path."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle, indent=2)
            handle.write("\n")
        return path


def validate_chrome_trace(document: Dict[str, Any]) -> List[str]:
    """Structural checks a Perfetto-loadable trace must pass.

    Returns a list of problems (empty when valid).  Used by the tests and
    the CLI so a malformed artifact is caught at write time, not when a
    user drags it into the viewer.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "s", "f"):
            problems.append(f"event {i} has unsupported phase {ph!r}")
            continue
        if ph == "M":
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i} has no name")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} has bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} has bad dur {dur!r}")
        if ph in ("s", "f"):
            # Flow events pair a start with a finish through a shared id
            # (the stitcher uses them for cross-process parent links).
            if not isinstance(event.get("id"), (str, int)):
                problems.append(f"event {i} flow has no id")
    return problems
