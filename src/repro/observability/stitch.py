"""Stitch per-process trace fragments into one Perfetto-loadable trace.

A fleet request crosses processes: the router records a ``fleet.request``
span, the backend it dispatched to records ``service.request`` /
``service.execute`` spans, and a failover adds fragments from more
backends.  Each process's :class:`~repro.observability.Tracer`
records its own timeline (its own pid-1 namespace, its own monotonic
epoch), so the raw fragments are disconnected.

The stitcher rebuilds one trace:

* each fragment becomes its own ``pid`` with a ``process_name`` metadata
  event (router, backend names), so Perfetto renders one track group per
  process;
* timestamps are rebased onto a shared wall-clock timeline using each
  tracer's ``epoch_unix_us`` (recorded at tracer creation), so spans
  from different processes line up;
* cross-process parent links — a span whose ``parent_span_id`` lives in
  a *different* fragment — become Chrome flow events (``ph: "s"`` at the
  parent span, ``ph: "f"``/``bp: "e"`` at the child), which Perfetto
  draws as arrows between the process tracks.

Fragments are plain JSON (the ``/v1/trace/<id>?raw=1`` payload)::

    {"process": "backend-0", "epoch_unix_us": 1.7e15, "events": [...]}
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional


def make_fragment(
    process: str,
    events: Iterable[Mapping[str, Any]],
    epoch_unix_us: Optional[float] = None,
) -> Dict[str, Any]:
    """The wire form of one process's share of a distributed trace."""
    return {
        "process": process,
        "epoch_unix_us": epoch_unix_us,
        "events": [dict(e) for e in events],
    }


def _span_id_of(event: Mapping[str, Any]) -> Optional[str]:
    return event.get("args", {}).get("span_id")


def _parent_span_id_of(event: Mapping[str, Any]) -> Optional[str]:
    return event.get("args", {}).get("parent_span_id")


def stitch_fragments(
    fragments: List[Mapping[str, Any]],
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Merge fragments into one Chrome trace-event document.

    Fragment order is preserved: the first fragment (conventionally the
    router) gets pid 1, the next pid 2, and so on.  Returns a document
    that passes :func:`~repro.observability.validate_chrome_trace` and
    loads in Perfetto with cross-process parent links drawn as flows.
    """
    out: List[Dict[str, Any]] = []
    # Rebase onto the earliest fragment epoch so the merged timeline
    # starts near zero.  A fragment without an epoch (older server)
    # keeps its local timeline — spans stay correct per process, only
    # cross-process alignment degrades.
    epochs = [
        f.get("epoch_unix_us")
        for f in fragments
        if f.get("epoch_unix_us") is not None
    ]
    base = min(epochs) if epochs else None

    # First pass: assign pids, rebase timestamps, index spans by id.
    spans_by_id: Dict[str, Dict[str, Any]] = {}
    pid_by_span: Dict[str, int] = {}
    rebased: List[Dict[str, Any]] = []
    for index, fragment in enumerate(fragments):
        pid = index + 1
        offset = 0.0
        epoch = fragment.get("epoch_unix_us")
        if base is not None and epoch is not None:
            offset = epoch - base
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": str(fragment.get("process", f"p{pid}"))},
            }
        )
        for event in fragment.get("events", []):
            copy = dict(event)
            copy["pid"] = pid
            if isinstance(copy.get("ts"), (int, float)):
                copy["ts"] = copy["ts"] + offset
            rebased.append(copy)
            span_id = _span_id_of(copy)
            if span_id is not None and copy.get("ph") == "X":
                spans_by_id[span_id] = copy
                pid_by_span[span_id] = pid

    out.extend(rebased)

    # Second pass: a span whose parent lives in another fragment gets a
    # flow arrow from the parent slice to the child slice.
    for event in rebased:
        if event.get("ph") != "X":
            continue
        parent_id = _parent_span_id_of(event)
        if parent_id is None:
            continue
        parent = spans_by_id.get(parent_id)
        if parent is None or pid_by_span[parent_id] == event["pid"]:
            continue
        flow_id = _span_id_of(event) or f"flow-{id(event)}"
        common = {"name": "parent", "cat": "trace", "id": flow_id}
        out.append(
            {
                **common,
                "ph": "s",
                "ts": parent["ts"],
                "pid": parent["pid"],
                "tid": parent.get("tid", 1),
            }
        )
        out.append(
            {
                **common,
                "ph": "f",
                "bp": "e",
                "ts": event["ts"],
                "pid": event["pid"],
                "tid": event.get("tid", 1),
            }
        )

    document: Dict[str, Any] = {
        "traceEvents": out,
        "displayTimeUnit": "ms",
    }
    if trace_id is not None:
        document["traceId"] = trace_id
    return document


def cross_process_links(document: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The flow-event pairs of a stitched document (for assertions)."""
    events = document.get("traceEvents", [])
    starts = {e["id"]: e for e in events if e.get("ph") == "s"}
    links: List[Dict[str, Any]] = []
    for event in events:
        if event.get("ph") != "f":
            continue
        start = starts.get(event.get("id"))
        if start is not None:
            links.append(
                {
                    "id": event["id"],
                    "from_pid": start["pid"],
                    "to_pid": event["pid"],
                }
            )
    return links
