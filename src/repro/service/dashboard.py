"""Terminal dashboard for the compile fleet (``repro fleet top``).

The renderer is a pure function from the two scrape payloads —
``/v1/stats`` (router counters, per-backend dispatch accounting,
breaker state, last-probe load) and ``/v1/metrics`` (the merged
fleet-wide registry snapshot with histogram exemplars) — to one block
of text, so tests can pin the layout against fixture payloads without
a server.  The polling loop around it is the only part that touches
the network or the terminal.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from .. import config as _config
from ..observability.aggregate import histogram_quantile

#: ANSI: clear screen + home.  Emitted once per refresh so the display
#: repaints in place instead of scrolling.
CLEAR = "\x1b[2J\x1b[H"

#: The latency histogram the dashboard quantiles; exemplar trace_ids in
#: its buckets are surfaced so an operator can jump from "p99 is bad"
#: to ``repro fleet trace <id>`` in one step.
LATENCY_HISTOGRAMS = ("fleet.request_ms", "service.request_ms")


def _rate(part: int, whole: int) -> str:
    if whole <= 0:
        return "-"
    return f"{100.0 * part / whole:.1f}%"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _pick_latency_histogram(
    histograms: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    for name in LATENCY_HISTOGRAMS:
        data = histograms.get(name)
        if data and data.get("count"):
            return {"name": name, **data}
    return None


def _exemplar_line(histogram: Dict[str, Any]) -> Optional[str]:
    """The exemplar resolving to the slowest populated bucket.

    That is the trace worth looking at: the request that landed in the
    highest latency bucket anyone hit — the p99/pmax story, with a
    trace id an operator can fetch.
    """
    exemplars = histogram.get("exemplars") or {}
    if not exemplars:
        return None
    index = max(int(k) for k in exemplars)
    buckets: List[float] = histogram.get("buckets") or []
    upper = (
        f"<= {buckets[index]:g}ms" if index < len(buckets) else
        f"> {buckets[-1]:g}ms" if buckets else "?"
    )
    return f"slowest bucket ({upper}) exemplar: {exemplars[str(index)]}"


def render_fleet_top(
    stats_payload: Dict[str, Any],
    metrics_payload: Optional[Dict[str, Any]] = None,
    url: str = "",
) -> str:
    """One dashboard frame from the two scrape payloads."""
    service: Dict[str, Any] = stats_payload.get("service") or {}
    lines: List[str] = []
    requests = int(service.get("requests", 0))
    uptime = float(service.get("uptime_s", 0.0))
    lines.append(
        f"repro fleet top{' — ' + url if url else ''}  "
        f"(uptime {uptime:.0f}s)"
    )
    lines.append(
        f"queue {service.get('queue_depth', 0)}/"
        f"{service.get('queue_limit', 0)}  "
        f"dispatchers {service.get('dispatchers', 0)}  "
        f"requests {requests}"
    )
    lines.append("")

    # -- request mix -----------------------------------------------------
    lru = int(service.get("lru_hits", 0))
    store = int(service.get("store_hits", 0))
    misses = int(service.get("misses", 0))
    coalesced = int(service.get("coalesced", 0))
    errors = int(service.get("errors", 0))
    shed = int(service.get("deadline_shed", 0))
    lines.append(
        f"hits: lru {lru} ({_rate(lru, requests)})  "
        f"store {store} ({_rate(store, requests)})  "
        f"misses {misses} ({_rate(misses, requests)})  "
        f"coalesced {coalesced} ({_rate(coalesced, requests)})"
    )
    reroutes = int(service.get("reroutes", 0))
    lines.append(
        f"reroutes {reroutes} "
        f"(saturation {service.get('reroutes_saturation', 0)}, "
        f"transport {service.get('reroutes_transport', 0)})  "
        f"shed {shed}  errors {errors}"
    )
    lines.append(
        f"probes {service.get('probes', 0)}  "
        f"breaker_opened {service.get('breaker_opened', 0)}  "
        f"readmissions {service.get('readmissions', 0)}"
    )

    # -- latency ---------------------------------------------------------
    latency = service.get("latency_ms") or {}
    if latency.get("count"):
        lines.append(
            f"latency p50 {latency.get('p50', 0.0):.2f}ms  "
            f"p99 {latency.get('p99', 0.0):.2f}ms  "
            f"max {latency.get('max', 0.0):.2f}ms  "
            f"(n={latency.get('count')})"
        )
    merged = _merged_snapshot(metrics_payload)
    if merged is not None:
        histogram = _pick_latency_histogram(merged.get("histograms") or {})
        if histogram is not None:
            lines.append(
                f"fleet-wide {histogram['name']}: "
                f"p50<={histogram_quantile(histogram, 0.5):g}ms  "
                f"p99<={histogram_quantile(histogram, 0.99):g}ms  "
                f"(n={histogram['count']}, "
                f"sources={len(merged.get('sources') or [])})"
            )
            exemplar = _exemplar_line(histogram)
            if exemplar is not None:
                lines.append(f"  {exemplar}")
        missing = merged.get("missing") or []
        if missing:
            lines.append(f"  unreachable scrape targets: {missing}")
        unmerged = merged.get("unmerged") or []
        if unmerged:
            lines.append(f"  histograms with skewed bounds: {unmerged}")
    lines.append("")

    # -- per-backend table -----------------------------------------------
    backends: Dict[str, Any] = service.get("backends") or {}
    if backends:
        header = (
            f"{'backend':<12} {'state':<10} {'queue':>9} {'served':>7} "
            f"{'fail(sat/net)':>14} {'rerouted':>9}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(backends):
            entry = backends[name]
            breaker = entry.get("breaker") or {}
            state = breaker.get("state", "?") if isinstance(
                breaker, dict
            ) else str(breaker)
            if not entry.get("alive", True):
                state = f"{state}!" if state != "open" else state
            health = entry.get("last_health") or {}
            depth = health.get("queue_depth")
            limit = health.get("queue_limit")
            queue = (
                f"{depth}/{limit}"
                if depth is not None and limit is not None
                else "-"
            )
            failures = (
                f"{entry.get('failures', 0)}"
                f"({entry.get('failures_saturation', 0)}/"
                f"{entry.get('failures_transport', 0)})"
            )
            lines.append(
                f"{name:<12} {state:<10} {queue:>9} "
                f"{entry.get('served', 0):>7} {failures:>14} "
                f"{entry.get('reroutes_from', 0):>9}"
            )
    lru_stats = service.get("lru") or {}
    if lru_stats:
        lines.append("")
        lines.append(
            "lru: " + "  ".join(
                f"{key}={_fmt(lru_stats[key])}" for key in sorted(lru_stats)
            )
        )
    return "\n".join(lines)


def _merged_snapshot(
    metrics_payload: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The merged registry snapshot inside a ``/v1/metrics`` payload.

    A fleet front-end answers ``{"enabled", "fleet": {merged...}}``; a
    plain server answers ``{"enabled", "metrics": {snapshot...}}`` —
    both carry ``histograms``, so the renderer treats them uniformly.
    """
    if not metrics_payload or not metrics_payload.get("enabled"):
        return None
    return metrics_payload.get("fleet") or metrics_payload.get("metrics")


def run_fleet_top(
    client: Any,
    interval_s: float = _config.DEFAULT_FLEET_TOP_INTERVAL_S,
    iterations: Optional[int] = None,
    emit: Callable[[str], None] = print,
    clear: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll ``/v1/stats`` + ``/v1/metrics`` and repaint until interrupted.

    ``iterations`` bounds the loop (``--once`` passes 1; tests pass a
    small count); ``None`` runs until KeyboardInterrupt.  Returns a CLI
    exit code.
    """
    from ..errors import ServiceError

    count = 0
    while iterations is None or count < iterations:
        count += 1
        try:
            stats_payload = client.stats()
        except ServiceError as exc:
            emit(f"error: {exc}")
            return 75
        try:
            metrics_payload = client.metrics()
        except ServiceError:
            metrics_payload = None  # metrics are additive, not required
        frame = render_fleet_top(
            stats_payload, metrics_payload, url=getattr(client, "url", "")
        )
        emit((CLEAR + frame) if clear else frame)
        if iterations is not None and count >= iterations:
            break
        try:
            sleep(interval_s)
        except KeyboardInterrupt:
            break
    return 0


__all__ = ["render_fleet_top", "run_fleet_top"]
