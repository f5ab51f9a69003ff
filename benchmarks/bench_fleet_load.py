"""Fleet load benchmark: saturation curves and fleet-wide coalescing.

Three claims, each measured and asserted:

* **fleet-wide coalescing** — identical concurrent requests submitted to
  the router collapse into ONE pipeline run across the whole fleet (the
  router's single-flight table coalesces them before any backend sees
  them);
* **cache tiering** — on the warm path the hot in-memory LRU tier beats
  the shared disk store, which beats a backend round trip;
* **throughput scaling** — the router turns backend-count into
  throughput.  Measured twice: a *dispatch-scaling* phase where backend
  cost is latency-bound (a fixed simulated pipeline time), so a
  3-backend fleet must sustain ~3x the requests per second of a
  1-backend fleet on any machine; and a *saturation* phase driving real
  HTTP round trips against 1 vs 3 subprocess servers with the router's
  own cache tiers disabled, sweeping client concurrency and recording
  requests/s with p50/p99 latency per point.  The subprocess curves
  only separate when the host actually has cores for the backends to
  run on, so the hard scaling floor applies to them on >= 4 cores
  (the dispatch-scaling floor applies everywhere);
* **self-healing** — a *chaos* section runs the fleet fault matrix
  (kill/hang/slow/partition) through the campaign harness and asserts
  every campaign heals: zero lost tickets, the killed-and-restarted
  backend is readmitted by the prober and serves traffic again, p99
  stays bounded.

Rows land in ``BENCH_fleet_load.json`` at the repo root (same
one-row-per-measurement layout as the other ``BENCH_*`` artifacts).

Run under pytest (``pytest benchmarks/bench_fleet_load.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_fleet_load.py``).
Set ``BENCH_FLEET_QUICK=1`` (the CI smoke job does) for a ~30 s slice:
smaller sweep, fewer requests, same assertions.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.analysis import clear_caches
from repro.service import (
    CompileRequest,
    CompileService,
    FleetConfig,
    ServiceConfig,
    local_fleet,
    spawn_http_fleet,
)
from repro.service.fleet import SERVED_BY_LRU, SERVED_BY_STORE
from repro.service.admission import latency_summary

_ROOT = Path(__file__).resolve().parents[1]
_OUT = _ROOT / "BENCH_fleet_load.json"

QUICK = os.environ.get("BENCH_FLEET_QUICK", "") not in ("", "0")

#: Identical concurrent requests that must collapse into one pipeline run.
FANOUT = 16 if not QUICK else 8

#: Distinct programs the scaling sweep cycles over (pre-compiled into the
#: shared store, so the measured path is warm end to end).
DISTINCT = 24 if not QUICK else 8

#: Client-side concurrency levels for the saturation curve.
CONCURRENCY_SWEEP = (1, 4, 8, 16) if not QUICK else (1, 4)

#: Requests each client worker issues per sweep point.
PER_WORKER = 30 if not QUICK else 10

#: Peak 3-vs-1-backend throughput floors.  The dispatch-scaling phase
#: (latency-bound backends) must scale on any host; the subprocess
#: saturation curves need real cores to separate.
MIN_DISPATCH_SCALING = 2.0
MIN_HTTP_SCALING = 1.15
HTTP_SCALING_MIN_CORES = 4

#: Simulated per-request pipeline time for the dispatch-scaling phase.
SIMULATED_PIPELINE_S = 0.02

BACKEND_FLEETS = (1, 3)


def distinct_requests(n: int) -> List[CompileRequest]:
    return [
        CompileRequest(app="sumRows", sizes={"R": 64 + 32 * i, "C": 32})
        for i in range(n)
    ]


def bench_coalescing(cache_dir: str) -> Dict:
    """FANOUT identical concurrent submits -> one dispatch, one run."""
    clear_caches()
    gate = threading.Event()
    calls = []

    def gated(req, digest):
        calls.append(digest)
        gate.wait(timeout=120)
        return service_template._default_compile(req, digest)

    fleet = local_fleet(
        3,
        cache_dir,
        fleet_config=FleetConfig(lru_capacity=8),
        compile_fn=gated,
        workers=2,
    )
    service_template = next(iter(fleet.backends.values())).service
    try:
        request = distinct_requests(1)[0]
        tickets = [fleet.submit(request) for _ in range(FANOUT)]
        roles = [t.role for t in tickets]
        gate.set()
        outcomes = [t.wait(timeout=300) for t in tickets]
        assert all(o.ok for o in outcomes)
        stats = fleet.stats()
        return {
            "phase": "fleet-coalescing",
            "submitted": FANOUT,
            "pipeline_runs": len(calls),
            "dispatched": stats["misses"],
            "coalesced": stats["coalesced"],
            "roles": {role: roles.count(role) for role in set(roles)},
        }
    finally:
        gate.set()
        fleet.close()


def bench_cache_tiers(cache_dir: str) -> Dict:
    """Warm-path latency per tier: hot LRU vs disk store vs backend."""
    clear_caches()
    fleet = local_fleet(
        2, cache_dir, fleet_config=FleetConfig(lru_capacity=64), workers=2
    )
    try:
        request = distinct_requests(1)[0]
        cold = fleet.submit(request).wait(timeout=300)
        assert cold.status == "miss"

        def sample(expected_tier: str, repeats: int = 30) -> Dict:
            latencies = []
            for _ in range(repeats):
                outcome = fleet.submit(request).wait(timeout=60)
                assert outcome.served_by == expected_tier, outcome.served_by
                latencies.append(outcome.latency_ms)
                if expected_tier == SERVED_BY_STORE:
                    fleet.lru.clear()  # keep forcing the disk tier
            return latency_summary(sorted(latencies))

        lru = sample(SERVED_BY_LRU)
        fleet.lru.clear()
        store = sample(SERVED_BY_STORE)
        return {
            "phase": "cache-tiers",
            "cold_ms": cold.latency_ms,
            "lru_hit_ms": lru,
            "store_hit_ms": store,
        }
    finally:
        fleet.close()


def bench_dispatch_scaling() -> List[Dict]:
    """Backend-count -> throughput with latency-bound backend work.

    Every request is a distinct digest and every cache tier is off, so
    each one must be dispatched; the backend "pipeline" is a fixed
    sleep (latency, not CPU), so total throughput is bounded by worker
    slots across the fleet — 3 backends expose 3x the slots of 1, and
    the router must actually fill them.
    """
    from repro.service.store import CompileArtifact

    def slow_compile(request, digest):
        time.sleep(SIMULATED_PIPELINE_S)
        return CompileArtifact(
            digest=digest,
            program="simulated",
            strategy="multidim",
            device="Tesla K20c",
            cost={"total_us": 1.0, "kernels": []},
        )

    clients = 12
    per_client = 16 if not QUICK else 8
    rows: List[Dict] = []
    for backends in BACKEND_FLEETS:
        fleet = local_fleet(
            backends,
            None,  # no store: every request must reach a backend
            fleet_config=FleetConfig(lru_capacity=0, dispatchers=16),
            compile_fn=slow_compile,
            workers=2,
        )
        try:
            latencies: List[float] = []
            errors: List[str] = []
            lock = threading.Lock()

            def worker(index: int) -> None:
                local = []
                for i in range(per_client):
                    request = CompileRequest(
                        app="sumRows",
                        sizes={"R": 64 + index * 1000 + i, "C": 32},
                    )
                    t0 = time.perf_counter()
                    outcome = fleet.submit(request).wait(timeout=300)
                    local.append((time.perf_counter() - t0) * 1e3)
                    if not outcome.ok:
                        with lock:
                            errors.append(outcome.error.message)
                with lock:
                    latencies.extend(local)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            wall_s = time.perf_counter() - start
            assert not errors, errors[:3]
            total = clients * per_client
            summary = latency_summary(sorted(latencies))
            rows.append({
                "phase": "dispatch-scaling",
                "backends": backends,
                "worker_slots": backends * 2,
                "simulated_pipeline_ms": SIMULATED_PIPELINE_S * 1e3,
                "concurrency": clients,
                "requests": total,
                "wall_s": wall_s,
                "rps": total / wall_s,
                "p50_ms": summary["p50"],
                "p99_ms": summary["p99"],
            })
        finally:
            fleet.close()
    return rows


def _measure_point(fleet, requests, concurrency: int) -> Dict:
    """Closed-loop load: each worker owns a disjoint digest slice (no
    accidental coalescing), issues PER_WORKER requests, all latencies
    recorded."""
    latencies: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        mine = requests[index::concurrency] or [requests[index % len(requests)]]
        local = []
        for i in range(PER_WORKER):
            request = mine[i % len(mine)]
            t0 = time.perf_counter()
            outcome = fleet.submit(request).wait(timeout=300)
            local.append((time.perf_counter() - t0) * 1e3)
            if not outcome.ok:
                with lock:
                    errors.append(outcome.error.message)
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(concurrency)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    wall_s = time.perf_counter() - start
    assert not errors, errors[:3]
    total = concurrency * PER_WORKER
    summary = latency_summary(sorted(latencies))
    return {
        "concurrency": concurrency,
        "requests": total,
        "wall_s": wall_s,
        "rps": total / wall_s,
        "p50_ms": summary["p50"],
        "p99_ms": summary["p99"],
    }


def bench_scaling(cache_dir: str, scratch: Path) -> List[Dict]:
    """Saturation curves: 1 vs N subprocess backends, warm store path.

    The shared store is pre-populated, the router's LRU and disk tiers
    are disabled, so every request is a real HTTP round trip answered
    from the backend's warm store — the curve measures fleet serving
    capacity, not pipeline speed.
    """
    clear_caches()
    requests = distinct_requests(DISTINCT)
    warmer = CompileService(ServiceConfig(workers=4, cache_dir=cache_dir))
    try:
        for request in requests:
            assert warmer.compile(request).ok
    finally:
        warmer.close()

    rows: List[Dict] = []
    for backends in BACKEND_FLEETS:
        fleet = spawn_http_fleet(
            backends,
            cache_dir,
            str(scratch / f"logs-{backends}"),
            fleet_config=FleetConfig(
                lru_capacity=0, dispatchers=32, queue_limit=8192
            ),
            workers=2,
        )
        fleet.store = None  # router must not answer from disk itself
        try:
            # One throwaway point warms sockets and server threads.
            _measure_point(fleet, requests, CONCURRENCY_SWEEP[0])
            for concurrency in CONCURRENCY_SWEEP:
                point = _measure_point(fleet, requests, concurrency)
                point["phase"] = "saturation"
                point["backends"] = backends
                rows.append(point)
            stats = fleet.stats()
            assert stats["errors"] == 0
            assert stats["reroutes"] == 0
        finally:
            fleet.close()
    return rows


def bench_chaos() -> Dict:
    """Fleet fault matrix through the chaos campaign harness."""
    from repro.resilience.fleet_chaos import run_fleet_chaos_matrix

    result = run_fleet_chaos_matrix(
        wave=4 if QUICK else 6, hang_s=0.1, slow_s=0.02
    )
    return {
        "ok": result.ok,
        "cells": [cell.to_dict() for cell in result.cells],
    }


def bench_instrumented(cache_dir: str) -> Dict:
    """The fleet under full observability: spans, metrics, exemplars.

    Runs a distinct-request workload through a local fleet with tracing
    and metrics capturing, then records what the instrumentation
    produced — per-request trace ids, the merged latency histogram with
    its exemplars, and the control-plane event volume.  This is the
    artifact row proving the PR's observability surfaces carry real
    data under load, not just in unit fixtures.
    """
    from repro.observability import capture
    from repro.observability.aggregate import histogram_quantile
    from repro.observability.events import get_event_log

    clear_caches()
    n = 8 if QUICK else 16
    with capture() as obs:
        fleet = local_fleet(
            2, cache_dir, fleet_config=FleetConfig(lru_capacity=8),
            workers=2,
        )
        try:
            start_seq = get_event_log().snapshot()["next_seq"]
            t0 = time.perf_counter()
            tickets = fleet.submit_many(distinct_requests(n))
            outcomes = [t.wait(timeout=300) for t in tickets]
            wall_s = time.perf_counter() - t0
            assert all(o.ok for o in outcomes)
            traced = sum(1 for o in outcomes if o.trace_id)
            merged = fleet.aggregated_metrics()["fleet"]
            events = get_event_log().snapshot(since=start_seq - 1)
        finally:
            fleet.close()
    latency = merged["histograms"].get("fleet.request_ms") or {}
    return {
        "phase": "instrumented",
        "requests": n,
        "rps": n / wall_s,
        "traced_requests": traced,
        "span_events": len(obs.tracer.events()),
        "histograms": len(merged["histograms"]),
        "exemplars": len(latency.get("exemplars") or {}),
        "fleet_p99_ms": histogram_quantile(latency, 0.99),
        "control_plane_events": len(events["events"]),
    }


def run_benchmark() -> Dict:
    rows: List[Dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as scratch:
        scratch_path = Path(scratch)
        rows.append(bench_coalescing(str(scratch_path / "cache-a")))
        rows.append(bench_cache_tiers(str(scratch_path / "cache-b")))
        rows.extend(bench_dispatch_scaling())
        rows.extend(
            bench_scaling(str(scratch_path / "cache-c"), scratch_path)
        )
        rows.append(bench_instrumented(str(scratch_path / "cache-e")))
        chaos = bench_chaos()
    return {"rows": rows, "chaos": chaos}


def _write(result: Dict) -> None:
    _OUT.write_text(
        json.dumps(dict(quick=QUICK, **result), indent=2) + "\n"
    )


def test_bench_fleet_load():
    result = run_benchmark()
    _write(result)
    rows = result["rows"]

    coalescing = next(r for r in rows if r["phase"] == "fleet-coalescing")
    tiers = next(r for r in rows if r["phase"] == "cache-tiers")
    dispatch = [r for r in rows if r["phase"] == "dispatch-scaling"]
    curve = [r for r in rows if r["phase"] == "saturation"]

    print()
    print(
        f"coalescing: {coalescing['submitted']} identical requests -> "
        f"{coalescing['pipeline_runs']} pipeline run(s), "
        f"{coalescing['coalesced']} coalesced"
    )
    print(
        f"tiers: cold {tiers['cold_ms']:.2f} ms, "
        f"lru p50 {tiers['lru_hit_ms']['p50']:.3f} ms, "
        f"store p50 {tiers['store_hit_ms']['p50']:.3f} ms"
    )
    dispatch_rps = {row["backends"]: row["rps"] for row in dispatch}
    for row in dispatch:
        print(
            f"dispatch-scaling: backends={row['backends']} "
            f"({row['worker_slots']} slots) {row['rps']:8.1f} req/s "
            f"p50 {row['p50_ms']:.2f} ms p99 {row['p99_ms']:.2f} ms"
        )
    dispatch_scaling = dispatch_rps[3] / dispatch_rps[1]
    print(
        f"dispatch scaling 3-vs-1 backends: {dispatch_scaling:.2f}x "
        f"(floor {MIN_DISPATCH_SCALING}x)"
    )
    peaks: Dict[int, float] = {}
    for point in curve:
        peaks[point["backends"]] = max(
            peaks.get(point["backends"], 0.0), point["rps"]
        )
        print(
            f"saturation: backends={point['backends']} "
            f"c={point['concurrency']:>2} {point['rps']:8.1f} req/s "
            f"p50 {point['p50_ms']:.2f} ms p99 {point['p99_ms']:.2f} ms"
        )
    cores = os.cpu_count() or 1
    http_scaling = peaks[3] / peaks[1]
    print(
        f"http peak scaling 3-vs-1 backends: {http_scaling:.2f}x on "
        f"{cores} core(s) (floor {MIN_HTTP_SCALING}x when >= "
        f"{HTTP_SCALING_MIN_CORES} cores)"
    )

    chaos = result["chaos"]
    for cell in chaos["cells"]:
        print(
            f"chaos: fleet/{cell['kind']:<9} -> {cell['outcome']} "
            f"(lost {cell['lost']}/{cell['requests']}, "
            f"readmitted={cell['readmitted']}, "
            f"served_after_heal={cell['victim_served_after_heal']}, "
            f"p99 {cell['p99_ms']:.1f} ms)"
        )
    instrumented = next(r for r in rows if r["phase"] == "instrumented")
    print(
        f"instrumented: {instrumented['requests']} requests "
        f"{instrumented['rps']:.1f} req/s, "
        f"{instrumented['traced_requests']} traced, "
        f"{instrumented['span_events']} spans, "
        f"{instrumented['exemplars']} exemplar(s), "
        f"fleet p99<={instrumented['fleet_p99_ms']:g} ms"
    )
    assert coalescing["pipeline_runs"] == 1
    assert coalescing["dispatched"] == 1
    assert coalescing["coalesced"] == FANOUT - 1
    assert tiers["lru_hit_ms"]["p50"] <= tiers["store_hit_ms"]["p50"]
    assert tiers["store_hit_ms"]["p50"] < tiers["cold_ms"]
    assert dispatch_scaling >= MIN_DISPATCH_SCALING
    if cores >= HTTP_SCALING_MIN_CORES:
        assert http_scaling >= MIN_HTTP_SCALING
    else:
        # Subprocess backends time-share the cores that exist; without
        # real parallelism the curves can only show the fleet holds its
        # single-backend throughput, not exceed it.
        assert http_scaling >= 0.6

    # Self-healing: every campaign heals with zero lost tickets, and the
    # killed-then-restarted backend is serving again.
    assert chaos["ok"], chaos
    kill = next(c for c in chaos["cells"] if c["kind"] == "kill")
    assert kill["outcome"] == "healed"
    assert kill["lost"] == 0
    assert kill["readmitted"]
    assert kill["victim_served_after_heal"] >= 1

    # Instrumented fleet: every request got a trace id, the merged
    # latency histogram carries at least one exemplar to jump from.
    assert instrumented["traced_requests"] == instrumented["requests"]
    assert instrumented["span_events"] > 0
    assert instrumented["exemplars"] >= 1


if __name__ == "__main__":
    test_bench_fleet_load()
    print(f"wrote {_OUT}")
