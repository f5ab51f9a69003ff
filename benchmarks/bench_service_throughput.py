"""Compile-service throughput benchmark: the cache layers must pay off.

Three claims, each measured and asserted:

* **warm vs cold** — a warm-cache request (artifact-store hit) completes
  at least 10x faster than the cold request that populated it;
* **single-flight** — 8 concurrent identical requests collapse into one
  pipeline execution (7 coalesce onto the in-flight miss);
* **restart survival** — a second server *process* sharing the cache
  directory serves the same request as a hit without recompiling.

The restart phase runs two sequential ``python -m repro serve``
subprocesses against one cache dir and goes through the real HTTP
client, so it exercises the deployment shape end to end; the other
phases run in-process to keep the numbers about the service, not the
socket.  Each of the restart row's two timings is a fresh process's
first request (a miss in the first process, a hit in the second), so
neither is comparable with the in-process warm/cold rows.

Rows are written to ``BENCH_service_throughput.json`` at the repo root
(same one-row-per-measurement layout as the other ``BENCH_*``
artifacts).  Run under pytest
(``pytest benchmarks/bench_service_throughput.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import json
import signal
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, List

from repro.analysis import clear_caches
from repro.service import (
    CompileRequest,
    CompileService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.fleet import spawn_server_process

_ROOT = Path(__file__).resolve().parents[1]
_OUT = _ROOT / "BENCH_service_throughput.json"

#: The acceptance bar: a store hit is at least this much faster than the
#: pipeline run that populated it.
MIN_WARM_SPEEDUP = 10.0

#: Concurrent identical requests that must collapse into one execution.
FANOUT = 8

_REQUEST = dict(app="sumRows", sizes={"R": 512, "C": 512})


def request() -> CompileRequest:
    return CompileRequest(app=_REQUEST["app"], sizes=dict(_REQUEST["sizes"]))


def bench_warm_vs_cold(cache_dir: str) -> Dict:
    clear_caches()
    service = CompileService(ServiceConfig(workers=2, cache_dir=cache_dir))
    try:
        cold = service.compile(request())
        assert cold.status == "miss"
        warm_ms = []
        for _ in range(20):
            outcome = service.compile(request())
            assert outcome.status == "hit"
            warm_ms.append(outcome.latency_ms)
        warm_ms.sort()
        warm_p50 = warm_ms[len(warm_ms) // 2]
        return {
            "phase": "warm-vs-cold",
            "cold_ms": cold.latency_ms,
            "warm_p50_ms": warm_p50,
            "warm_max_ms": warm_ms[-1],
            "speedup": cold.latency_ms / warm_p50,
            "floor": MIN_WARM_SPEEDUP,
        }
    finally:
        service.close()


def bench_single_flight(cache_dir: str) -> Dict:
    clear_caches()
    gate = threading.Event()

    def gated(req, digest):
        # Hold the (real) pipeline until every request has been
        # admitted, so "concurrent" does not depend on scheduler luck.
        gate.wait(timeout=60)
        return service._default_compile(req, digest)

    service = CompileService(
        ServiceConfig(workers=4, cache_dir=cache_dir), compile_fn=gated
    )
    try:
        tickets = [service.submit(request()) for _ in range(FANOUT)]
        roles = [t.role for t in tickets]
        gate.set()
        outcomes = [t.result(timeout=120) for t in tickets]
        assert all(o.ok for o in outcomes)
        return {
            "phase": "single-flight",
            "submitted": FANOUT,
            "executions": service.executions,
            "misses": roles.count("miss"),
            "coalesced": roles.count("coalesced"),
        }
    finally:
        gate.set()
        service.close()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def bench_restart_survival(cache_dir: str, scratch: Path) -> Dict:
    row: Dict = {"phase": "restart-survival"}
    first, url = spawn_server_process(
        cache_dir, str(scratch / "serve-1.log"), workers=2
    )
    try:
        client = ServiceClient(url)
        cold = client.compile(request())
        row["first_process_status"] = cold.status
        row["first_process_first_request_ms"] = cold.latency_ms
    finally:
        _stop(first)

    second, url = spawn_server_process(
        cache_dir, str(scratch / "serve-2.log"), workers=2
    )
    try:
        client = ServiceClient(url)
        warm = client.compile(request())
        row["second_process_status"] = warm.status
        row["second_process_first_request_ms"] = warm.latency_ms
    finally:
        _stop(second)
    return row


def run_benchmark() -> List[Dict]:
    rows: List[Dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-service-") as scratch:
        scratch_path = Path(scratch)
        rows.append(bench_warm_vs_cold(str(scratch_path / "cache-a")))
        rows.append(bench_single_flight(str(scratch_path / "cache-b")))
        rows.append(
            bench_restart_survival(
                str(scratch_path / "cache-c"), scratch_path
            )
        )
    return rows


def _write(rows: List[Dict]) -> None:
    _OUT.write_text(json.dumps(dict(rows=rows), indent=2) + "\n")


def test_bench_service_throughput():
    rows = run_benchmark()
    _write(rows)
    by_phase = {r["phase"]: r for r in rows}

    warm = by_phase["warm-vs-cold"]
    print()
    print(
        f"cold {warm['cold_ms']:.2f} ms -> warm p50 "
        f"{warm['warm_p50_ms']:.3f} ms ({warm['speedup']:.1f}x, "
        f"floor {MIN_WARM_SPEEDUP:.0f}x)"
    )
    flight = by_phase["single-flight"]
    print(
        f"single-flight: {flight['submitted']} identical requests -> "
        f"{flight['executions']} execution(s), "
        f"{flight['coalesced']} coalesced"
    )
    restart = by_phase["restart-survival"]
    print(
        f"restart (each a fresh process's first request): process 1 "
        f"{restart['first_process_status']} "
        f"({restart['first_process_first_request_ms']:.2f} ms), process 2 "
        f"{restart['second_process_status']} "
        f"({restart['second_process_first_request_ms']:.2f} ms)"
    )

    assert warm["speedup"] >= MIN_WARM_SPEEDUP
    assert flight["executions"] == 1
    assert flight["misses"] == 1
    assert flight["coalesced"] == FANOUT - 1
    assert restart["first_process_status"] == "miss"
    assert restart["second_process_status"] == "hit"


if __name__ == "__main__":
    test_bench_service_throughput()
    print(f"wrote {_OUT}")
