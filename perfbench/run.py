"""The compile-service benchmark: three closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists):

``cold-compile``  in-process ``CompileService`` (1 worker, fresh store),
                  one client; every request is a distinct digest.
``warm-serve``    ``repro serve --workers 1`` with a pre-filled store; two
                  keep-alive clients draw Zipf(1) over the hot set.
``mixed-fleet``   ``repro fleet serve --backends 2 --workers 1``; two
                  clients, ~90% hot-set draws and ~10% new digests.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with the timing wrappers of
``spans.py`` installed, and reports per-layer metrics plus the tracing
overhead (traced minus untraced mean latency).  Either way the served
artifacts are checked after each timed phase, and the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores, server logs and span files; removed at exit.
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = ("cold-compile", "warm-serve", "mixed-fleet")
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Closed-loop clients of the server workloads (the machine has 2 cores).
CLIENTS = 2
#: Requests generated per measured second: about three times what the
#: pipeline completes today, so a faster pipeline does not run out.
COLD_REQUESTS_PER_S = 100
PLAN_STEPS_PER_S = 2000
POOL_PER_S = 60
SERVER_START_TIMEOUT_S = 60.0

#: End-to-end metrics, in print order: (name, unit).
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("failed_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rss_growth_kb_per_req", "KB"),
    ("sim_time_us_geomean", "us"),
)
#: The subset that goes into the JSON line: ``failed_share`` reads 0 on
#: a healthy run (``failed``/``attempted`` carry it) and RSS growth per
#: request is too close to 0 on some workloads to hold a relative bound.
REPORTED_END_TO_END = (
    "latency_p50_ms",
    "latency_p95_ms",
    "throughput_rps",
    "setup_s",
    "peak_rss_mb",
    "sim_time_us_geomean",
)


class InvalidRun(Exception):
    """A workload-validity guard failed: the run measured the wrong thing."""


@dataclass
class Phase:
    """Everything one timed phase observed."""

    #: Client-observed latency of each completed request, per client,
    #: in request order.
    client_latencies_ms: List[List[float]] = field(default_factory=list)
    wire_ms: float = 0.0
    attempted: int = 0
    errors: int = 0
    statuses: Counter = field(default_factory=Counter)
    served: Dict = field(default_factory=dict)
    wall_s: float = 0.0
    rss_start_kb: int = 0
    rss_end_kb: int = 0
    hwm_kb: int = 0
    stats_delta: Dict[str, float] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    span_totals: Optional[Dict[str, float]] = None
    artifact_kb: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def latencies_ms(self) -> List[float]:
        return [x for client in self.client_latencies_ms for x in client]

    @property
    def failed(self) -> int:
        return self.errors + len(self.problems)


# -- measurement helpers ---------------------------------------------------


def proc_status(pid: int) -> Tuple[int, int]:
    """``(VmRSS, VmHWM)`` of a process, in kB."""
    values = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                values[key] = int(rest.split()[0])
    return values["VmRSS"], values["VmHWM"]


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    return statistics.quantiles(values, n=100)[q - 1]


def trace_id(client: int, step: int) -> str:
    """A wire trace id that names the request: client, then step."""
    return f"{client:02x}{step:030x}"


def stat_delta(before: Dict, after: Dict, keys) -> Dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in keys}


# -- cold-compile ----------------------------------------------------------


def run_cold(
    seed: int, seconds: int, work: Path, traced: bool, setups: int
) -> Phase:
    import spans
    from check import ServedLog
    from inputs import cold_compile_requests, warmup_requests

    from repro.analysis.cache import clear_caches
    from repro.errors import ReproError
    from repro.service import CompileService, ServiceConfig
    from repro.service.api import clear_digest_memo

    phase = Phase()
    service = None
    for rep in range(setups):
        if service is not None:
            service.close(save=False)
        start = time.monotonic()
        clear_digest_memo()
        requests = cold_compile_requests(seed, seconds * COLD_REQUESTS_PER_S)
        # A storeless service compiles a few programs outside the stream,
        # so lazy imports and first-use costs land in set-up; then the
        # search memo is emptied so the timed phase starts cold.
        with CompileService(ServiceConfig(workers=1)) as warm:
            for request in warmup_requests():
                warm.compile(request)
        clear_caches()
        store = Path(tempfile.mkdtemp(prefix="cold-store-", dir=work))
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(store))
        )
        phase.setup_s.append(time.monotonic() - start)
    recorder = spans.install() if traced else None
    log = ServedLog()
    latencies: List[float] = []
    phase.client_latencies_ms.append(latencies)
    before = service.stats()
    try:
        phase.rss_start_kb, _ = proc_status(os.getpid())
        start = time.monotonic()
        deadline = start + seconds
        for step, (_, request) in enumerate(requests):
            if time.monotonic() >= deadline:
                break
            wire_request = request.with_trace(trace_id(1, step), None)
            if recorder is not None:
                recorder.current_request = wire_request.trace_id
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = service.compile(wire_request)
            except ReproError:
                phase.errors += 1
                continue
            latency_ms = (time.perf_counter() - t0) * 1e3
            phase.statuses[outcome.status] += 1
            if not outcome.ok or outcome.artifact is None:
                phase.errors += 1
                continue
            latencies.append(latency_ms)
            log.record(request, outcome.digest, outcome.artifact)
        end = time.monotonic()
        phase.rss_end_kb, phase.hwm_kb = proc_status(os.getpid())
    finally:
        if recorder is not None:
            recorder.uninstall()
        service.close(save=False)
    phase.wall_s = end - start
    after = service.stats()
    phase.stats_delta = stat_delta(
        before, after, ("cache_hits", "cache_misses", "executions", "errors")
    )
    if phase.statuses.keys() - {"miss"} or phase.stats_delta["cache_hits"]:
        raise InvalidRun(
            f"cold-compile served something other than misses: "
            f"{dict(phase.statuses)}, stats {phase.stats_delta}"
        )
    phase.served = log.entries
    phase.artifact_kb = _store_kb(store)
    if recorder is not None:
        phase.span_totals = spans.layer_totals(
            spans.in_window(recorder.spans, start, end)
        )
    return phase


def _store_kb(store: Path) -> float:
    from repro.service.store import ArtifactStore

    stats = ArtifactStore(str(store)).stats()
    return stats["bytes"] / 1024 / max(1, stats["artifacts"])


# -- server workloads ------------------------------------------------------


class Server:
    """One ``repro`` server subprocess, stopped (and waited for) by
    :meth:`stop`."""

    def __init__(self, argv: List[str], work: Path, spans_file: Optional[Path]):
        self.store = Path(tempfile.mkdtemp(prefix="store-", dir=work))
        self.log_path = Path(tempfile.mkstemp(suffix=".log", dir=work)[1])
        if spans_file is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [
                sys.executable, str(HERE / "serve_traced.py"),
                str(spans_file), *argv,
            ]
        command += ["--host", "127.0.0.1", "--port", "0",
                    "--cache-dir", str(self.store)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=str(work),
            )
        self.url = self._wait_listening()

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if "listening on " in text:
                return text.split("listening on ", 1)[1].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(
            f"server did not start: {self.log_path.read_text()[-2000:]}"
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _prefill(url: str, requests) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=120.0, keep_alive=True)
    try:
        for index, request in enumerate(requests):
            outcome = client.compile(
                request.with_trace(trace_id(0xFF, index), None)
            )
            if not outcome.ok:
                raise RuntimeError(f"pre-fill failed: {outcome.error}")
    finally:
        client.close()


def _client_loop(url: str, client: int, plan, hot, pool, deadline: float):
    """One closed-loop client: the next request goes out when the last
    reply is in."""
    from check import ServedLog

    from repro.errors import ReproError
    from repro.service import ServiceClient

    service_client = ServiceClient(url, timeout=120.0, keep_alive=True)
    latencies: List[float] = []
    statuses: Counter = Counter()
    log = ServedLog()
    wire_ms = 0.0
    attempted = errors = 0
    try:
        for step, (kind, index) in enumerate(plan):
            if time.monotonic() >= deadline:
                break
            request = hot[index] if kind == "hot" else pool[index % len(pool)]
            attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = service_client.compile(
                    request.with_trace(trace_id(client, step), None)
                )
            except ReproError:
                errors += 1
                continue
            latency_ms = (time.perf_counter() - t0) * 1e3
            statuses[outcome.status] += 1
            if not outcome.ok or outcome.artifact is None:
                errors += 1
                continue
            latencies.append(latency_ms)
            wire_ms += latency_ms - outcome.latency_ms
            log.record(request, outcome.digest, outcome.artifact)
    finally:
        service_client.close()
    return latencies, statuses, log, wire_ms, attempted, errors


def run_server(
    workload: str, seed: int, seconds: int, work: Path, traced: bool,
    setups: int,
) -> Phase:
    import inputs
    from check import merge

    from repro.service import ServiceClient

    mixed = workload == "mixed-fleet"
    argv = (
        ["fleet", "serve", "--backends", "2", "--workers", "1"]
        if mixed
        else ["serve", "--workers", "1"]
    )
    phase = Phase()
    server = None
    spans_file = work / "server-spans.json" if traced else None
    try:
        for rep in range(setups):
            if server is not None:
                server.stop()
            start = time.monotonic()
            hot = inputs.hot_set(seed)
            pool = (
                inputs.new_digest_pool(seed, seconds * POOL_PER_S, hot)
                if mixed
                else []
            )
            plans = [
                inputs.client_plan(
                    seed, client, seconds * PLAN_STEPS_PER_S, len(hot), mixed
                )
                for client in range(1, CLIENTS + 1)
            ]
            server = Server(argv, work, spans_file)
            _prefill(server.url, hot)
            phase.setup_s.append(time.monotonic() - start)
        probe = ServiceClient(server.url, timeout=60.0)
        before = probe.stats()["service"]
        phase.rss_start_kb, _ = proc_status(server.proc.pid)
        start = time.monotonic()
        deadline = start + seconds
        with ThreadPoolExecutor(max_workers=CLIENTS) as clients:
            futures = [
                clients.submit(
                    _client_loop, server.url, client, plans[client - 1], hot,
                    pool, deadline,
                )
                for client in range(1, CLIENTS + 1)
            ]
            results = [future.result() for future in futures]
        end = time.monotonic()
        phase.rss_end_kb, phase.hwm_kb = proc_status(server.proc.pid)
        after = probe.stats()["service"]
    finally:
        if server is not None:
            server.stop()
    phase.wall_s = end - start
    logs = []
    for latencies, statuses, log, wire_ms, attempted, errors in results:
        phase.client_latencies_ms.append(latencies)
        phase.statuses += statuses
        phase.wire_ms += wire_ms
        phase.attempted += attempted
        phase.errors += errors
        logs.append(log)
    phase.served = merge(logs)
    phase.artifact_kb = _store_kb(server.store)
    if mixed:
        phase.stats_delta = stat_delta(
            before, after,
            ("requests", "lru_hits", "store_hits", "misses", "coalesced",
             "errors"),
        )
        hits = phase.stats_delta["lru_hits"] + phase.stats_delta["store_hits"]
        if not hits or not phase.stats_delta["misses"]:
            raise InvalidRun(
                f"mixed-fleet needs both hits and misses: {phase.stats_delta}"
            )
    else:
        phase.stats_delta = stat_delta(
            before, after,
            ("requests", "cache_hits", "cache_misses", "coalesced",
             "executions", "errors"),
        )
        if phase.stats_delta["executions"]:
            raise InvalidRun(
                f"warm-serve ran the pipeline: {phase.stats_delta}"
            )
    if traced:
        import spans

        phase.span_totals = spans.layer_totals(
            spans.in_window(spans.load(str(spans_file)), start, end)
        )
    return phase


# -- metrics ---------------------------------------------------------------


def end_to_end(phase: Phase) -> Dict[str, float]:
    completed = len(phase.latencies_ms)
    costs = [entry.total_us for entry in phase.served.values()]
    return {
        "latency_p50_ms": quantile(phase.latencies_ms, 50),
        "latency_p95_ms": quantile(phase.latencies_ms, 95),
        "throughput_rps": completed / phase.wall_s,
        "failed_share": phase.failed / max(1, phase.attempted),
        "setup_s": statistics.median(phase.setup_s),
        "peak_rss_mb": phase.hwm_kb / 1024,
        "rss_growth_kb_per_req": (
            (phase.rss_end_kb - phase.rss_start_kb) / max(1, completed)
        ),
        "sim_time_us_geomean": math.exp(
            sum(math.log(c) for c in costs) / len(costs)
        ),
    }


def per_layer_names() -> List[Tuple[str, str, str]]:
    """Every per-layer metric: (name, unit, better)."""
    import spans

    names = []
    for span in spans.SPAN_NAMES:
        names.append((f"{span}.calls", "count/req", "lower"))
        names.append((f"{span}.self_ms", "ms/req", "lower"))
    names += [
        ("service.http.wire_ms", "ms/req", "lower"),
        ("service.queue_wait_ms", "ms/req", "lower"),
        ("service.fleet.lru_hit_share", "ratio", "higher"),
        ("service.fleet.store_hit_share", "ratio", "higher"),
        ("service.fleet.coalesced_share", "ratio", "higher"),
        ("service.store.artifact_kb", "KB", "lower"),
        ("runtime.session.degraded_share", "ratio", "lower"),
        ("analysis.search.memo_hit_share", "ratio", "higher"),
        ("optim.build_plan.from_estimate_cost.calls", "count/req", "lower"),
        ("unattributed.ms", "ms/req", "lower"),
        ("unattributed.share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("rss_growth_kb_per_req", "KB", "lower"),
    ]
    return names


def common_prefix_means(traced: Phase, untraced: Phase) -> Tuple[float, float]:
    """Mean latency of each phase over the requests both reached: per
    client, the shorter phase's count of requests, in request order (both
    phases send the same sequence)."""
    pairs = [
        (t[:n], u[:n])
        for t, u in zip(traced.client_latencies_ms, untraced.client_latencies_ms)
        for n in [min(len(t), len(u))]
    ]
    return (
        statistics.fmean([x for t, _ in pairs for x in t]),
        statistics.fmean([x for _, u in pairs for x in u]),
    )


def per_layer(untraced: Phase, traced: Phase) -> Dict[str, float]:
    import spans

    totals = traced.span_totals or {}
    requests = max(1, len(traced.latencies_ms))
    mean_ms = statistics.fmean(traced.latencies_ms)
    values: Dict[str, float] = {}
    attributed = 0.0
    for span in spans.SPAN_NAMES:
        values[f"{span}.calls"] = totals.get(f"{span}.calls", 0) / requests
        self_ms = totals.get(f"{span}.self_ms", 0.0) / requests
        values[f"{span}.self_ms"] = self_ms
        attributed += self_ms
    values["service.http.wire_ms"] = traced.wire_ms / requests
    values["service.queue_wait_ms"] = totals.get("queue_wait_ms", 0.0) / requests
    attributed += values["service.http.wire_ms"] + values["service.queue_wait_ms"]
    delta = traced.stats_delta
    fleet = "lru_hits" in delta
    for share, counter in (
        ("lru_hit_share", "lru_hits"),
        ("store_hit_share", "store_hits"),
        ("coalesced_share", "coalesced"),
    ):
        values[f"service.fleet.{share}"] = (
            delta[counter] / max(1, delta["requests"]) if fleet else 0.0
        )
    values["service.store.artifact_kb"] = traced.artifact_kb
    values["runtime.session.degraded_share"] = sum(
        1 for entry in traced.served.values() if entry.degradations
    ) / max(1, len(traced.served))
    values["analysis.search.memo_hit_share"] = totals.get(
        "search.memo_hits", 0
    ) / max(1, totals.get(f"{spans.SEARCH}.calls", 0))
    values["optim.build_plan.from_estimate_cost.calls"] = totals.get(
        "build_plan.under_estimate_cost", 0
    ) / requests
    values["unattributed.ms"] = mean_ms - attributed
    values["unattributed.share"] = values["unattributed.ms"] / mean_ms
    traced_ms, untraced_ms = common_prefix_means(traced, untraced)
    values["trace.overhead_share"] = traced_ms / untraced_ms - 1.0
    values["rss_growth_kb_per_req"] = end_to_end(untraced)[
        "rss_growth_kb_per_req"
    ]
    return values


# -- reporting -------------------------------------------------------------


def print_end_to_end(workload: str, phase: Phase, values: Dict) -> None:
    print(f"== {workload}: end-to-end "
          f"({len(phase.latencies_ms)} latency samples, "
          f"{phase.wall_s:.2f}s timed, {len(phase.served)} distinct digests)")
    for name, unit in END_TO_END:
        print(f"  {name:<24} {values[name]:>14.4f} {unit}")
    print(f"  statuses {dict(phase.statuses)}; server counters "
          f"{phase.stats_delta}")


def print_layers(
    workload: str, untraced: Phase, traced: Phase, values: Dict
) -> None:
    import spans

    mean_ms = statistics.fmean(traced.latencies_ms)
    print(f"== {workload}: per-layer (traced run, "
          f"{len(traced.latencies_ms)} requests, mean latency "
          f"{mean_ms:.3f} ms)")
    print(f"  {'layer.function':<46} {'calls/req':>10} "
          f"{'self ms/req':>12} {'share':>7}")
    rows = [
        (span, values[f"{span}.calls"], values[f"{span}.self_ms"])
        for span in spans.SPAN_NAMES
    ]
    rows += [
        ("service.http.wire_ms", None, values["service.http.wire_ms"]),
        ("service.queue_wait_ms", None, values["service.queue_wait_ms"]),
        ("unattributed", None, values["unattributed.ms"]),
    ]
    for name, calls, self_ms in rows:
        calls_text = "" if calls is None else f"{calls:.3f}"
        print(f"  {name:<46} {calls_text:>10} {self_ms:>12.4f} "
              f"{self_ms / mean_ms:>7.1%}")
    for name in (
        "service.fleet.lru_hit_share", "service.fleet.store_hit_share",
        "service.fleet.coalesced_share", "service.store.artifact_kb",
        "runtime.session.degraded_share", "analysis.search.memo_hit_share",
        "optim.build_plan.from_estimate_cost.calls",
    ):
        print(f"  {name:<46} {values[name]:.4f}")
    totals = traced.span_totals or {}
    searches = totals.get(f"{spans.SEARCH}.calls", 0)
    if searches:
        print(f"  keep_all re-searches per first search: "
              f"{totals.get(f'{spans.SEARCH_KEEP_ALL}.calls', 0) / searches:.3f}")
    traced_ms, untraced_ms = common_prefix_means(traced, untraced)
    print(f"  tracing overhead: mean latency {traced_ms:.3f} ms traced vs "
          f"{untraced_ms:.3f} ms untraced over the same requests "
          f"({values['trace.overhead_share']:+.1%}); per-layer numbers "
          "include it")


# -- entry point -----------------------------------------------------------


def run_phase(
    workload: str, seed: int, seconds: int, work: Path, traced: bool,
    setups: int, oracle,
) -> Phase:
    from check import check

    if workload == "cold-compile":
        phase = run_cold(seed, seconds, work, traced, setups)
    else:
        phase = run_server(workload, seed, seconds, work, traced, setups)
    phase.problems = check(phase.served, oracle)
    for problem in phase.problems:
        print(f"  correctness: {problem}", file=sys.stderr)
    return phase


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    import json

    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from check import Oracle

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    oracle = Oracle()
    try:
        untraced = run_phase(
            args.workload, args.seed, args.seconds, work, False,
            1 if args.trace else SETUP_REPEATS, oracle,
        )
        values = end_to_end(untraced)
        print_end_to_end(args.workload, untraced, values)
        phases = [untraced]
        if args.trace:
            traced = run_phase(
                args.workload, args.seed, args.seconds, work, True, 1, oracle,
            )
            phases.append(traced)
            values = per_layer(untraced, traced)
            print_layers(args.workload, untraced, traced, values)
            units = {name: unit for name, unit, _ in per_layer_names()}
        else:
            units = dict(END_TO_END)
            values = {name: values[name] for name in REPORTED_END_TO_END}
    except InvalidRun as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
