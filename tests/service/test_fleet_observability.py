"""Fleet observability: stitched traces, aggregated metrics, routes.

This file holds the PR's acceptance gate: a request through a
2-subprocess-backend fleet must yield ONE stitched Perfetto-loadable
trace with cross-process parent links, aggregated ``/v1/metrics``
snapshots from every member plus the router, and a p-bucket exemplar
that resolves back to the request's trace id.
"""

import json
import threading

import pytest

from repro.observability import capture
from repro.observability.stitch import cross_process_links
from repro.observability.tracer import is_valid_trace_id, validate_chrome_trace
from repro.service import (
    CompileRequest,
    CompileService,
    FleetConfig,
    ServiceClient,
    ServiceConfig,
    local_fleet,
    spawn_http_fleet,
)
from repro.service.dashboard import render_fleet_top, run_fleet_top
from repro.service.http import make_server, serve_forever
from repro.service.store import CompileArtifact


def request(**sizes) -> CompileRequest:
    return CompileRequest(app="sumRows", sizes=sizes or {"R": 64, "C": 32})


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


class TestSubprocessFleetTrace:
    def test_two_backend_request_stitches_one_trace(self, tmp_path):
        """Acceptance: spawn 2 real server processes, trace a request."""
        fleet = spawn_http_fleet(
            2, str(tmp_path / "cache"), str(tmp_path / "logs"),
            FleetConfig(lru_capacity=0),
        )
        try:
            with capture():
                outcome = fleet.submit(request()).wait(timeout=300)
                assert outcome.ok
                assert is_valid_trace_id(outcome.trace_id)

                document = fleet.trace_document(outcome.trace_id)
                assert document is not None
                assert validate_chrome_trace(document) == []
                # The router fragment and the serving backend's fragment
                # are linked by a flow pair across process boundaries.
                links = cross_process_links(document)
                assert links, "no cross-process parent links in trace"
                names = {
                    e["args"]["name"]
                    for e in document["traceEvents"]
                    if e.get("ph") == "M"
                }
                assert "router" in names
                assert any(n.startswith("backend-") for n in names)

                merged = fleet.aggregated_metrics()["fleet"]
                assert sorted(merged["sources"]) == [
                    "backend-0", "backend-1", "router",
                ]
                assert merged["missing"] == []
                # The p-bucket exemplar resolves to this request's trace.
                latency = merged["histograms"].get("fleet.request_ms")
                assert latency is not None
                exemplars = latency.get("exemplars", {})
                assert outcome.trace_id in exemplars.values()
        finally:
            fleet.close()


class TestLocalFleetObservability:
    def test_trace_ids_absent_when_tracing_disabled(self, tmp_path):
        # The <5% overhead claim rests on the disabled path generating
        # no ids at all.
        fleet = local_fleet(2, str(tmp_path / "cache"))
        try:
            outcome = fleet.submit(request()).wait(timeout=300)
            assert outcome.ok
            assert outcome.trace_id is None
        finally:
            fleet.close()

    def test_local_backends_not_reported_missing(self, tmp_path):
        # Each LocalBackend reports its own service registry, like a
        # subprocess backend; none is listed as unreachable.
        fleet = local_fleet(2, str(tmp_path / "cache"))
        try:
            with capture():
                fleet.submit(request()).wait(timeout=300)
                merged = fleet.aggregated_metrics()["fleet"]
                assert merged["missing"] == []
                assert merged["sources"] == [
                    "backend-0", "backend-1", "router",
                ]
        finally:
            fleet.close()

    def test_stats_carries_cause_split_and_health(self, tmp_path):
        fleet = local_fleet(2, str(tmp_path / "cache"))
        try:
            fleet.submit(request()).wait(timeout=300)
            stats = fleet.stats()
            assert "reroutes_saturation" in stats
            assert "reroutes_transport" in stats
            for entry in stats["backends"].values():
                assert "failures_saturation" in entry
                assert "failures_transport" in entry
                assert "last_health" in entry
        finally:
            fleet.close()


@pytest.fixture
def served(tmp_path):
    """A live single server with observability enabled end to end."""
    with capture():
        service = CompileService(
            ServiceConfig(workers=2, cache_dir=str(tmp_path / "cache")),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            thread.join(timeout=30)
            service.close()


class TestObservabilityRoutes:
    def test_metrics_route_snapshots_registry(self, served):
        client = ServiceClient(served.url)
        outcome = client.compile(request())
        assert outcome.ok
        payload = client.metrics()
        assert payload["enabled"] is True
        histograms = payload["metrics"]["histograms"]
        assert "service.request_ms" in histograms

    def test_trace_route_round_trips(self, served):
        client = ServiceClient(served.url)
        outcome = client.compile(request())
        assert is_valid_trace_id(outcome.trace_id)
        document = client.trace(outcome.trace_id)
        assert document is not None
        assert validate_chrome_trace(document) == []
        raw = client.trace(outcome.trace_id, raw=True)
        assert raw["process"] == "service"
        assert raw["events"]

    def test_trace_route_rejects_bad_and_unknown_ids(self, served):
        client = ServiceClient(served.url)
        assert client.trace("not-a-trace-id") is None
        assert client.trace("0" * 32) is None

    def test_events_route_supports_since_cursor(self, served):
        client = ServiceClient(served.url)
        envelope = client.events()
        assert set(envelope) >= {"events", "next_seq", "dropped"}
        cursor = envelope["next_seq"]
        fresh = client.events(since=cursor - 1)
        assert fresh["events"] == []


STATS_FIXTURE = {
    "service": {
        "uptime_s": 12.5,
        "queue_depth": 1,
        "queue_limit": 64,
        "dispatchers": 2,
        "requests": 10,
        "lru_hits": 2,
        "store_hits": 3,
        "misses": 5,
        "coalesced": 1,
        "reroutes": 3,
        "reroutes_saturation": 2,
        "reroutes_transport": 1,
        "deadline_shed": 0,
        "errors": 1,
        "probes": 4,
        "breaker_opened": 1,
        "readmissions": 1,
        "latency_ms": {
            "count": 10, "p50": 1.5, "p95": 9.0, "p99": 20.0, "max": 30.0,
        },
        "lru": {"size": 0, "capacity": 0},
        "backends": {
            "backend-0": {
                "alive": True,
                "breaker": {"state": "closed"},
                "served": 6,
                "failures": 0,
                "failures_saturation": 0,
                "failures_transport": 0,
                "reroutes_from": 0,
                "last_health": {
                    "queue_depth": 1, "queue_limit": 64,
                    "saturation": 0.02,
                },
            },
            "backend-1": {
                "alive": False,
                "breaker": {"state": "open"},
                "served": 4,
                "failures": 3,
                "failures_saturation": 2,
                "failures_transport": 1,
                "reroutes_from": 3,
                "last_health": None,
            },
        },
    },
}

METRICS_FIXTURE = {
    "enabled": True,
    "fleet": {
        "counters": {"fleet.requests": 10},
        "gauges": {},
        "histograms": {
            "fleet.request_ms": {
                "buckets": [1, 10, 100],
                "counts": [5, 3, 2, 0],
                "sum": 60.0,
                "count": 10,
                "exemplars": {"2": "ab" * 16},
            },
        },
        "sources": ["backend-0", "backend-1", "router"],
        "missing": ["backend-2"],
        "unmerged": [],
    },
}


class TestDashboardRender:
    def test_frame_carries_fleet_state(self):
        frame = render_fleet_top(
            STATS_FIXTURE, METRICS_FIXTURE, url="http://x:1"
        )
        assert "backend-0" in frame and "backend-1" in frame
        assert "open" in frame  # breaker state column
        assert "saturation 2" in frame and "transport 1" in frame
        assert "1/64" in frame  # backend-0 queue from last_health
        assert "ab" * 16 in frame  # slowest-bucket exemplar line
        assert "backend-2" in frame  # missing scrape target notice

    def test_frame_without_metrics_still_renders(self):
        frame = render_fleet_top(STATS_FIXTURE, None, url="http://x:1")
        assert "backend-0" in frame
        assert "reroutes" in frame

    def test_run_fleet_top_once_emits_one_frame(self, served):
        client = ServiceClient(served.url)
        client.compile(request())
        frames = []
        code = run_fleet_top(
            client, iterations=1, emit=frames.append, clear=False,
            sleep=lambda _s: None,
        )
        assert code == 0
        assert len(frames) == 1

    def test_run_fleet_top_reports_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        emitted = []
        code = run_fleet_top(
            client, iterations=1, emit=emitted.append, clear=False,
            sleep=lambda _s: None,
        )
        assert code == 75
