"""The admission core shared by the compile service and the fleet router:
the join-time deadline merge, and counter consistency under contention.
"""

import sys
import threading
import time

import pytest

from repro.service import (
    STATUS_MISS,
    CompileRequest,
    CompileService,
    FleetConfig,
    FleetRouter,
    LocalBackend,
    ServiceConfig,
)
from repro.service.store import CompileArtifact


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


def request(rows: int, deadline_s=None) -> CompileRequest:
    return CompileRequest(
        app="sumRows", sizes={"R": rows, "C": 32}, deadline_s=deadline_s
    )


def gated_service(gate: threading.Event, workers: int) -> CompileService:
    def compile_fn(req, digest):
        if not gate.wait(timeout=30):
            raise TimeoutError("test gate never opened")
        return fake_artifact(digest)

    return CompileService(
        ServiceConfig(workers=workers),
        compile_fn=compile_fn,
    )


def service_layer(gate: threading.Event):
    return gated_service(gate, workers=1)


def fleet_layer(gate: threading.Event):
    backend = LocalBackend("b0", gated_service(gate, workers=2))
    return FleetRouter(
        [backend],
        FleetConfig(lru_capacity=0, dispatchers=1, probe_interval_s=0),
        owns_backends=True,
    )


@pytest.mark.parametrize(
    "make_layer", [service_layer, fleet_layer], ids=["service", "fleet"]
)
def test_join_without_deadline_keeps_shared_job_alive(make_layer):
    gate = threading.Event()
    layer = make_layer(gate)
    try:
        # The single worker is busy, so the next job waits in the queue
        # past its first submitter's tight budget.
        blocker = layer.submit(request(64))
        tight = layer.submit(request(128, deadline_s=0.2))
        unbounded = layer.submit(request(128))
        assert unbounded.role == "coalesced"
        time.sleep(0.4)
        gate.set()
        outcomes = [
            ticket.result(timeout=30)
            for ticket in (blocker, tight, unbounded)
        ]
        assert all(outcome.status == STATUS_MISS for outcome in outcomes)
        assert outcomes[1].artifact == outcomes[2].artifact
        assert outcomes[1].artifact is not None
        assert layer.stats()["deadline_shed"] == 0
    finally:
        gate.set()
        layer.close()


def test_counters_stay_consistent_under_contention(tmp_path):
    service = CompileService(
        ServiceConfig(
            workers=4,
            queue_limit=1024,
            cache_dir=str(tmp_path / "cache"),
        ),
        compile_fn=lambda req, digest: fake_artifact(digest),
    )
    threads_n, per_thread, digests = 8, 40, 12
    errors = []

    def client(index: int) -> None:
        try:
            for step in range(per_thread):
                rows = 64 + 32 * ((index + step) % digests)
                assert service.submit(request(rows)).result(timeout=30).ok
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        service.close(save=False)
    assert errors == []
    stats = service.stats()
    assert stats["requests"] == threads_n * per_thread
    # Every request was answered once by exactly one admission path, and
    # only misses that no other process filled ran the pipeline.
    assert stats["requests"] == (
        stats["cache_hits"] + stats["cache_misses"] + stats["coalesced"]
    )
    assert stats["executions"] == stats["cache_misses"] == digests
    assert stats["queue_depth"] == 0
    assert stats["errors"] == 0
