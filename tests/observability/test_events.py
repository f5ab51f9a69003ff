"""Unit tests for the bounded structured control-plane event log."""

import threading

import pytest

from repro.observability.events import (
    EVENT_KINDS,
    EventLog,
    emit_event,
    get_event_log,
)


class TestEventLog:
    def test_emit_assigns_monotone_seq(self):
        log = EventLog()
        first = log.emit("reroute", digest="d1")
        second = log.emit("deadline_shed", digest="d2")
        assert second["seq"] == first["seq"] + 1

    def test_unknown_kind_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit("not-a-kind")

    def test_snapshot_returns_events_in_order(self):
        log = EventLog()
        for index in range(5):
            log.emit("reroute", index=index)
        snapshot = log.snapshot()
        assert [e["index"] for e in snapshot["events"]] == list(range(5))
        assert snapshot["dropped"] == 0

    def test_since_filters_by_seq(self):
        log = EventLog()
        events = [log.emit("reroute", index=i) for i in range(4)]
        snapshot = log.snapshot(since=events[1]["seq"])
        assert [e["index"] for e in snapshot["events"]] == [2, 3]

    def test_next_seq_supports_incremental_follow(self):
        log = EventLog()
        log.emit("reroute")
        cursor = log.snapshot()["next_seq"]
        assert log.snapshot(since=cursor - 1)["events"] == []
        log.emit("deadline_shed")
        fresh = log.snapshot(since=cursor - 1)["events"]
        assert [e["kind"] for e in fresh] == ["deadline_shed"]

    def test_bounded_capacity_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for index in range(10):
            log.emit("reroute", index=index)
        snapshot = log.snapshot()
        assert [e["index"] for e in snapshot["events"]] == [7, 8, 9]
        assert snapshot["dropped"] == 7
        assert snapshot["capacity"] == 3

    def test_every_declared_kind_is_accepted(self):
        log = EventLog()
        for kind in EVENT_KINDS:
            log.emit(kind)
        assert log.snapshot()["events"][-1]["kind"] == EVENT_KINDS[-1]

    def test_concurrent_emitters_lose_nothing(self):
        log = EventLog(capacity=10_000)
        threads = [
            threading.Thread(
                target=lambda: [log.emit("reroute") for _ in range(200)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = log.snapshot()
        assert len(snapshot["events"]) == 1600
        seqs = [e["seq"] for e in snapshot["events"]]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 1600


class TestProcessSingleton:
    def test_emit_event_lands_in_shared_log(self):
        log = get_event_log()
        mark = log.snapshot()["next_seq"]
        emit_event("quarantine", artifact="deadbeef.json")
        fresh = log.snapshot(since=mark - 1)["events"]
        assert any(
            e["kind"] == "quarantine"
            and e.get("artifact") == "deadbeef.json"
            for e in fresh
        )


class TestDegradationEvents:
    """Each degradation note comes with an event and a counter."""

    @pytest.mark.parametrize(
        "stage, kind",
        [("search", "fallback_mapping"), ("optimizer", "unoptimized_plan")],
    )
    def test_one_event_and_counter_per_degradation(
        self, sum_cols_program, events, stage, kind
    ):
        from repro import GpuSession
        from repro.observability import capture
        from repro.resilience.faults import FaultPlan, inject_faults

        with capture() as obs, inject_faults(FaultPlan.single(stage)):
            compiled = GpuSession().compile(sum_cols_program, R=128, C=128)
        assert len(compiled.degradations) == 1
        (event,) = events(kind)
        assert event["program"] == "sumCols"
        assert event["kernel"] == 0
        assert "InjectedFaultError" in event["reason"]
        counters = obs.metrics.to_dict()["counters"]
        assert counters[f"resilience.degradation.{kind}"] == 1
        assert counters["resilience.degradation.activations"] == 1
