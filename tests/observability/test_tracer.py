"""Unit tests for the span tracer and its Chrome trace-event export."""

import json

import pytest

from repro.observability import tracer as tracer_module
from repro.observability.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
    validate_chrome_trace,
)


class TestSpans:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("search", levels=2) as span:
            span.set(candidates=7)
        events = tracer.events()
        assert len(events) == 1
        event = events[0]
        assert event["ph"] == "X"
        assert event["name"] == "search"
        assert event["dur"] >= 0
        assert event["args"] == {"levels": 2, "candidates": 7}

    def test_nested_spans_both_recorded(self):
        tracer = Tracer()
        with tracer.span("compile"):
            with tracer.span("search"):
                pass
        # Inner spans close (and record) first.
        assert [e["name"] for e in tracer.events()] == ["search", "compile"]
        assert tracer.span_names() == {"compile", "search"}

    def test_span_records_error_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("search"):
                raise ValueError("boom")
        event = tracer.events()[0]
        assert event["args"]["error"] == "ValueError"

    def test_span_exit_does_not_swallow_exception(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("s"):
                raise KeyError("x")

    def test_instant_event(self):
        tracer = Tracer()
        tracer.instant("search.prune", kind="score-bound")
        event = tracer.events()[0]
        assert event["ph"] == "i"
        assert event["args"] == {"kind": "score-bound"}
        # Instants are not spans, so they don't count as stage coverage.
        assert tracer.span_names() == set()

    def test_timestamps_are_monotone(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.events()
        assert b["ts"] >= a["ts"]

    def test_tail_returns_most_recent(self):
        tracer = Tracer()
        for i in range(10):
            tracer.instant(f"e{i}")
        tail = tracer.tail(3)
        assert [e["name"] for e in tail] == ["e7", "e8", "e9"]


class TestChromeExport:
    def test_document_shape(self):
        tracer = Tracer()
        with tracer.span("compile"):
            tracer.instant("mark")
        doc = tracer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases == ["M", "i", "X"]

    def test_validates_clean(self):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_write_round_trips_as_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("compile", program="p"):
            pass
        path = tracer.write(str(tmp_path / "trace.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert validate_chrome_trace(doc) == []
        names = [e["name"] for e in doc["traceEvents"]]
        assert "compile" in names

    @pytest.mark.parametrize(
        "document,expected",
        [
            ({}, "traceEvents is not a list"),
            ({"traceEvents": [{"ph": "B"}]}, "unsupported phase"),
            ({"traceEvents": [{"ph": "X", "name": "s", "ts": -1, "dur": 1}]},
             "bad ts"),
            ({"traceEvents": [{"ph": "X", "name": "s", "ts": 0}]}, "bad dur"),
            ({"traceEvents": [{"ph": "i", "ts": 0}]}, "no name"),
        ],
    )
    def test_validation_catches_malformed(self, document, expected):
        problems = validate_chrome_trace(document)
        assert problems and any(expected in p for p in problems)


class TestRing:
    """The tracer keeps the most recent events and declares the rest."""

    CAPACITY = 8
    EXTRA = 5

    @pytest.fixture(autouse=True)
    def small_ring(self, monkeypatch):
        monkeypatch.setattr(
            tracer_module, "DEFAULT_TRACE_CAPACITY", self.CAPACITY
        )

    def test_ring_retains_capacity_and_declares_every_drop(self, tmp_path):
        tracer = Tracer()
        total = self.CAPACITY + self.EXTRA
        for i in range(total):
            with tracer.span(f"s{i}"):
                pass
        assert [e["name"] for e in tracer.events()] == [
            f"s{i}" for i in range(self.EXTRA, total)
        ]
        assert tracer.dropped == self.EXTRA
        assert tracer.tail_info(self.CAPACITY) == (
            tracer.events(), self.EXTRA
        )
        tail, dropped = tracer.tail_info(3)
        assert [e["name"] for e in tail] == [
            f"s{i}" for i in range(total - 3, total)
        ]
        assert dropped == total - 3
        with open(tracer.write(str(tmp_path / "trace.json"))) as handle:
            document = json.load(handle)
        assert validate_chrome_trace(document) == []
        assert [
            e for e in document["traceEvents"]
            if e["name"] == "dropped_events"
        ] == [{
            "name": "dropped_events",
            "ph": "M",
            "pid": 1,
            "args": {"dropped_events": self.EXTRA},
        }]
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == self.CAPACITY

    def test_no_drop_record_until_something_is_dropped(self):
        tracer = Tracer()
        tracer.instant("mark")
        assert tracer.dropped == 0
        assert all(
            e["name"] != "dropped_events"
            for e in tracer.to_chrome()["traceEvents"]
        )


class TestNullBackend:
    def test_span_is_shared_singleton(self):
        # The zero-overhead guarantee: a disabled span never allocates.
        assert NULL_TRACER.span("anything", key="value") is NULL_SPAN
        assert NullTracer().span("other") is NULL_SPAN

    def test_null_span_accepts_full_api(self):
        with NULL_TRACER.span("s") as span:
            span.set(a=1)
            span.event("mark", b=2)
        NULL_TRACER.instant("i")
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.tail() == []
        assert NULL_TRACER.span_names() == set()

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("s"):
                raise RuntimeError("must propagate")

    def test_disabled_flags(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True


class TestTraceContext:
    def test_ids_have_traceparent_widths(self):
        from repro.observability.tracer import (
            is_valid_trace_id,
            new_span_id,
            new_trace_id,
        )

        tid = new_trace_id()
        assert is_valid_trace_id(tid)
        assert len(new_span_id()) == 16
        assert not is_valid_trace_id(tid[:-1])
        assert not is_valid_trace_id(tid.upper())
        assert not is_valid_trace_id(None)
        assert not is_valid_trace_id(12345)

    def test_spans_outside_context_carry_no_ids(self):
        # The zero-overhead contract: without an active trace context,
        # no ids are generated and no id args are attached.
        tracer = Tracer()
        with tracer.span("bare"):
            pass
        event = tracer.events()[0]
        assert "trace_id" not in event.get("args", {})
        assert "span_id" not in event.get("args", {})

    def test_context_attaches_and_nests_span_ids(self):
        tracer = Tracer()
        trace_id = "cd" * 16
        with tracer.trace_context(trace_id, "f" * 16):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    pass
        events = {e["name"]: e["args"] for e in tracer.events()}
        assert events["outer"]["trace_id"] == trace_id
        assert events["outer"]["parent_span_id"] == "f" * 16
        assert events["inner"]["parent_span_id"] == outer.span_id
        assert inner.span_id != outer.span_id

    def test_root_context_has_no_parent(self):
        tracer = Tracer()
        with tracer.trace_context("ab" * 16):
            with tracer.span("root"):
                pass
        args = tracer.events()[0]["args"]
        assert "parent_span_id" not in args

    def test_none_trace_id_activates_nothing(self):
        tracer = Tracer()
        with tracer.trace_context(None, "f" * 16):
            assert tracer.current_context() is None
            with tracer.span("untraced"):
                assert tracer.current_context() is None
        args = tracer.events()[0].get("args", {})
        assert "trace_id" not in args
        assert "span_id" not in args

    def test_context_unwinds_after_exit(self):
        tracer = Tracer()
        with tracer.trace_context("ab" * 16):
            pass
        assert tracer.current_context() is None
        with tracer.span("after"):
            pass
        assert "trace_id" not in tracer.events()[-1].get("args", {})

    def test_context_unwinds_past_leaked_span(self):
        tracer = Tracer()
        span = tracer.span("leaked")
        with tracer.trace_context("ab" * 16):
            span.__enter__()  # never exited inside the context
        assert tracer.current_context() is None

    def test_instants_tagged_with_active_context(self):
        tracer = Tracer()
        with tracer.trace_context("ab" * 16):
            with tracer.span("op"):
                tracer.instant("checkpoint")
        instant = [e for e in tracer.events() if e["ph"] == "i"][0]
        assert instant["args"]["trace_id"] == "ab" * 16

    def test_events_for_trace_filters(self):
        tracer = Tracer()
        with tracer.span("untagged"):
            pass
        with tracer.trace_context("ab" * 16):
            with tracer.span("tagged"):
                pass
        with tracer.trace_context("ef" * 16):
            with tracer.span("other"):
                pass
        names = [e["name"] for e in tracer.events_for_trace("ab" * 16)]
        assert names == ["tagged"]

    def test_tail_info_reports_dropped(self):
        tracer = Tracer()
        for index in range(7):
            with tracer.span(f"s{index}"):
                pass
        events, dropped = tracer.tail_info(3)
        assert [e["name"] for e in events] == ["s4", "s5", "s6"]
        assert dropped == 4
        full, none_dropped = tracer.tail_info(100)
        assert len(full) == 7
        assert none_dropped == 0

    def test_null_tracer_context_is_inert(self):
        with NULL_TRACER.trace_context("ab" * 16, "f" * 16):
            with NULL_TRACER.span("s"):
                pass
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.tail_info() == ([], 0)
        assert NULL_TRACER.events_for_trace("ab" * 16) == []
