"""Pipeline-wide observability: spans, metrics, and report embedding.

These tests drive the real session pipeline under ``capture`` and assert
the tracing contract the CLI relies on: broad stage coverage, a valid
Chrome export, metrics that match the search's own telemetry, and —
crucially — that instrumentation never changes search results.
"""

import pytest

from repro.analysis.cache import clear_caches
from repro.analysis.constraints import ConstraintSet
from repro.analysis.search import search_mapping
from repro.errors import ReproError
from repro.observability import capture, configure, get_tracer, get_metrics
from repro.observability import validate_chrome_trace
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, inject_faults
from repro.runtime.session import GpuSession

#: The acceptance bar: a traced compile+estimate+run covers at least
#: this many distinct pipeline stages.
MIN_DISTINCT_STAGES = 6


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestPipelineCoverage:
    def test_traced_compile_covers_pipeline_stages(self, sum_cols_program):
        import numpy as np

        with capture() as obs:
            compiled = GpuSession().compile(sum_cols_program, R=32, C=32)
            compiled.estimate_cost()
            compiled.run(m=np.ones((32, 32)), R=32, C=32)
        stages = obs.tracer.span_names()
        expected = {
            "analysis", "constraints", "search", "control_dop",
            "optimize", "codegen", "simulate", "interpret", "compile",
        }
        assert expected <= stages
        assert len(stages) >= MIN_DISTINCT_STAGES
        assert validate_chrome_trace(obs.tracer.to_chrome()) == []

    def test_metrics_capture_pipeline_counters(self, sum_cols_program):
        with capture() as obs:
            compiled = GpuSession().compile(sum_cols_program, R=32, C=32)
            compiled.estimate_cost()
        snap = obs.metrics.to_dict()
        counters = snap["counters"]
        assert counters["compile.runs"] == 1
        assert counters["search.runs"] >= 1
        assert counters["simulate.kernels"] >= 1
        # Constraint taxonomy counts (Hard/Soft x scope) are recorded.
        assert any(k.startswith("constraints.hard.") for k in counters)
        assert any(k.startswith("constraints.soft.") for k in counters)
        # Cost-model component sums flow into cost.* counters.
        assert counters["cost.launch_us"] > 0
        # Per-stage wall time lands in stage_ms.* histograms.
        assert snap["histograms"]["stage_ms.compile"]["count"] == 1


class TestSearchEquivalenceUnderTracing:
    def test_tracing_does_not_change_the_result(self):
        cset = ConstraintSet()
        sizes = (64, 64)
        baseline = search_mapping(2, cset, sizes)
        with capture():
            traced = search_mapping(2, cset, sizes)
        assert traced.mapping == baseline.mapping
        assert traced.score == baseline.score
        assert traced.candidates_scored == baseline.candidates_scored
        assert traced.strategy == baseline.strategy


class TestElapsedReporting:
    def test_budget_exhausted_search_reports_true_elapsed_once(self):
        """Regression: the budget-exhausted path used to leave elapsed_ms
        at the fallback constructor's value instead of the measured wall
        time of the attempt."""
        cset = ConstraintSet()
        result = search_mapping(
            3, cset, (32, 32, 32), budget=Budget(max_nodes=50)
        )
        assert result.degraded
        assert result.elapsed_ms > 0.0
        assert result.telemetry()["elapsed_ms"] == result.elapsed_ms

    def test_telemetry_is_single_source_for_explain(self):
        from repro.observability.provenance import KernelProvenance

        result = search_mapping(2, ConstraintSet(), (32, 32))
        data = result.telemetry()
        record = KernelProvenance(
            index=0, depth=2, level_sizes=[32, 32], mapping=str(result.mapping),
            score=result.score, max_score=0.0, search=data,
        )
        lines = record.render()
        assert f"  strategy: {data['strategy']}\n" in lines
        assert (
            f"  work: {data['candidates_scored']} scored, "
            f"{data['candidates_skipped']} skipped"
        ) in lines


class TestFailureReportTraceEmbed:
    def test_report_embeds_trace_tail_when_tracing(self, sum_rows_program):
        plan = FaultPlan.single("codegen", kind="exception")
        with capture():
            with inject_faults(plan):
                with pytest.raises(ReproError) as info:
                    GpuSession().compile(sum_rows_program, R=32, C=32)
        report = info.value.failure_report
        assert report.trace
        assert any(e.get("name") == "search" for e in report.trace)
        # The embedded tail survives serialization round trips.
        from repro.resilience.reports import FailureReport

        clone = FailureReport.from_dict(report.to_dict())
        assert clone.trace == report.trace

    def test_report_omits_trace_when_disabled(self, sum_rows_program):
        plan = FaultPlan.single("codegen", kind="exception")
        with inject_faults(plan):
            with pytest.raises(ReproError) as info:
                GpuSession().compile(sum_rows_program, R=32, C=32)
        report = info.value.failure_report
        assert report.trace is None
        assert "trace" not in report.to_dict()


class TestBackendSwitching:
    def test_disabled_by_default(self):
        assert get_tracer().enabled is False
        assert get_metrics().enabled is False

    def test_capture_restores_previous_backends(self):
        before_tracer, before_metrics = get_tracer(), get_metrics()
        with pytest.raises(RuntimeError):
            with capture():
                assert get_tracer().enabled
                assert get_metrics().enabled
                raise RuntimeError("escape")
        assert get_tracer() is before_tracer
        assert get_metrics() is before_metrics

    def test_configure_installs_and_removes(self):
        try:
            configure(tracing=True, metrics=True)
            assert get_tracer().enabled
            assert get_metrics().enabled
        finally:
            configure(tracing=False, metrics=False)
        assert not get_tracer().enabled
        assert not get_metrics().enabled
