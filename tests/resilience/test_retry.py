"""The jittered backoff schedule, a difftest campaign's crash rule, and
the experiments sweep's all-or-nothing write."""

import pytest

from repro.errors import AnalysisError
from repro.resilience.retry import backoff_delays


class TestBackoffDelays:
    def test_seed_deterministic(self):
        assert backoff_delays(5, seed=3) == backoff_delays(5, seed=3)
        assert backoff_delays(5, seed=3) != backoff_delays(5, seed=4)

    def test_delays_within_growing_caps(self):
        delays = backoff_delays(6, base_delay=0.05, max_delay=2.0, seed=0)
        for attempt, delay in enumerate(delays):
            assert 0.0 <= delay <= min(2.0, 0.05 * (2 ** attempt))


class TestCrashIsRecordedOnce:
    """run_campaign checks each spec once; a crash becomes a failure."""

    def test_crashing_check_is_one_unshrunk_crash_failure(self):
        from repro.difftest.oracle import OracleReport
        from repro.difftest.runner import run_campaign

        calls = []

        def check(spec):
            calls.append(spec)
            if len(calls) == 1:
                raise AnalysisError("analysis blew up")
            return OracleReport(program_name=spec.describe(), spec=spec)

        result = run_campaign(
            seed=0, budget=3, include_templates=False, check=check,
        )
        # Not killed, and not re-run: three specs, three checks.
        assert result.checked == 3
        assert len(calls) == 3
        (record,) = result.failures
        (failure,) = record.report.failures
        assert failure.stage == "crash"
        assert "AnalysisError" in failure.message
        assert record.shrunk == record.spec
        assert record.shrink_checks == 0

    def test_crash_while_shrinking_is_recorded(self):
        from repro.difftest.oracle import OracleReport
        from repro.difftest.runner import run_campaign

        calls = []

        def check(spec):
            # The spec fails the oracle; every shrink candidate crashes.
            calls.append(spec)
            if len(calls) > 1:
                raise AnalysisError("shrunk candidate crashes")
            report = OracleReport(program_name=spec.describe(), spec=spec)
            report.fail("strategy", "wrong result")
            return report

        result = run_campaign(
            seed=0, budget=1, include_templates=False, check=check,
        )
        assert result.checked == 1
        (record,) = result.failures
        assert record.shrink_checks > 0
        assert record.report.failures[0].stage == "crash"


class TestExperimentsSweep:
    """write_experiments_md never writes a partial sweep."""

    class _Fake:
        def __init__(self, title):
            self.title = title

        def render(self):
            return f"# {self.title}\n\nheader\nrow-{self.title}"

    def _install_registry(self, monkeypatch, fail_once_on=None):
        import repro.figures.runner as runner

        state = {"failed": False}

        def make(eid):
            def fn(device=None):
                if eid == fail_once_on and not state["failed"]:
                    state["failed"] = True
                    raise AnalysisError(f"{eid} transient")
                return self._Fake(eid)
            return fn

        registry = {"expA": make("expA"), "expB": make("expB")}
        monkeypatch.setattr(runner, "EXPERIMENTS", registry)
        return state

    def test_failing_sweep_writes_no_file(self, tmp_path, monkeypatch):
        from repro.figures.runner import write_experiments_md

        self._install_registry(monkeypatch, fail_once_on="expB")
        out = tmp_path / "EXP.md"

        with pytest.raises(AnalysisError):
            write_experiments_md(str(out))
        assert not out.exists()  # a partial sweep never writes the file

        write_experiments_md(str(out))
        text = out.read_text()
        assert "row-expA" in text and "row-expB" in text
