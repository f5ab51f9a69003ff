"""Jittered-backoff retry and file-backed campaign checkpoints."""

import json

import pytest

from repro.errors import AnalysisError, ReproError
from repro.resilience.retry import (
    Checkpoint,
    backoff_delays,
    retry_with_backoff,
)


class TestBackoffDelays:
    def test_seed_deterministic(self):
        assert backoff_delays(5, seed=3) == backoff_delays(5, seed=3)
        assert backoff_delays(5, seed=3) != backoff_delays(5, seed=4)

    def test_delays_within_growing_caps(self):
        delays = backoff_delays(6, base_delay=0.05, max_delay=2.0, seed=0)
        for attempt, delay in enumerate(delays):
            assert 0.0 <= delay <= min(2.0, 0.05 * (2 ** attempt))


class TestRetryWithBackoff:
    def test_succeeds_after_transient_failures(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise AnalysisError("transient")
            return "done"

        assert retry_with_backoff(
            flaky, retries=3, sleep=slept.append
        ) == "done"
        assert len(calls) == 3
        assert slept == list(backoff_delays(3)[:2])

    def test_final_error_propagates_typed(self):
        slept = []

        def dead():
            raise AnalysisError("permanent")

        with pytest.raises(AnalysisError):
            retry_with_backoff(dead, retries=2, sleep=slept.append)
        assert len(slept) == 2  # retries count re-tries, not attempts

    def test_non_retryable_error_escapes_immediately(self):
        calls = []

        def wrong():
            calls.append(1)
            raise KeyError("not a pipeline error")

        with pytest.raises(KeyError):
            retry_with_backoff(wrong, retries=5, sleep=lambda _: None)
        assert len(calls) == 1

    def test_on_retry_observes_schedule(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise AnalysisError("transient")
            return True

        assert retry_with_backoff(
            flaky,
            retries=4,
            sleep=lambda _: None,
            on_retry=lambda attempt, exc, delay: seen.append(
                (attempt, type(exc).__name__)
            ),
        )
        assert seen == [(1, "AnalysisError"), (2, "AnalysisError")]


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = Checkpoint(path, key={"seed": 1})
        assert checkpoint.load() is None
        checkpoint.save({"next_index": 7})
        assert checkpoint.load() == {"next_index": 7}

    def test_key_mismatch_discards_state(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        Checkpoint(path, key={"seed": 1}).save({"next_index": 7})
        assert Checkpoint(path, key={"seed": 2}).load() is None

    def test_corrupt_file_downgrades_to_none(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        assert Checkpoint(str(path), key={}).load() is None

    def test_version_mismatch_discards_state(self, tmp_path):
        path = tmp_path / "ckpt.json"
        payload = {"version": 999, "key": {}, "state": {"next_index": 1}}
        path.write_text(json.dumps(payload))
        assert Checkpoint(str(path), key={}).load() is None

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        checkpoint = Checkpoint(str(path), key={})
        checkpoint.save({"next_index": 1})
        assert path.exists()
        checkpoint.clear()
        assert not path.exists()
        checkpoint.clear()  # idempotent


class TestCampaignResume:
    """run_campaign checkpoint/retry (the difftest loop wiring)."""

    @staticmethod
    def _ok_report(spec):
        from repro.difftest.oracle import OracleReport

        return OracleReport(program_name=spec.describe(), spec=spec)

    def test_crash_is_retried_then_recorded(self):
        from repro.difftest.runner import run_campaign

        attempts = {}

        def check(spec):
            key = spec.describe()
            attempts[key] = attempts.get(key, 0) + 1
            raise AnalysisError("always dead")

        result = run_campaign(
            seed=0, budget=1, include_templates=False,
            check=check, retries=2, sleep=lambda _: None,
        )
        # Not killed: the crash became a recorded failure after retries.
        assert result.checked == 1
        assert len(result.failures) == 1
        (record,) = result.failures
        assert record.report.failures[0].stage == "crash"
        assert "AnalysisError" in record.report.failures[0].message
        assert list(attempts.values()) == [3]  # 1 try + 2 retries

    def test_transient_crash_recovers_silently(self):
        from repro.difftest.runner import run_campaign

        calls = []

        def check(spec):
            calls.append(spec)
            if len(calls) == 1:
                raise AnalysisError("transient")
            return self._ok_report(spec)

        result = run_campaign(
            seed=0, budget=2, include_templates=False,
            check=check, retries=1, sleep=lambda _: None,
        )
        assert result.ok
        assert result.checked == 2

    def test_interrupted_campaign_resumes_from_checkpoint(self, tmp_path):
        from repro.difftest.runner import run_campaign

        path = str(tmp_path / "campaign.json")
        first_run = []

        def dies_at_third(spec):
            first_run.append(spec)
            if len(first_run) == 3:
                raise RuntimeError("simulated interruption")
            return self._ok_report(spec)

        with pytest.raises(RuntimeError):
            run_campaign(
                seed=0, budget=5, include_templates=False,
                check=dies_at_third, checkpoint_path=path,
            )

        second_run = []

        def works(spec):
            second_run.append(spec)
            return self._ok_report(spec)

        result = run_campaign(
            seed=0, budget=5, include_templates=False,
            check=works, checkpoint_path=path,
        )
        assert result.checked == 5
        # The two completed specs were not re-checked.
        assert len(second_run) == 3
        # Completion clears the checkpoint.
        assert not (tmp_path / "campaign.json").exists()

    def test_checkpoint_preserves_recorded_failures(self, tmp_path):
        from repro.difftest.runner import run_campaign

        path = str(tmp_path / "campaign.json")
        state = {"first": None, "others": 0}

        def check(spec):
            name = spec.describe()
            if state["first"] is None:
                state["first"] = name
            if name == state["first"]:
                raise AnalysisError("dies every time")
            state["others"] += 1
            if state["others"] == 2:
                raise RuntimeError("simulated interruption")
            return self._ok_report(spec)

        with pytest.raises(RuntimeError):
            run_campaign(
                seed=0, budget=4, include_templates=False,
                check=check, checkpoint_path=path,
                retries=1, sleep=lambda _: None,
            )

        result = run_campaign(
            seed=0, budget=4, include_templates=False,
            check=lambda spec: self._ok_report(spec),
            checkpoint_path=path,
        )
        assert result.checked == 4
        # The crash-failure recorded before the interruption survived it.
        assert len(result.failures) == 1
        assert result.failures[0].report.failures[0].stage == "crash"

    def test_different_parameters_ignore_stale_checkpoint(self, tmp_path):
        from repro.difftest.runner import run_campaign

        path = str(tmp_path / "campaign.json")

        def dies_last(spec, _counter=[]):
            _counter.append(spec)
            if len(_counter) == 2:
                raise RuntimeError("boom")
            return self._ok_report(spec)

        with pytest.raises(RuntimeError):
            run_campaign(
                seed=0, budget=2, include_templates=False,
                check=dies_last, checkpoint_path=path,
            )

        # A different seed is a different campaign: starts from spec 0.
        calls = []
        result = run_campaign(
            seed=1, budget=2, include_templates=False,
            check=lambda spec: (calls.append(spec), self._ok_report(spec))[1],
            checkpoint_path=path,
        )
        assert result.checked == 2
        assert len(calls) == 2


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
