"""Deterministic fault injection: plans, schedules, and the replay reset."""

import pytest

from repro.errors import InjectedFaultError
from repro.resilience.faults import (
    FAULT_MATRIX,
    FLEET_FAULT_KINDS,
    FLEET_FAULT_MATRIX,
    KINDS,
    PIPELINE_STAGES,
    STAGES,
    FaultPlan,
    FaultSpec,
    active_plan,
    inject_faults,
    maybe_inject,
)


class TestFaultSpec:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(stage="nosuchstage")

    def test_kind_must_apply_to_stage(self):
        with pytest.raises(ValueError):
            FaultSpec(stage="analysis", kind="nan")
        with pytest.raises(ValueError):
            FaultSpec(stage="simulator", kind="deadline")

    def test_fires_at_window(self):
        spec = FaultSpec(stage="search", at=2, times=2)
        assert [spec.fires_at(i) for i in range(1, 6)] == [
            False, True, True, False, False,
        ]

    def test_times_zero_fires_forever(self):
        spec = FaultSpec(stage="search", at=3, times=0)
        assert not spec.fires_at(2)
        assert all(spec.fires_at(i) for i in range(3, 50))

    def test_round_trip(self):
        spec = FaultSpec(stage="simulator", kind="nan", at=4, times=2)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultMatrix:
    def test_matrix_covers_every_pipeline_stage(self):
        assert {stage for stage, _ in FAULT_MATRIX} == set(PIPELINE_STAGES)

    def test_matrix_kinds_are_valid(self):
        for stage, kind in FAULT_MATRIX + FLEET_FAULT_MATRIX:
            assert kind in KINDS
            FaultSpec(stage=stage, kind=kind)  # must not raise

    def test_exception_applies_everywhere(self):
        exception_stages = {s for s, k in FAULT_MATRIX if k == "exception"}
        assert exception_stages == set(PIPELINE_STAGES)
        FaultSpec(stage="fleet", kind="exception")  # must not raise

    def test_fleet_matrix_is_disjoint_from_pipeline_matrix(self):
        # ``repro chaos`` (pipeline) and ``repro fleet chaos`` iterate
        # disjoint matrices: a fleet fault needs a running fleet to fire.
        assert set(STAGES) - set(PIPELINE_STAGES) == {"fleet"}
        assert {stage for stage, _ in FLEET_FAULT_MATRIX} == {"fleet"}
        assert {kind for _, kind in FLEET_FAULT_MATRIX} == set(
            FLEET_FAULT_KINDS
        )
        assert not set(FLEET_FAULT_MATRIX) & set(FAULT_MATRIX)


class TestFaultPlan:
    def test_no_plan_is_a_noop(self):
        assert active_plan() is None
        assert maybe_inject("analysis") is None

    def test_exception_kind_raises_with_stage(self):
        plan = FaultPlan.single("analysis", "exception")
        with inject_faults(plan):
            with pytest.raises(InjectedFaultError) as info:
                maybe_inject("analysis")
        assert info.value.stage == "analysis"
        assert plan.fired == [("analysis", "exception", 1)]

    def test_data_kind_returned_not_raised(self):
        plan = FaultPlan.single("simulator", "nan")
        with inject_faults(plan):
            spec = maybe_inject("simulator")
        assert spec is not None and spec.kind == "nan"

    def test_fires_on_nth_invocation_only(self):
        plan = FaultPlan.single("search", "deadline", at=3)
        with inject_faults(plan):
            assert maybe_inject("search") is None
            assert maybe_inject("search") is None
            assert maybe_inject("search") is not None
            assert maybe_inject("search") is None

    def test_reinstall_resets_counters(self):
        """The replay guarantee: the same plan over the same call sequence
        fires identically every time it is (re)installed."""
        plan = FaultPlan.single("search", "deadline", at=2)

        def drive():
            fired = []
            for _ in range(4):
                fired.append(maybe_inject("search") is not None)
            return fired

        with inject_faults(plan):
            first = drive()
        with inject_faults(plan):
            second = drive()
        assert first == second == [False, True, False, False]

    def test_nested_install_restores_previous(self):
        outer = FaultPlan.single("analysis")
        inner = FaultPlan.single("codegen")
        with inject_faults(outer):
            with inject_faults(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_plan_round_trip(self):
        plan = FaultPlan([
            FaultSpec(stage="analysis"),
            FaultSpec(stage="simulator", kind="nan", at=2),
            FaultSpec(stage="search", kind="deadline", at=3, times=0),
            FaultSpec(stage="fleet", kind="kill", at=1, times=4),
        ])
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.specs == plan.specs

    def test_describe_lists_specs(self):
        plan = FaultPlan.single("simulator", "nan", at=2)
        assert "simulator/nan@2" in plan.describe()
        assert FaultPlan().describe() == "fault plan: empty"
