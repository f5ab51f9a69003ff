"""Fleet-level chaos: fault campaigns against a live router + backends.

The pipeline chaos matrix (:mod:`repro.resilience.chaos`) proves one
process absorbs injected faults; this module proves the *fleet* does.
Each campaign builds a real :class:`~repro.service.fleet.FleetRouter`
over in-process backends, wraps one member (the *victim*) in a
:class:`ChaosBackend` that consults the PR-3 deterministic fault plan on
every dispatch, and drives three request waves:

1. **baseline** — no faults installed; every request must succeed;
2. **fault** — a ``("fleet", kind)`` plan is live and the wave is aimed
   at the victim's ring shard, so the fault is guaranteed to fire;
   every ticket must still resolve successfully (failover absorbs the
   victim) — *zero lost tickets* is the campaign's core assertion;
3. **heal** — the victim is restarted and the wave re-aimed at it; the
   background prober must readmit it (breaker reclosed, liveness flag
   restored) and the victim must serve at least one request again.

Fault kinds (see :data:`~repro.resilience.faults.FLEET_FAULT_KINDS`):
``kill`` (backend dead until restarted), ``hang`` (request stalls, then
fails), ``slow`` (response delayed, then served), ``partition``
(transport errors for a bounded window).  Campaigns are deterministic:
the fault plan, the victim choice, and the request set all derive from
the seed.

``repro fleet chaos`` and ``tests/resilience/test_fleet_chaos.py`` both
run through here, so the CLI and CI enforce the same contract.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ReproError, ServiceError
from .breaker import BREAKER_CLOSED
from .faults import FLEET_FAULT_KINDS, FaultPlan, maybe_inject

__all__ = [
    "ChaosBackend",
    "FleetChaosCell",
    "FleetChaosResult",
    "run_fleet_chaos_campaign",
    "run_fleet_chaos_matrix",
]

#: Outcome classes that count as resilient fleet behavior.
GOOD_OUTCOMES = ("healed",)

#: Structured control-plane events each fired fault kind must leave in
#: the event log (:mod:`repro.observability.events`).  A fault the
#: fleet absorbed *silently* is its own failure class: the operator's
#: event feed (``repro fleet events``) would have shown nothing while
#: requests were being rerouted.  ``slow`` injects latency but no
#: failure, so no control-plane transition is expected.
CAMPAIGN_EXPECTED_EVENTS: Dict[str, tuple] = {
    "kill": ("reroute",),
    "hang": ("reroute",),
    "partition": ("reroute",),
    "slow": (),
}


class ChaosBackend:
    """A fleet member that injects transport faults on dispatch.

    Wraps any :class:`~repro.service.fleet.Backend`; every ``compile``
    consults :func:`~repro.resilience.faults.maybe_inject` with the
    ``"fleet"`` stage, so the active :class:`FaultPlan` decides
    deterministically which invocation misbehaves and how:

    ========== =====================================================
    kind        effect on the firing invocation
    ========== =====================================================
    kill        backend enters a killed state (every later dispatch
                and probe fails) until :meth:`restart`
    hang        stalls ``hang_s`` seconds, then fails in transport
    slow        stalls ``slow_s`` seconds, then serves correctly
    partition   fails in transport (the spec's ``times`` window
                models the partition's duration)
    ========== =====================================================

    The router-facing liveness contract matches
    :class:`~repro.service.fleet.HttpBackend`: ``mark_dead`` is a
    router-side flag the prober can clear again, while ``probe`` asks
    the *backend* (failing while killed), which is exactly what makes
    post-restart readmission observable.
    """

    def __init__(
        self,
        inner: Any,
        hang_s: float = 0.2,
        slow_s: float = 0.05,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.hang_s = hang_s
        self.slow_s = slow_s
        self._killed = False
        self._dead = False
        #: Dispatches served *after* the most recent :meth:`restart` —
        #: the campaign's "victim serves traffic again" evidence.
        self.served_since_restart = 0

    # -- fault application ----------------------------------------------

    def compile(self, request):
        spec = maybe_inject("fleet")
        if spec is not None:
            if spec.kind == "kill":
                self._killed = True
            elif spec.kind == "hang":
                time.sleep(self.hang_s)
                raise ServiceError(
                    f"injected hang on backend {self.name}: request "
                    f"stalled {self.hang_s}s, then the connection died"
                )
            elif spec.kind == "slow":
                time.sleep(self.slow_s)
                outcome = self.inner.compile(request)
                self.served_since_restart += 1
                return outcome
            elif spec.kind == "partition":
                raise ServiceError(
                    f"injected partition: backend {self.name} is "
                    "unreachable"
                )
        if self._killed:
            raise ServiceError(
                f"backend {self.name} was killed by fault injection"
            )
        outcome = self.inner.compile(request)
        self.served_since_restart += 1
        return outcome

    # -- liveness contract ----------------------------------------------

    def alive(self) -> bool:
        return (
            not self._dead and not self._killed and self.inner.alive()
        )

    def mark_dead(self) -> None:
        self._dead = True

    def mark_alive(self) -> None:
        self._dead = False

    def probe(self) -> Dict[str, Any]:
        # Asks the backend itself (ignoring the router-side ``_dead``
        # flag) so a restarted victim passes and gets readmitted.
        if self._killed:
            raise ServiceError(
                f"backend {self.name} was killed by fault injection"
            )
        return self.inner.probe()

    def restart(self) -> None:
        """Heal the victim: the killed state clears, counters reset."""
        self._killed = False
        self.served_since_restart = 0

    def close(self) -> None:
        self.inner.close()


@dataclass
class FleetChaosCell:
    """Outcome of one fleet chaos campaign (one fault kind)."""

    kind: str
    outcome: str
    detail: str = ""
    fired: bool = False
    #: Tickets that never resolved (or resolved with an error) across
    #: all three waves.  The campaign's core invariant: always 0.
    lost: int = 0
    requests: int = 0
    #: Did the prober readmit the victim after the heal (breaker closed
    #: AND liveness restored), within the readmission budget?
    readmitted: bool = False
    #: Requests the victim served after its restart.
    victim_served_after_heal: int = 0
    reroutes: int = 0
    p99_ms: float = 0.0
    p99_bound_ms: float = 0.0
    #: Structured events the campaign left in the process event log,
    #: counted by kind (only events emitted after the campaign began).
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome in GOOD_OUTCOMES

    def describe(self) -> str:
        mark = "ok " if self.ok else "BAD"
        line = (
            f"[{mark}] fleet/{self.kind:<9} -> {self.outcome} "
            f"(lost {self.lost}/{self.requests}, "
            f"readmitted={self.readmitted}, "
            f"victim_served_after_heal={self.victim_served_after_heal}, "
            f"p99 {self.p99_ms:.1f}ms <= {self.p99_bound_ms:.0f}ms)"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "outcome": self.outcome,
            "detail": self.detail,
            "fired": self.fired,
            "lost": self.lost,
            "requests": self.requests,
            "readmitted": self.readmitted,
            "victim_served_after_heal": self.victim_served_after_heal,
            "reroutes": self.reroutes,
            "p99_ms": self.p99_ms,
            "p99_bound_ms": self.p99_bound_ms,
            "events": dict(self.events),
        }


@dataclass
class FleetChaosResult:
    """All campaigns of one fleet chaos run."""

    cells: List[FleetChaosCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def describe(self) -> str:
        lines = [
            f"fleet chaos: {len(self.cells)} campaign(s), "
            f"{sum(1 for c in self.cells if not c.ok)} violation(s)"
        ]
        lines.extend(f"  {cell.describe()}" for cell in self.cells)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _fake_compile_fn(request, digest):
    """Instant artifacts: fleet chaos tests routing, not the pipeline."""
    from ..service.store import CompileArtifact

    return CompileArtifact(
        digest=digest,
        program="fleet-chaos",
        strategy=request.strategy,
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


def _requests_for_shard(
    router, victim: str, count: int, base: int, aim_at_victim: bool = True
):
    """``count`` distinct requests whose ring primary is (not) the victim.

    Aiming the fault wave at the victim's shard is what guarantees the
    injected fault actually fires; sizes walk deterministically from
    ``base`` so a seed reproduces the exact same request set.
    """
    from ..service.api import CompileRequest

    picked = []
    candidate = base
    while len(picked) < count:
        request = CompileRequest(
            app="sumRows", sizes={"R": 64 + 32 * candidate, "C": 32}
        )
        primary = router.ring.node_for(request.digest())
        if (primary == victim) == aim_at_victim:
            picked.append(request)
        candidate += 1
        if candidate - base > 200 * count:  # pragma: no cover - safety
            raise ServiceError(
                f"could not aim {count} requests at shard {victim!r}"
            )
    return picked


def _run_wave(router, requests, timeout_s: float):
    """Submit a wave; every ticket must resolve.  Returns outcomes."""
    tickets = router.submit_many(requests)
    outcomes = []
    for ticket in tickets:
        try:
            outcomes.append(ticket.wait(timeout=timeout_s))
        except Exception as exc:  # timeout = a lost ticket, the bug class
            outcomes.append(exc)
    return outcomes


def run_fleet_chaos_campaign(
    kind: str,
    seed: int = 0,
    backends: int = 3,
    wave: int = 6,
    hang_s: float = 0.2,
    slow_s: float = 0.05,
    partition_width: int = 3,
    readmit_timeout_s: float = 10.0,
    wave_timeout_s: float = 60.0,
    p99_bound_ms: float = 5000.0,
) -> FleetChaosCell:
    """One fault kind, one full baseline → fault → heal campaign."""
    from ..service.fleet import FleetConfig, FleetRouter, LocalBackend
    from ..service.service import CompileService, ServiceConfig
    from .faults import inject_faults

    if kind not in FLEET_FAULT_KINDS:
        raise ServiceError(
            f"unknown fleet fault kind {kind!r}; "
            f"known: {', '.join(FLEET_FAULT_KINDS)}"
        )

    from ..observability import get_event_log

    # Campaign events are the log entries with seq >= this mark; the
    # log is process-global, so presence (never absence) is asserted.
    event_log = get_event_log()
    start_seq = event_log.snapshot()["next_seq"]

    members: List[Any] = [
        LocalBackend(
            f"backend-{i}",
            CompileService(
                ServiceConfig(cache_dir=None),
                compile_fn=_fake_compile_fn,
            ),
        )
        for i in range(backends)
    ]
    victim_index = seed % backends
    victim = ChaosBackend(
        members[victim_index], hang_s=hang_s, slow_s=slow_s
    )
    members[victim_index] = victim
    # Tight prober/breaker settings so readmission is observable within
    # the campaign, and caches off so every request exercises dispatch.
    router = FleetRouter(
        members,
        FleetConfig(
            lru_capacity=0,
            retries=backends + 1,
            backoff_base_s=0.001,
            backoff_max_s=0.01,
            probe_interval_s=0.05,
            breaker_failure_threshold=2,
            breaker_reset_timeout_s=0.05,
        ),
        owns_backends=True,
    )
    # ``kill`` fires once and the killed state persists; ``partition``
    # and ``hang``/``slow`` fire for a bounded window of dispatches.
    times = {
        "kill": 1,
        "hang": 1,
        "slow": max(1, wave // 2),
        "partition": partition_width,
    }[kind]
    plan = FaultPlan.single("fleet", kind, at=1, times=times)

    lost = 0
    total = 0
    try:
        base_wave = _requests_for_shard(
            router, victim.name, wave, base=1000 * seed
        )
        baseline = _run_wave(router, base_wave, wave_timeout_s)
        total += len(baseline)
        lost += sum(
            1
            for o in baseline
            if isinstance(o, Exception) or not o.ok
        )
        if lost:
            return FleetChaosCell(
                kind=kind,
                outcome="baseline-failed",
                detail=f"{lost} baseline request(s) failed before any "
                "fault was installed",
                lost=lost,
                requests=total,
            )

        fault_wave = _requests_for_shard(
            router, victim.name, wave, base=1000 * seed + 300
        )
        with inject_faults(plan):
            faulted = _run_wave(router, fault_wave, wave_timeout_s)
        total += len(faulted)
        fault_lost = sum(
            1
            for o in faulted
            if isinstance(o, Exception) or not o.ok
        )
        lost += fault_lost
        if fault_lost:
            detail = "; ".join(
                str(o) if isinstance(o, Exception) else o.error.message
                for o in faulted
                if isinstance(o, Exception) or not o.ok
            )
            return FleetChaosCell(
                kind=kind,
                outcome="lost-tickets",
                detail=detail[:500],
                fired=bool(plan.fired),
                lost=lost,
                requests=total,
            )

        # Heal, then wait for the prober to readmit the victim: breaker
        # reclosed AND the liveness flag restored, with zero operator
        # action beyond the restart itself.
        victim.restart()
        readmitted = False
        deadline = time.monotonic() + readmit_timeout_s
        while time.monotonic() < deadline:
            stats = router.stats()
            entry = stats["backends"][victim.name]
            if (
                entry["alive"]
                and entry["breaker"]["state"] == BREAKER_CLOSED
            ):
                readmitted = True
                break
            time.sleep(0.02)

        heal_wave = _requests_for_shard(
            router, victim.name, wave, base=1000 * seed + 600
        )
        healed = _run_wave(router, heal_wave, wave_timeout_s)
        total += len(healed)
        heal_lost = sum(
            1
            for o in healed
            if isinstance(o, Exception) or not o.ok
        )
        lost += heal_lost

        stats = router.stats()
        p99_ms = stats["latency_ms"]["p99"]
        campaign_events = event_log.snapshot(since=start_seq - 1)["events"]
        events_by_kind: Dict[str, int] = {}
        for event in campaign_events:
            events_by_kind[event["kind"]] = (
                events_by_kind.get(event["kind"], 0) + 1
            )
        cell = FleetChaosCell(
            kind=kind,
            outcome="healed",
            fired=bool(plan.fired),
            lost=lost,
            requests=total,
            readmitted=readmitted,
            victim_served_after_heal=victim.served_since_restart,
            reroutes=stats["reroutes"],
            p99_ms=p99_ms,
            p99_bound_ms=p99_bound_ms,
            events=events_by_kind,
        )
        if heal_lost:
            cell.outcome = "lost-tickets"
            cell.detail = f"{heal_lost} request(s) failed after the heal"
        elif not plan.fired:
            cell.outcome = "fault-never-fired"
            cell.detail = (
                "the fault wave never reached the victim's shard"
            )
        elif not readmitted:
            cell.outcome = "not-readmitted"
            cell.detail = (
                f"victim not readmitted within {readmit_timeout_s}s "
                f"of its restart (breaker "
                f"{stats['backends'][victim.name]['breaker']['state']})"
            )
        elif victim.served_since_restart < 1:
            cell.outcome = "victim-idle"
            cell.detail = (
                "victim was readmitted but served nothing post-heal"
            )
        elif p99_ms > p99_bound_ms:
            cell.outcome = "unbounded-p99"
            cell.detail = (
                f"p99 {p99_ms:.1f}ms exceeds the {p99_bound_ms:.0f}ms "
                "bound"
            )
        else:
            missing_events = [
                expected
                for expected in CAMPAIGN_EXPECTED_EVENTS[kind]
                if expected not in events_by_kind
            ]
            if missing_events:
                cell.outcome = "no-events"
                cell.detail = (
                    "fault fired but the structured event log recorded "
                    f"no {'/'.join(missing_events)} event(s) — the "
                    "reroute happened silently"
                )
        return cell
    except ReproError as exc:
        return FleetChaosCell(
            kind=kind,
            outcome="untyped-crash",
            detail=f"{type(exc).__name__}: {exc}",
            fired=bool(plan.fired),
            lost=lost,
            requests=total,
        )
    finally:
        router.close()


def run_fleet_chaos_matrix(
    kinds: Optional[Sequence[str]] = None,
    seed: int = 0,
    wave: int = 6,
    progress: Optional[Callable[[str], None]] = None,
    out_dir: Optional[str] = None,
    **campaign_kwargs: Any,
) -> FleetChaosResult:
    """Run every fleet fault kind (or a chosen subset) as a campaign.

    ``out_dir`` mirrors the pipeline chaos harness: each failing
    campaign writes a JSON report (``fleet-chaos-<kind>.json``) CI can
    upload as an artifact.
    """
    result = FleetChaosResult()
    for kind in kinds or FLEET_FAULT_KINDS:
        cell = run_fleet_chaos_campaign(
            kind, seed=seed, wave=wave, **campaign_kwargs
        )
        result.cells.append(cell)
        if progress:
            progress(cell.describe())
        if out_dir and not cell.ok:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"fleet-chaos-{kind}.json")
            with open(path, "w") as handle:
                json.dump(cell.to_dict(), handle, indent=2)
    return result
