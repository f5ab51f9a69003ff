"""Campaign driver: corpora, reproducer artifacts, coverage accounting.

A *campaign* checks a stream of specs — the deterministic coverage
templates, then ``budget`` random specs from the seed, then any corpus
files — through the oracle, shrinking every failure to a minimal spec and
(optionally) writing a replayable reproducer artifact per failure.

Reproducer artifacts are self-contained JSON: the original and shrunk
specs, the serialized IR of the shrunk program, the failure list, and
the campaign seed.  ``repro difftest --replay path.json`` re-runs one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..errors import ReproError
from ..ir.printer import pretty_program
from ..ir.serialize import program_to_dict
from ..ir.traversal import find_patterns
from .generator import ProgramGenerator, build_program, canonical_specs
from .oracle import OracleReport, check_spec
from .shrinker import shrink_spec
from .specs import ProgramSpec

#: All pattern kinds a campaign is expected to exercise.
ALL_PATTERN_KINDS = frozenset(
    ("map", "zipwith", "foreach", "filter", "reduce", "groupby")
)


@dataclass
class FailureRecord:
    """One failing program, after shrinking."""

    spec: ProgramSpec
    shrunk: ProgramSpec
    report: OracleReport
    shrink_checks: int
    pattern_nodes: int  # pattern-node count of the shrunk program
    artifact_path: Optional[str] = None


@dataclass
class CampaignResult:
    """Aggregate outcome of one difftest campaign."""

    seed: int
    checked: int = 0
    skipped_total: int = 0
    failures: List[FailureRecord] = field(default_factory=list)
    pattern_kinds: set = field(default_factory=set)
    split_programs: int = 0
    prealloc_programs: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def coverage_gaps(self) -> List[str]:
        gaps = sorted(ALL_PATTERN_KINDS - self.pattern_kinds)
        if not self.split_programs:
            gaps.append("split(k)")
        if not self.prealloc_programs:
            gaps.append("prealloc")
        return gaps

    def describe(self) -> str:
        lines = [
            f"difftest: {self.checked} program(s) checked, "
            f"{len(self.failures)} failure(s), seed {self.seed}",
            f"  pattern kinds: {', '.join(sorted(self.pattern_kinds)) or '-'}",
            f"  split(k) exercised on {self.split_programs} program(s), "
            f"preallocation on {self.prealloc_programs}",
        ]
        gaps = self.coverage_gaps()
        if gaps:
            lines.append(f"  coverage gaps: {', '.join(gaps)}")
        for record in self.failures:
            lines.append(
                f"  FAIL {record.spec.describe()} -> shrunk to "
                f"{record.shrunk.describe()} ({record.pattern_nodes} "
                f"pattern node(s))"
            )
            for failure in record.report.failures:
                lines.append(f"    {failure}")
            if record.artifact_path:
                lines.append(f"    reproducer: {record.artifact_path}")
        return "\n".join(lines)


# -- corpus files ----------------------------------------------------------


def save_corpus(specs: List[ProgramSpec], path: str) -> None:
    """Write a corpus file: a JSON list of spec dicts."""
    payload = {"version": 1, "specs": [spec.to_dict() for spec in specs]}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_corpus(path: str) -> List[ProgramSpec]:
    """Read a corpus file back into validated specs."""
    with open(path) as handle:
        payload = json.load(handle)
    return [ProgramSpec.from_dict(data) for data in payload["specs"]]


# -- reproducer artifacts --------------------------------------------------


def save_reproducer(
    record: FailureRecord, seed: int, out_dir: str, index: int
) -> str:
    """Serialize one failure as a replayable artifact; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    program = build_program(record.shrunk)
    payload = {
        "version": 1,
        "seed": seed,
        "spec": record.spec.to_dict(),
        "shrunk_spec": record.shrunk.to_dict(),
        "failures": [
            {"stage": f.stage, "message": f.message}
            for f in record.report.failures
        ],
        "pattern_nodes": record.pattern_nodes,
        "program_ir": program_to_dict(program),
        "pretty": pretty_program(program),
    }
    path = os.path.join(out_dir, f"reproducer-{index:03d}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def load_reproducer(path: str) -> Tuple[ProgramSpec, ProgramSpec]:
    """Read back (original spec, shrunk spec) from an artifact."""
    with open(path) as handle:
        payload = json.load(handle)
    return (
        ProgramSpec.from_dict(payload["spec"]),
        ProgramSpec.from_dict(payload["shrunk_spec"]),
    )


# -- the campaign ----------------------------------------------------------


def run_campaign(
    seed: int = 0,
    budget: int = 50,
    corpus: Optional[List[ProgramSpec]] = None,
    out_dir: Optional[str] = None,
    include_templates: bool = True,
    run_split_forcing: bool = True,
    max_shrink_checks: int = 60,
    progress: Optional[Callable[[str], None]] = None,
    check: Optional[Callable[[ProgramSpec], OracleReport]] = None,
) -> CampaignResult:
    """Run one differential-testing campaign.

    ``budget`` counts randomly generated specs; the deterministic coverage
    templates and any corpus specs run in addition to it.  ``check``
    replaces the oracle (the injected-bug demo and the unit tests use
    this to fault-inject); it defaults to :func:`~.oracle.check_spec`.

    Each spec is checked once: every stage the oracle checks is a
    deterministic function of program, sizes and device, so a check that
    raises a :class:`~repro.errors.ReproError` is recorded as one
    unshrunk ``crash``-stage failure and the campaign goes on.
    """
    from ..observability import get_metrics, get_tracer

    if check is None:
        def check(spec: ProgramSpec) -> OracleReport:
            return check_spec(
                spec, seed=seed, run_split_forcing=run_split_forcing
            )

    specs: List[ProgramSpec] = []
    if include_templates:
        specs.extend(canonical_specs())
    if corpus:
        specs.extend(corpus)
    generator = ProgramGenerator(seed=seed)
    specs.extend(generator.random_spec() for _ in range(budget))

    result = CampaignResult(seed=seed)
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span(
        "difftest.campaign", seed=seed, specs=len(specs)
    ) as campaign_span:
        try:
            _run_specs(
                specs, check, result, seed, progress, out_dir,
                max_shrink_checks, tracer, metrics,
            )
        finally:
            campaign_span.set(
                checked=result.checked, failures=len(result.failures)
            )
    return result


def _run_specs(
    specs: List[ProgramSpec],
    check: Callable[[ProgramSpec], OracleReport],
    result: CampaignResult,
    seed: int,
    progress: Optional[Callable[[str], None]],
    out_dir: Optional[str],
    max_shrink_checks: int,
    tracer,
    metrics,
) -> None:
    """The per-spec check/shrink/record loop of :func:`run_campaign`."""
    for spec in specs:
        with tracer.span("difftest.check", spec=spec.describe()):
            report = _checked(check, spec)
        if metrics.enabled:
            metrics.counter("difftest.checked").inc()
            if not report.ok:
                metrics.counter("difftest.failures").inc()
        result.checked += 1
        result.skipped_total += len(report.skipped)
        result.pattern_kinds |= set(report.pattern_kinds)
        if report.split_exercised:
            result.split_programs += 1
        if report.prealloc_exercised:
            result.prealloc_programs += 1
        if report.ok:
            if progress:
                progress(f"ok   {spec.describe()}")
            continue
        if progress:
            progress(f"FAIL {spec.describe()}")

        crashed = any(f.stage == "crash" for f in report.failures)

        def still_fails(candidate: ProgramSpec) -> bool:
            # A check that crashes outright certainly still fails.
            return not _checked(check, candidate).ok

        if crashed:
            # Shrinking navigates oracle failures; a crashing check has
            # no oracle verdict to preserve, so keep the spec as-is.
            shrunk, checks = spec, 0
        else:
            shrunk, checks = shrink_spec(
                spec, still_fails, max_checks=max_shrink_checks
            )
        shrunk_report = _checked(check, shrunk) if checks else report
        record = FailureRecord(
            spec=spec,
            shrunk=shrunk,
            report=shrunk_report if not shrunk_report.ok else report,
            shrink_checks=checks,
            pattern_nodes=_pattern_node_count(shrunk),
        )
        if out_dir:
            record.artifact_path = save_reproducer(
                record, seed, out_dir, len(result.failures)
            )
        result.failures.append(record)


def _checked(
    check: Callable[[ProgramSpec], OracleReport], spec: ProgramSpec
) -> OracleReport:
    """One oracle check; a :class:`~repro.errors.ReproError` it raises
    becomes a ``crash``-stage failure (type + message)."""
    try:
        return check(spec)
    except ReproError as exc:
        report = OracleReport(program_name=spec.describe(), spec=spec)
        report.fail("crash", f"{type(exc).__name__}: {exc}")
        return report


def _pattern_node_count(spec: ProgramSpec) -> int:
    try:
        program = build_program(spec)
    except ReproError:
        # A spec whose program no longer builds (e.g. shrunk past
        # validity) has no meaningful node count; -1 records that the
        # count is unavailable without hiding unrelated crashes, which
        # now propagate.
        return -1
    return len(find_patterns(program.result))
