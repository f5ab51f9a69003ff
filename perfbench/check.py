"""The correctness check every run makes after its timed phase.

For every distinct digest served:

* the artifact's per-kernel ``mappings`` equal what
  :func:`~repro.analysis.search.search_mapping_reference` (the
  exhaustive oracle) picks for that kernel under the device's DOP
  window;
* every repeat of the digest, from any tier or backend, has the
  ``artifact_fingerprint`` of its first serving;
* the artifact carries no ``degradations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List

from repro.analysis.analyzer import analyze_program
from repro.analysis.search import search_mapping_reference
from repro.ir.serialize import canonicalize_program
from repro.service.api import CompileRequest
from repro.service.store import artifact_fingerprint


@dataclass
class Served:
    """The first serving of one digest, plus how its repeats compared."""

    request: CompileRequest
    fingerprint: str
    mappings: List[str]
    degradations: List[str]
    total_us: float
    fingerprint_mismatches: int = 0


class ServedLog:
    """What one client was served; merge logs with :func:`merge`."""

    def __init__(self) -> None:
        self.entries: Dict[str, Served] = {}

    def record(
        self, request: CompileRequest, digest: str, artifact: Dict[str, Any]
    ) -> None:
        fingerprint = artifact_fingerprint(artifact)
        entry = self.entries.get(digest)
        if entry is None:
            self.entries[digest] = Served(
                request=request,
                fingerprint=fingerprint,
                mappings=list(artifact.get("mappings") or []),
                degradations=list(artifact.get("degradations") or []),
                total_us=float((artifact.get("cost") or {})["total_us"]),
            )
            return
        if fingerprint != entry.fingerprint:
            entry.fingerprint_mismatches += 1


def merge(logs: Iterable[ServedLog]) -> Dict[str, Served]:
    """One entry per digest; a client whose first serving fingerprints
    differently from another client's counts as one more mismatch."""
    merged: Dict[str, Served] = {}
    for log in logs:
        for digest, entry in log.entries.items():
            kept = merged.get(digest)
            if kept is None:
                merged[digest] = entry
                continue
            kept.fingerprint_mismatches += entry.fingerprint_mismatches
            if entry.fingerprint != kept.fingerprint:
                kept.fingerprint_mismatches += 1
    return merged


class Oracle:
    """Reference mappings per digest, memoized across phases of a run."""

    def __init__(self) -> None:
        self._expected: Dict[str, List[str]] = {}

    def expected(self, digest: str, request: CompileRequest) -> List[str]:
        if digest not in self._expected:
            program, device, sizes = request.resolve()
            analysis = analyze_program(canonicalize_program(program), **sizes)
            self._expected[digest] = [
                str(search_mapping_reference(
                    kernel.depth,
                    kernel.constraints,
                    kernel.level_sizes(),
                    window=device.dop_window(),
                ).mapping)
                for kernel in analysis.kernels
            ]
        return self._expected[digest]


def check(served: Dict[str, Served], oracle: Oracle) -> List[str]:
    """One line per mismatch (an empty list means every output is right)."""
    problems: List[str] = []
    for digest, entry in served.items():
        label = f"{digest[:12]} ({entry.request.app or 'ir program'})"
        if entry.degradations:
            problems.append(f"{label}: degraded: {entry.degradations}")
        expected = oracle.expected(digest, entry.request)
        if entry.mappings != expected:
            problems.append(
                f"{label}: mappings {entry.mappings} != reference {expected}"
            )
        problems.extend(
            f"{label}: repeat fingerprint differs from first serving"
            for _ in range(entry.fingerprint_mismatches)
        )
    return problems
