"""Timing wrappers around the compile pipeline's public functions.

:func:`install` replaces each function in :data:`TIMED` with a wrapper
that records one span per call: name, start, end, parent span and
request id.  Module-level functions are patched in every ``repro``
module that bound the name, because each call site looks the name up in
its own module (``analyze_program`` is called from both the session and
codegen).  Methods are patched on their class.

Spans stay in memory and are written to a JSON file when the run ends
(:meth:`Recorder.dump`); :func:`layer_totals` turns a span list into
per-layer call counts and self times.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.observability import get_tracer
from repro.service.api import CompileRequest

#: (span name, module, attribute).  The span name is
#: ``<layer>.<function>``; layers are named by module.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("service.api.resolve", "repro.service.api", "CompileRequest.resolve"),
    ("service.api.digest", "repro.service.api", "CompileRequest.digest"),
    ("ir.serialize.compile_digest", "repro.ir.serialize", "compile_digest"),
    ("ir.serialize.canonicalize_program", "repro.ir.serialize",
     "canonicalize_program"),
    ("service.submit", "repro.service.service", "CompileService.submit"),
    ("service.fleet.submit", "repro.service.fleet", "FleetRouter.submit"),
    ("service.store.get", "repro.service.store", "ArtifactStore.get"),
    ("service.store.put", "repro.service.store", "ArtifactStore.put"),
    ("service.store.put_recipe", "repro.service.store",
     "ArtifactStore.put_recipe"),
    ("service.store.build_artifact", "repro.service.store", "build_artifact"),
    ("runtime.session.compile", "repro.runtime.session", "GpuSession.compile"),
    ("analysis.analyze_program", "repro.analysis.analyzer", "analyze_program"),
    ("analysis.search.search_mapping", "repro.analysis.search",
     "search_mapping"),
    ("optim.build_plan_with_recipe", "repro.optim.pipeline",
     "build_plan_with_recipe"),
    ("optim.build_plan", "repro.optim.pipeline", "build_plan"),
    ("codegen.compile_program", "repro.codegen.compiler", "compile_program"),
    ("gpusim.estimate_cost", "repro.runtime.session",
     "CompiledProgram.estimate_cost"),
    ("observability.provenance.build_provenance",
     "repro.observability.provenance", "build_provenance"),
    ("optim.passes.recipe.build_compile_recipe", "repro.optim.passes.recipe",
     "build_compile_recipe"),
)

#: ``search_mapping`` spans are split by ``keep_all``: the provenance
#: re-search passes ``keep_all=True``.
SEARCH = "analysis.search.search_mapping"
SEARCH_KEEP_ALL = SEARCH + "_keep_all"

#: Every span name :func:`layer_totals` can report.
SPAN_NAMES: Tuple[str, ...] = tuple(
    name for name, _, _ in TIMED
) + (SEARCH_KEEP_ALL,)

#: Span tuple layout (kept flat: a traced run records ~50 per request).
ID, NAME, START, END, PARENT, REQUEST, MEMO_HIT = range(7)


class Recorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Request id for spans that cannot name their own: the
        #: in-process driver sets it around each request.
        self.current_request: Optional[str] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request_of(
        self, args: tuple, inherited: Optional[str]
    ) -> Optional[str]:
        for arg in args:
            if isinstance(arg, CompileRequest) and arg.trace_id:
                return arg.trace_id
        if inherited is not None:
            return inherited
        # Worker threads run under the request's trace context when the
        # process tracer is live (``repro serve`` runs under capture()).
        context = getattr(get_tracer(), "current_context", None)
        current = context() if context is not None else None
        if current is not None:
            return current[0]
        return self.current_request

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        request = self._request_of(args, inherited)
        span_id = next(self._ids)
        if name == SEARCH and kwargs.get("keep_all"):
            name = SEARCH_KEEP_ALL
        stack.append((span_id, request))
        memo_hit = False
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            if name == SEARCH:
                memo_hit = bool(getattr(result, "cache_hit", False))
            return result
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, request, memo_hit)
            )

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def install() -> Recorder:
    """Wrap every function in :data:`TIMED`; returns the span sink."""
    recorder = Recorder()
    for name, module_name, attr in TIMED:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner = getattr(module, attr.split(".")[0])
            method = attr.split(".")[1]
            original = owner.__dict__[method]
            recorder._patched.append((owner, method, original))
            setattr(owner, method, _timed(recorder, name, original))
            continue
        original = getattr(module, attr)
        wrapper = _timed(recorder, name, original)
        for other in list(sys.modules.values()):
            if (
                getattr(other, "__name__", "").split(".")[0] == "repro"
                and getattr(other, attr, None) is original
            ):
                recorder._patched.append((other, attr, original))
                setattr(other, attr, wrapper)
    return recorder


def load(path: str) -> List[tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


def in_window(spans: Iterable[tuple], start: float, end: float) -> List[tuple]:
    """The spans that began and ended inside ``[start, end]``."""
    return [s for s in spans if s[START] >= start and s[END] <= end]


def layer_totals(spans: List[tuple]) -> Dict[str, float]:
    """Totals over one process's spans.

    Keys: ``<span>.calls`` and ``<span>.self_ms`` for every span name,
    ``search.memo_hits``, ``build_plan.under_estimate_cost`` (plan
    rebuilds the cost model runs) and ``queue_wait_ms``: for each
    request, the gap from the end of its ``service.submit`` span to the
    first span a worker thread opened for it afterwards.
    """
    by_id = {s[ID]: s for s in spans}
    child_ms: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None and s[PARENT] in by_id:
            child_ms[s[PARENT]] += (s[END] - s[START]) * 1e3
    totals: Dict[str, float] = defaultdict(float)
    submitted: Dict[str, float] = {}
    worker_roots: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        name = s[NAME]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_ms"] += (s[END] - s[START]) * 1e3 - child_ms[s[ID]]
        if name == SEARCH and s[MEMO_HIT]:
            totals["search.memo_hits"] += 1
        parent = by_id.get(s[PARENT])
        if (
            name == "optim.build_plan"
            and parent is not None
            and parent[NAME] == "gpusim.estimate_cost"
        ):
            totals["build_plan.under_estimate_cost"] += 1
        request = s[REQUEST]
        if request is None:
            continue
        if name == "service.submit":
            submitted[request] = min(submitted.get(request, s[END]), s[END])
        elif s[PARENT] is None and name != "service.fleet.submit":
            worker_roots[request].append(s[START])
    for request, end in submitted.items():
        later = [t for t in worker_roots.get(request, ()) if t >= end]
        if later:
            totals["queue_wait_ms"] += (min(later) - end) * 1e3
    return dict(totals)

