"""Each stage runs once per compile.

A ``GpuSession.compile`` analyzes the program once, and builds each
kernel's launch plan once: codegen reads the session's analysis instead
of analyzing again.  Assembling the stored artifact (cost, recipe,
provenance) runs no search, builds no plan and adjusts no launch:
provenance reads the ranking the deciding search kept, and the cost
prices each kernel's own mapping and plan.  A request resolves once:
the digest's resolution is what the miss compiles.  It converts its
program once too: the digest hashes the canonical dict, and the miss
compiles ``program_from_dict`` of that same dict.
"""

import pytest

from repro.analysis import analyzer, search
from repro.analysis.cache import clear_caches
from repro.apps import ALL_APPS
from repro.ir import serialize
from repro.optim import pipeline
from repro.runtime import launcher
from repro.runtime.session import GpuSession
from repro.service import (
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    CompileService,
    ServiceConfig,
    local_fleet,
)
from repro.service.api import clear_digest_memo, request_for_program
from repro.service.store import build_artifact
from tests.conftest import patch_repro_bindings


def _counting(counts, name, original):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    return wrapper


#: Every stage counted: (module, function name).
_STAGES = (
    (analyzer, "analyze_program"),
    (search, "search_mapping"),
    (pipeline, "build_plan"),
    (pipeline, "build_plan_with_recipe"),
    (launcher, "adjust_at_launch"),
)


@pytest.fixture
def calls(monkeypatch):
    """Call counts of every ``repro`` binding of the counted stages."""
    counts = {name: 0 for _, name in _STAGES}
    for module, name in _STAGES:
        patch_repro_bindings(
            monkeypatch, module, name,
            _counting(counts, name, getattr(module, name)),
        )
    clear_caches()
    yield counts
    clear_caches()


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_one_analysis_per_compile_and_no_search_per_artifact(name, calls):
    app = ALL_APPS[name]
    compiled = GpuSession().compile(app.build(), **app.default_params)
    kernels = len(compiled.decisions)
    assert calls["analyze_program"] == 1
    assert calls["search_mapping"] == kernels
    assert calls["build_plan_with_recipe"] == kernels
    assert calls["build_plan"] == 0

    for key in calls:
        calls[key] = 0
    artifact = build_artifact("ab" * 32, compiled, compile_ms=0.0)
    assert calls == {key: 0 for key in calls}
    assert all(
        len(kernel["candidates"]) >= 1
        for kernel in artifact.provenance["kernels"]
    )


@pytest.fixture
def resolves(monkeypatch):
    """How many times any request resolves (counted per call)."""
    count = [0]
    original = CompileRequest.resolve

    def counting(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(CompileRequest, "resolve", counting)
    clear_digest_memo()
    yield count
    clear_digest_memo()


def _request():
    return CompileRequest(app="sumRows", sizes={"R": 96, "C": 48})


def test_cold_service_request_resolves_once(tmp_path, resolves):
    with CompileService(ServiceConfig(cache_dir=str(tmp_path))) as service:
        assert service.compile(_request()).status == STATUS_MISS
        assert resolves[0] == 1
        assert service.compile(_request()).status == STATUS_HIT
        assert resolves[0] == 1


def test_cold_fleet_miss_resolves_once(tmp_path, resolves):
    with local_fleet(2, str(tmp_path)) as router:
        outcome = router.compile(_request())
        assert outcome.status == STATUS_MISS
        assert outcome.served_by is not None
        assert resolves[0] == 1
        assert router.compile(_request()).status == STATUS_HIT
        assert resolves[0] == 1


#: Every program conversion a request can make.
_CONVERSIONS = (
    "canonical_program_dict",
    "program_to_dict",
    "program_from_dict",
    "canonicalize_program",
)


@pytest.fixture
def conversions(monkeypatch):
    """Call counts of every ``repro`` binding of the conversions."""
    counts = dict.fromkeys(_CONVERSIONS, 0)
    for name in _CONVERSIONS:
        patch_repro_bindings(
            monkeypatch, serialize, name,
            _counting(counts, name, getattr(serialize, name)),
        )
    clear_digest_memo()
    yield counts
    clear_digest_memo()


def _ir_request():
    app = ALL_APPS["sumRows"]
    return request_for_program(app.build(), sizes={"R": 96, "C": 48})


#: (request factory, ``program_from_dict`` calls on a miss): an IR
#: request parses its wire form, then builds the compile form.
_KINDS = {"app": (_request, 1), "program_ir": (_ir_request, 2)}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("front", ["service", "fleet"])
def test_cold_miss_converts_the_program_once(
    tmp_path, conversions, front, kind
):
    make_request, parses = _KINDS[kind]
    first = make_request()
    # The same content, as a new request off the wire.
    repeat = CompileRequest.from_dict(first.to_dict())
    for key in conversions:
        conversions[key] = 0
    if front == "service":
        server = CompileService(ServiceConfig(cache_dir=str(tmp_path)))
    else:
        server = local_fleet(2, str(tmp_path))
    with server:
        assert server.compile(first).status == STATUS_MISS
        assert conversions == {
            "canonical_program_dict": 1,
            "program_to_dict": 1,
            "program_from_dict": parses,
            "canonicalize_program": 0,
        }
        for key in conversions:
            conversions[key] = 0
        assert server.compile(repeat).status == STATUS_HIT
        assert conversions == {key: 0 for key in conversions}
