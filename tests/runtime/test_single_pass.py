"""Each stage runs once per compile.

A ``GpuSession.compile`` analyzes the program once: codegen reads the
session's analysis instead of analyzing again.  Assembling the stored
artifact (cost, recipe, provenance) runs no search: provenance reads the
ranking the deciding search kept.
"""

import pytest

from repro.analysis import analyzer, search
from repro.analysis.cache import clear_caches
from repro.apps import ALL_APPS
from repro.runtime.session import GpuSession
from repro.service.store import build_artifact
from tests.conftest import patch_repro_bindings


def _counting(counts, name, original):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    return wrapper


@pytest.fixture
def calls(monkeypatch):
    """Call counts of every ``repro`` binding of the two stages."""
    counts = {"analyze_program": 0, "search_mapping": 0}
    for module, name in (
        (analyzer, "analyze_program"),
        (search, "search_mapping"),
    ):
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
    assert calls["analyze_program"] == 1
    assert calls["search_mapping"] == len(compiled.decisions)

    calls["search_mapping"] = 0
    artifact = build_artifact("ab" * 32, compiled, compile_ms=0.0)
    assert calls["search_mapping"] == 0
    assert calls["analyze_program"] == 1
    assert all(
        len(kernel["candidates"]) >= 1
        for kernel in artifact.provenance["kernels"]
    )
