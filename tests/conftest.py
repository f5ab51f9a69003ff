"""Shared fixtures: canonical programs used across the test suite."""

import sys

import numpy as np
import pytest

from repro.ir import Builder, F64
from repro.ir.builder import let_vec


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def patch_repro_bindings(monkeypatch, module, name, replacement):
    """Point every ``repro`` module's binding of ``module.name`` at
    ``replacement``: each call site looks the name up in the module
    that imported it."""
    original = getattr(module, name)
    for other in list(sys.modules.values()):
        if (
            getattr(other, "__name__", "").split(".")[0] == "repro"
            and getattr(other, name, None) is original
        ):
            monkeypatch.setattr(other, name, replacement)


def make_sum_rows():
    b = Builder("sumRows")
    m = b.matrix("m", F64, rows="R", cols="C")
    return b.build(m.map_rows(lambda row: row.reduce("+")))


def make_sum_cols():
    b = Builder("sumCols")
    m = b.matrix("m", F64, rows="R", cols="C")
    return b.build(m.map_cols(lambda col: col.reduce("+")))


def make_sum_weighted_cols():
    b = Builder("sumWeightedCols")
    m = b.matrix("m", F64, rows="R", cols="C")
    v = b.vector("v", F64, length="R")
    out = m.map_cols(
        lambda c: let_vec(
            c.zip_with(v, lambda a, w: a * w), lambda t: t.reduce("+")
        )
    )
    return b.build(out)


@pytest.fixture
def events():
    """``events(kind)``: the structured events of ``kind`` emitted into
    the process-wide log since the test started."""
    from repro.observability import get_event_log

    log = get_event_log()
    mark = log.snapshot()["next_seq"]

    def since(kind):
        return [
            event for event in log.snapshot(since=mark - 1)["events"]
            if event["kind"] == kind
        ]

    return since


@pytest.fixture
def sum_rows_program():
    return make_sum_rows()


@pytest.fixture
def sum_cols_program():
    return make_sum_cols()


@pytest.fixture
def sum_weighted_cols_program():
    return make_sum_weighted_cols()
