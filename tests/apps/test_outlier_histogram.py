"""Tests for the Filter/GroupBy coverage app."""

import numpy as np
import pytest

from repro.analysis import SpanAll, analyze_program
from repro.apps.outlier_histogram import (
    HISTOGRAM,
    NUM_BUCKETS,
    OUTLIER_FILTER,
    reference_filter,
    reference_histogram,
)
from repro.gpusim import TESLA_K20C, decide_mapping
from repro.interp import run_program
from repro.runtime.session import GpuSession


class TestCorrectness:
    def test_filter_matches_reference(self, rng):
        inputs = OUTLIER_FILTER.workload(rng, N=500)
        out = run_program(OUTLIER_FILTER.build(), **inputs)
        assert np.allclose(out, reference_filter(inputs))

    def test_histogram_matches_reference(self, rng):
        inputs = HISTOGRAM.workload(rng, N=500)
        groups = run_program(HISTOGRAM.build(), **inputs)
        expected = reference_histogram(inputs)
        assert set(groups) == set(expected)
        for key in expected:
            assert np.allclose(np.sort(groups[key]),
                               np.sort(expected[key]))

    def test_histogram_keys_in_range(self, rng):
        inputs = HISTOGRAM.workload(rng, N=300)
        groups = run_program(HISTOGRAM.build(), **inputs)
        assert all(0 <= k < NUM_BUCKETS for k in groups)


class TestMapping:
    def test_filter_forces_span_all(self):
        pa = analyze_program(OUTLIER_FILTER.build(), N=1 << 20)
        d = decide_mapping(pa.kernel(0), "multidim", TESLA_K20C)
        from repro.analysis import Split

        assert isinstance(d.mapping.level(0).span, (SpanAll, Split))

    def test_filter_charges_atomics(self):
        compiled = GpuSession(resilient=False).compile(
            OUTLIER_FILTER.build(), N=1 << 20
        )
        assert compiled.estimate_cost().kernels[0].atomic_us > 0

    def test_histogram_charges_atomics(self):
        compiled = GpuSession(resilient=False).compile(
            HISTOGRAM.build(), N=1 << 20
        )
        assert compiled.estimate_cost().kernels[0].atomic_us > 0

    def test_codegen_emits_atomics(self):
        filter_src = GpuSession().compile(
            OUTLIER_FILTER.build(), N=1 << 20
        ).module.source
        assert "atomicAdd(out_count" in filter_src
        histo_src = GpuSession().compile(
            HISTOGRAM.build(), N=1 << 20
        ).module.source
        assert "atomicAdd(&group_counts" in histo_src
