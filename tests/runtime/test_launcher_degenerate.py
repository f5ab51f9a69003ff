"""Degenerate launches: empty domains, size 1, oversized, infeasible.

``adjust_at_launch`` re-derives block sizes at runtime; these tests pin
the behavior at the edges of that re-derivation — a degenerate domain
launches one block, an impossible geometry raises a typed
:class:`~repro.errors.LaunchError`, never an ``IndexError``.
"""

import pytest

from repro.analysis import analyze_program
from repro.analysis.scoring import hard_feasible
from repro.analysis.search import search_mapping
from repro.errors import LaunchError
from repro.runtime.launcher import adjust_at_launch

from tests.conftest import make_sum_rows


@pytest.fixture(scope="module")
def kernel():
    ka = analyze_program(make_sum_rows(), R=256, C=256).kernel(0)
    mapping = search_mapping(
        ka.depth, ka.constraints, ka.level_sizes()
    ).mapping
    return ka, mapping


class TestDegenerateLaunches:
    def test_empty_domain_launches_one_block(self, kernel):
        ka, mapping = kernel
        adjusted = adjust_at_launch(mapping, ka.constraints, (0, 8))
        # The empty level was clamped to one element: still feasible.
        assert hard_feasible(adjusted, ka.constraints, (1, 8))
        assert adjusted.num_levels == mapping.num_levels

    def test_all_empty_domain(self, kernel):
        ka, mapping = kernel
        adjusted = adjust_at_launch(mapping, ka.constraints, (0, 0))
        assert hard_feasible(adjusted, ka.constraints, (1, 1))

    def test_size_one_domain(self, kernel):
        ka, mapping = kernel
        adjusted = adjust_at_launch(mapping, ka.constraints, (1, 1))
        assert hard_feasible(adjusted, ka.constraints, (1, 1))

    def test_oversized_domain(self, kernel):
        ka, mapping = kernel
        sizes = (1 << 20, 1 << 16)
        adjusted = adjust_at_launch(mapping, ka.constraints, sizes)
        assert hard_feasible(adjusted, ka.constraints, sizes)
        # Structure is preserved: dims and span kinds never change.
        for old, new in zip(mapping.levels, adjusted.levels):
            assert old.dim == new.dim
            assert type(old.span) is type(new.span)

    def test_wrong_arity_raises_typed_error(self, kernel):
        ka, mapping = kernel
        with pytest.raises(LaunchError):
            adjust_at_launch(mapping, ka.constraints, (64,))
        with pytest.raises(LaunchError):
            adjust_at_launch(mapping, ka.constraints, (64, 64, 64))

    def test_negative_size_raises_typed_error(self, kernel):
        ka, mapping = kernel
        with pytest.raises(LaunchError):
            adjust_at_launch(mapping, ka.constraints, (-1, 64))

    def test_no_feasible_geometry_raises_typed_error(self, kernel):
        """A block-size grid with no valid entry must raise LaunchError,
        not fall off the end of the candidate loop with an IndexError."""
        ka, mapping = kernel
        with pytest.raises(LaunchError) as info:
            adjust_at_launch(
                mapping, ka.constraints, (64, 64), block_sizes=(4096,)
            )
        assert "no feasible launch geometry" in str(info.value)
