"""Unit tests for repro.placements.lee_codes."""

import pytest

from repro.errors import InvalidParameterError
from repro.placements.lee_codes import (
    covering_radius,
    is_perfect_dominating,
    perfect_lee_placement,
)
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus


class TestPerfectLeePlacement:
    @pytest.mark.parametrize("k,r", [(5, 1), (10, 1), (13, 2), (15, 1)])
    def test_perfect_domination(self, k, r):
        p = perfect_lee_placement(Torus(k, 2), r)
        assert is_perfect_dominating(p, r)
        assert covering_radius(p) == r

    def test_size_law(self):
        p = perfect_lee_placement(Torus(10, 2), 1)
        assert len(p) == 100 // 5

    def test_divisibility_required(self):
        with pytest.raises(InvalidParameterError):
            perfect_lee_placement(Torus(6, 2), 1)

    def test_requires_2d(self):
        with pytest.raises(InvalidParameterError):
            perfect_lee_placement(Torus(5, 3), 1)

    def test_radius_bounds(self):
        with pytest.raises(InvalidParameterError):
            perfect_lee_placement(Torus(5, 2), 0)


class TestCoverageVsLoad:
    def test_linear_placement_covering_radius(self):
        # a k-processor diagonal on T_k^2 has covering radius floor(k/2):
        # the diagonal is distance-regular along itself
        p = linear_placement(Torus(5, 2))
        assert covering_radius(p) == 2

    def test_lee_code_is_sparser_but_covers_tighter(self):
        torus = Torus(10, 2)
        code = perfect_lee_placement(torus, 1)
        diag = linear_placement(torus)
        # code: 20 nodes cover within r=1; diagonal: 10 nodes cover within 5
        assert covering_radius(code) < covering_radius(diag)
        assert len(code) > len(diag)

    def test_not_dominating_with_smaller_radius(self):
        p = perfect_lee_placement(Torus(13, 2), 2)
        assert not is_perfect_dominating(p, 1)
