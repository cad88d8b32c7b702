"""Unit tests for the mixed-radix torus generalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.load.odr_loads import odr_edge_loads
from repro.mixedradix import (
    MixedPlacement,
    MixedTorus,
    lcm_linear_placement,
    mixed_dimension_cut,
    mixed_linear_placement,
    mixed_odr_edge_loads,
)
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus


class TestMixedTorus:
    def test_counts(self):
        t = MixedTorus((4, 6, 8))
        assert t.num_nodes == 192
        assert t.num_edges == 2 * 3 * 192
        assert t.d == 3

    def test_invalid_shape(self):
        with pytest.raises(InvalidParameterError):
            MixedTorus(())
        with pytest.raises(InvalidParameterError):
            MixedTorus((4, 1))

    def test_coord_roundtrip(self):
        t = MixedTorus((3, 5, 2))
        ids = np.arange(t.num_nodes)
        assert np.array_equal(t.node_ids(t.coords(ids)), ids)

    def test_coords_reduced_modulo_shape(self):
        t = MixedTorus((3, 5))
        assert t.node_ids([(4, 7)])[0] == t.node_ids([(1, 2)])[0]

    def test_out_of_range_id(self):
        t = MixedTorus((3, 3))
        with pytest.raises(InvalidParameterError):
            t.coords([9])

    def test_lee_distance_per_dimension_radix(self):
        t = MixedTorus((4, 10))
        # dim 0 wraps at 4 (distance 1), dim 1 wraps at 10 (distance 3)
        assert t.lee_distance((0, 0), (3, 7)) == 1 + 3

    def test_minimal_corrections_tie_plus(self):
        t = MixedTorus((4, 6))
        delta = t.minimal_corrections(
            np.array([[0, 0]]), np.array([[2, 3]])
        )
        assert delta.tolist() == [[2, 3]]  # both half-ring ties -> +

    def test_layer_counts(self):
        t = MixedTorus((2, 3))
        counts = t.layer_counts(np.arange(6), 1)
        assert counts.tolist() == [2, 2, 2]

    def test_equality(self):
        assert MixedTorus((4, 6)) == MixedTorus((4, 6))
        assert MixedTorus((4, 6)) != MixedTorus((6, 4))


class TestMixedLinearPlacement:
    def test_size_law_gcd(self):
        t = MixedTorus((4, 8))
        p = mixed_linear_placement(t)
        assert len(p) == 32 // 4

    def test_membership(self):
        t = MixedTorus((4, 6))
        p = mixed_linear_placement(t)  # gcd = 2
        assert np.all(p.coords().sum(axis=1) % 2 == 0)

    def test_uniform(self):
        assert mixed_linear_placement(MixedTorus((4, 6, 8))).is_uniform()

    def test_modulus_must_divide(self):
        with pytest.raises(InvalidParameterError):
            mixed_linear_placement(MixedTorus((4, 6)), modulus=4)

    def test_coprime_radii_rejected(self):
        with pytest.raises(InvalidParameterError):
            mixed_linear_placement(MixedTorus((3, 4)))  # gcd 1

    def test_coefficient_coprimality_enforced(self):
        with pytest.raises(InvalidParameterError):
            mixed_linear_placement(
                MixedTorus((4, 8)), modulus=4, coefficients=[2, 1]
            )

    def test_offset_classes_partition(self):
        t = MixedTorus((4, 8))
        all_ids = np.concatenate(
            [mixed_linear_placement(t, offset=c).node_ids for c in range(4)]
        )
        assert np.array_equal(np.sort(all_ids), np.arange(32))


class TestLcmPlacement:
    def test_size_law(self):
        t = MixedTorus((4, 6))
        assert len(lcm_linear_placement(t)) == 24 // math.lcm(4, 6)

    def test_square_equals_paper_linear(self):
        t = MixedTorus((5, 5))
        p = lcm_linear_placement(t)
        assert np.all(p.coords().sum(axis=1) % 5 == 0)
        assert len(p) == 5

    def test_flat_load_ratio(self):
        for shape in [(4, 8), (4, 12), (6, 12)]:
            t = MixedTorus(shape)
            p = lcm_linear_placement(t)
            ratio = float(mixed_odr_edge_loads(p).max()) / len(p)
            assert ratio == pytest.approx(0.5)


def _walked_loads(placement):
    """ODR loads by walking every ordered pair hop by hop (the oracle)."""
    torus = placement.torus
    loads = np.zeros(torus.num_edges)
    coords = placement.coords()
    for p in coords:
        for q in coords:
            here = p.copy()
            delta = torus.minimal_corrections(p, q)[0]
            for dim, k in enumerate(torus.shape):
                step = 1 if delta[dim] > 0 else -1
                for _ in range(abs(int(delta[dim]))):
                    tail = int(torus.node_ids(here)[0])
                    loads[tail * 2 * torus.d + 2 * dim + (step < 0)] += 1
                    here[dim] = (here[dim] + step) % k
    return loads


@st.composite
def _mixed_placements(draw):
    # even radii put half-ring ties, corrected the + way, on the rings
    shape = draw(
        st.lists(st.integers(2, 8), min_size=1, max_size=3).filter(
            lambda s: math.prod(s) <= 150
        )
    )
    torus = MixedTorus(shape)
    size = draw(st.integers(1, min(torus.num_nodes, 20)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return MixedPlacement(torus, rng.choice(torus.num_nodes, size, replace=False))


class TestMixedLoads:
    @given(_mixed_placements())
    @settings(max_examples=60, deadline=None)
    def test_ring_sums_equal_the_pair_walk(self, placement):
        assert np.array_equal(
            mixed_odr_edge_loads(placement), _walked_loads(placement)
        )

    def test_conservation(self):
        # coprime radii: no linear placement exists, use an ad-hoc one
        t = MixedTorus((3, 4))
        p = MixedPlacement(t, [0, 5, 7, 10])
        loads = mixed_odr_edge_loads(p)
        coords = p.coords()
        m = len(p)
        lee = sum(
            t.lee_distance(coords[i], coords[j])
            for i in range(m)
            for j in range(m)
            if i != j
        )
        assert loads.sum() == pytest.approx(lee)

    def test_square_matches_uniform_engine(self):
        mixed = MixedTorus((4, 4))
        p_mixed = mixed_linear_placement(mixed, modulus=4)
        ref = odr_edge_loads(linear_placement(Torus(4, 2)))
        assert np.allclose(mixed_odr_edge_loads(p_mixed), ref)

    def test_nonnegative(self):
        t = MixedTorus((4, 6))
        loads = mixed_odr_edge_loads(mixed_linear_placement(t))
        assert np.all(loads >= 0)


class TestMixedDimensionCut:
    def test_cut_size_cross_section(self):
        t = MixedTorus((4, 8))
        p = mixed_linear_placement(t)
        cut = mixed_dimension_cut(p, dim=1)
        assert cut.cut_size == 4 * 4  # cross-section of dim 1 is 4

    def test_balanced_for_uniform(self):
        p = mixed_linear_placement(MixedTorus((4, 6, 8)))
        assert mixed_dimension_cut(p).is_balanced

    def test_best_dim_prefers_smallest_cut(self):
        p = mixed_linear_placement(MixedTorus((4, 8)))
        cut = mixed_dimension_cut(p)
        # both dims balance; the dim-1 cut (cross-section 4) is cheaper
        assert cut.dim == 1

    def test_bad_dim(self):
        p = mixed_linear_placement(MixedTorus((4, 8)))
        with pytest.raises(InvalidParameterError):
            mixed_dimension_cut(p, dim=2)


class TestMixedPlacementValidation:
    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            MixedPlacement(MixedTorus((3, 3)), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            MixedPlacement(MixedTorus((3, 3)), [9])
