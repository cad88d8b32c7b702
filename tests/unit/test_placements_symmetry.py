"""Unit tests for repro.torus.symmetry."""

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.load.odr_loads import odr_edge_loads
from repro.placements.base import Placement
from repro.placements.diagonal import antidiagonal_placement_2d
from repro.placements.linear import linear_placement
from repro.placements.random_placement import random_placement
from repro.placements.symmetry import (
    are_equivalent_placements,
    automorphism_group,
    canonical_form,
    permute_dimensions,
    reflect_dimensions,
    translate_placement,
)
from repro.torus.topology import Torus


def _brute_force_images(placement, translations_only=False):
    """Sorted id-tuples of every group image, via the per-element API."""
    import itertools

    torus = placement.torus
    if translations_only:
        point_images = [placement]
    else:
        point_images = []
        for perm in itertools.permutations(range(torus.d)):
            permuted = permute_dimensions(placement, perm)
            for mask in range(1 << torus.d):
                dims = [i for i in range(torus.d) if mask >> i & 1]
                point_images.append(reflect_dimensions(permuted, dims))
    images = []
    for image in point_images:
        for offset in itertools.product(range(torus.k), repeat=torus.d):
            shifted = translate_placement(image, list(offset))
            images.append(tuple(sorted(int(i) for i in shifted.node_ids)))
    return images


class TestGroupAction:
    def test_translate_identity(self, linear_4_2):
        assert translate_placement(linear_4_2, [0, 0]) == linear_4_2

    def test_translate_composition(self, linear_4_2):
        once = translate_placement(linear_4_2, [1, 2])
        twice = translate_placement(once, [3, 2])
        assert twice == translate_placement(linear_4_2, [0, 0])

    def test_translate_preserves_size(self, linear_4_3):
        assert len(translate_placement(linear_4_3, [1, 2, 3])) == len(linear_4_3)

    def test_translate_bad_offset(self, linear_4_2):
        with pytest.raises(InvalidParameterError):
            translate_placement(linear_4_2, [1])

    def test_permute_involution(self, linear_4_2):
        swapped = permute_dimensions(linear_4_2, [1, 0])
        assert permute_dimensions(swapped, [1, 0]) == linear_4_2

    def test_permute_bad_perm(self, linear_4_2):
        with pytest.raises(InvalidParameterError):
            permute_dimensions(linear_4_2, [0, 0])

    def test_reflect_involution(self, linear_4_2):
        once = reflect_dimensions(linear_4_2, [0])
        assert reflect_dimensions(once, [0]) == linear_4_2

    def test_reflect_bad_dim(self, linear_4_2):
        with pytest.raises(InvalidParameterError):
            reflect_dimensions(linear_4_2, [2])


class TestEquivalence:
    def test_offsets_are_translates(self):
        torus = Torus(5, 2)
        a = linear_placement(torus, offset=0)
        b = linear_placement(torus, offset=2)
        assert are_equivalent_placements(a, b, translations_only=True)

    def test_antidiagonal_is_reflection(self):
        torus = Torus(5, 2)
        diag = linear_placement(torus)
        anti = antidiagonal_placement_2d(torus)
        assert are_equivalent_placements(diag, anti)
        assert not are_equivalent_placements(diag, anti, translations_only=True)

    def test_different_sizes_not_equivalent(self, torus_4_2):
        a = Placement(torus_4_2, [0, 1])
        b = Placement(torus_4_2, [0, 1, 2])
        assert not are_equivalent_placements(a, b)

    def test_different_tori_not_equivalent(self):
        a = Placement(Torus(4, 2), [0])
        b = Placement(Torus(5, 2), [0])
        assert not are_equivalent_placements(a, b)

    def test_canonical_form_idempotent(self):
        torus = Torus(4, 2)
        p = linear_placement(torus, offset=3)
        c1 = canonical_form(p, translations_only=True)
        c2 = canonical_form(c1, translations_only=True)
        assert c1 == c2


class TestLoadInvariance:
    def test_emax_invariant_under_translation(self):
        torus = Torus(5, 2)
        p = linear_placement(torus)
        q = translate_placement(p, [2, 3])
        assert odr_edge_loads(p).max() == odr_edge_loads(q).max()

    def test_load_multiset_invariant_under_permutation(self):
        torus = Torus(5, 2)
        p = linear_placement(torus)
        q = permute_dimensions(p, [1, 0])
        assert np.array_equal(
            np.sort(odr_edge_loads(p)), np.sort(odr_edge_loads(q))
        )


class TestAutomorphismGroup:
    @pytest.mark.parametrize("k,d", [(3, 2), (4, 2), (3, 3)])
    def test_group_order(self, k, d):
        group = automorphism_group(Torus(k, d))
        assert group.order == k**d * math.factorial(d) * 2**d

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sorted_images_match_per_element_action(self, seed):
        torus = Torus(4, 2)
        placement = random_placement(torus, 4, seed=seed)
        group = automorphism_group(torus)
        fast = {tuple(row) for row in group.sorted_images(placement.node_ids)}
        slow = set(_brute_force_images(placement))
        assert fast == slow

    def test_translations_only_images(self):
        torus = Torus(3, 2)
        placement = random_placement(torus, 3, seed=7)
        group = automorphism_group(torus)
        fast = {
            tuple(row)
            for row in group.sorted_images(
                placement.node_ids, translations_only=True
            )
        }
        slow = set(_brute_force_images(placement, translations_only=True))
        assert fast == slow

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_orbit_size_matches_distinct_images(self, seed):
        torus = Torus(4, 2)
        placement = random_placement(torus, 4, seed=seed)
        group = automorphism_group(torus)
        distinct = {
            tuple(row) for row in group.sorted_images(placement.node_ids)
        }
        assert group.orbit_size(placement.node_ids) == len(distinct)

    def test_canonicity_agrees_with_canonical_ids(self):
        torus = Torus(3, 2)
        group = automorphism_group(torus)
        import itertools

        for ids in itertools.combinations(range(torus.num_nodes), 3):
            canonical, stab = group.canonicity(ids)
            expected = tuple(group.canonical_ids(ids)) == ids
            assert canonical == expected
            if canonical:
                assert group.order // stab == group.orbit_size(ids)

    @pytest.mark.parametrize("k,d,size", [(4, 2, 4), (2, 3, 3), (5, 2, 3)])
    def test_canonicity_matches_brute_force(self, k, d, size):
        # canonical <=> no per-element image sorts below the set, and the
        # stabilizer counts the images equal to it (with multiplicity)
        torus = Torus(k, d)
        group = automorphism_group(torus)
        for seed in range(12):
            ids = tuple(random_placement(torus, size, seed=seed).node_ids)
            images = _brute_force_images(Placement(torus, ids))
            canonical, stab = group.canonicity(ids)
            assert canonical == (min(images) == ids)
            if canonical:
                assert stab == images.count(ids)

    def test_batched_canonicity_matches_single_sets(self):
        import itertools

        torus = Torus(4, 2)
        group = automorphism_group(torus)
        sets = np.array(list(itertools.combinations(range(16), 3)))
        canonical, stab = group.canonicity(sets.reshape(-1, 4, 3)[:100])
        assert canonical.shape == stab.shape == (100, 4)
        for ids, flag, count in zip(
            sets[:400], canonical.ravel(), stab.ravel()
        ):
            assert group.canonicity(ids) == (bool(flag), int(count))

    def test_group_is_cached(self):
        torus = Torus(4, 2)
        assert automorphism_group(torus) is automorphism_group(Torus(4, 2))


class TestVectorizedCanonicalForm:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_canonical_is_lexmin_image(self, seed):
        torus = Torus(4, 2)
        placement = random_placement(torus, 5, seed=seed)
        canon = canonical_form(placement)
        expected = min(_brute_force_images(placement))
        assert tuple(int(i) for i in canon.node_ids) == expected

    def test_canonical_form_full_group_idempotent(self):
        placement = random_placement(Torus(4, 2), 4, seed=9)
        c1 = canonical_form(placement)
        assert canonical_form(c1) == c1

    def test_equivalent_placements_share_canonical_form(self):
        torus = Torus(5, 2)
        p = linear_placement(torus)
        q = reflect_dimensions(translate_placement(p, [2, 3]), [1])
        assert canonical_form(p) == canonical_form(q)
