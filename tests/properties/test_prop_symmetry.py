"""Property-based tests: torus automorphisms preserve the load profile, and
the canonicity test agrees with the full group."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.load.odr_loads import odr_edge_loads
from repro.load.udr_loads import udr_edge_loads
from repro.placements.base import Placement
from repro.placements.symmetry import (
    automorphism_group,
    permute_dimensions,
    reflect_dimensions,
    translate_placement,
)
from repro.torus.topology import Torus


@st.composite
def placement_and_transform(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=3))
    torus = Torus(k, d)
    size = draw(st.integers(min_value=2, max_value=min(6, torus.num_nodes)))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=torus.num_nodes - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    offset = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(d)]
    perm = draw(st.permutations(list(range(d))))
    return Placement(torus, ids), offset, list(perm)


class TestAutomorphismInvariance:
    @settings(max_examples=30, deadline=None)
    @given(placement_and_transform())
    def test_translation_preserves_odr_load_multiset(self, data):
        placement, offset, _perm = data
        moved = translate_placement(placement, offset)
        assert np.allclose(
            np.sort(odr_edge_loads(placement)), np.sort(odr_edge_loads(moved))
        )

    @settings(max_examples=20, deadline=None)
    @given(placement_and_transform())
    def test_permutation_preserves_udr_load_multiset(self, data):
        placement, _offset, perm = data
        moved = permute_dimensions(placement, perm)
        # sorted comparison with tolerance: the fractional |A|!|B|!/s! sums
        # accumulate in different orders under the permutation
        assert np.allclose(
            np.sort(udr_edge_loads(placement)), np.sort(udr_edge_loads(moved))
        )

    @settings(max_examples=20, deadline=None)
    @given(placement_and_transform())
    def test_transforms_preserve_size(self, data):
        placement, offset, perm = data
        assert len(translate_placement(placement, offset)) == len(placement)
        assert len(permute_dimensions(placement, perm)) == len(placement)
        assert len(reflect_dimensions(placement, [0])) == len(placement)


#: every torus the canonicity property draws from; a set mask has
#: ceil(k^d / 64) words, so T_8^2 and T_4^3 fill one word exactly and
#: T_9^2, T_3^4 and T_4^4 need two to four.
_TORI = (
    [(k, 2) for k in range(2, 12)]
    + [(k, 3) for k in range(2, 8)]
    + [(k, 4) for k in range(2, 5)]
)
_WORD_EDGES = [(8, 2), (4, 3), (9, 2), (3, 4), (4, 4)]


@st.composite
def runs_of_children(draw, k, d):
    """A canonicity batch as the exact search sends it, and worse: runs of
    children ``S + {w}`` of random prefixes ``S`` (canonical or not), and
    the first run's first row again at the end, past the other runs."""
    torus = Torus(k, d)
    group = automorphism_group(torus)
    nodes = torus.num_nodes
    size = draw(st.integers(min_value=1, max_value=min(5 if d < 4 else 4, nodes)))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        prefix = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=nodes - 2),
                    min_size=size - 1,
                    max_size=size - 1,
                    unique=True,
                )
            )
        )
        if prefix and draw(st.booleans()):
            prefix = group.canonical_ids(prefix).tolist()
        lower = prefix[-1] + 1 if prefix else 0
        if lower == nodes:
            continue
        children = draw(
            st.lists(
                st.integers(min_value=lower, max_value=nodes - 1),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        rows.extend(prefix + [w] for w in sorted(children))
    assume(rows)
    return group, rows + rows[:1]


def _check_canonicity(group, rows):
    canonical, stab = group.canonicity(np.array(rows))
    for row, flag, count in zip(rows, canonical.tolist(), stab.tolist()):
        expected = group.canonical_ids(row).tolist() == row
        assert flag == expected, row
        assert count == (group.order // group.orbit_size(row) if expected else 0)


class TestCanonicity:
    """``AutomorphismGroup.canonicity`` against the full-group oracle:
    canonical exactly when ``canonical_ids`` returns the row, with the
    stabilizer order ``order // orbit_size``."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_TORI).flatmap(lambda kd: runs_of_children(*kd)))
    def test_matches_the_full_group(self, batch):
        _check_canonicity(*batch)

    @pytest.mark.parametrize("k, d", _WORD_EDGES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_at_the_word_boundaries(self, k, d, data):
        _check_canonicity(*data.draw(runs_of_children(k, d)))
