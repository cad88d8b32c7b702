"""Unit tests for repro.util.itertools_ext."""

import pytest

from repro.util.itertools_ext import ordered_pair_index_arrays


class TestOrderedPairIndexArrays:
    def test_matches_meshgrid_construction(self):
        # the vectorized load kernels were born from this masked-meshgrid
        # construction; the arithmetic replacement must be bit-identical.
        np = pytest.importorskip("numpy")
        for m in range(7):
            pi, qi = ordered_pair_index_arrays(m)
            idx = np.arange(m)
            grid_p, grid_q = np.meshgrid(idx, idx, indexing="ij")
            mask = grid_p != grid_q
            assert np.array_equal(pi, grid_p[mask])
            assert np.array_equal(qi, grid_q[mask])
            assert pi.dtype == np.int64 and qi.dtype == np.int64

    def test_counts_and_degenerate_sizes(self):
        np = pytest.importorskip("numpy")
        assert ordered_pair_index_arrays(0)[0].size == 0
        assert ordered_pair_index_arrays(1)[0].size == 0
        pi, qi = ordered_pair_index_arrays(5)
        assert pi.size == qi.size == 20
        assert np.all(pi != qi)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ordered_pair_index_arrays(-1)

    def test_agrees_with_nested_loops(self):
        items = ["a", "b", "c", "d"]
        pi, qi = ordered_pair_index_arrays(len(items))
        from_arrays = [(items[p], items[q]) for p, q in zip(pi, qi)]
        assert from_arrays == [(a, b) for a in items for b in items if a != b]
