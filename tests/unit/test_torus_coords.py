"""Unit tests for repro.torus.coords."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.torus.coords import (
    all_coords,
    coords_to_ids,
    ids_to_coords,
    normalize_coords,
)


class TestNormalizeCoords:
    def test_single_tuple(self):
        out = normalize_coords((1, 2), 4, 2)
        assert out.shape == (1, 2)

    def test_reduces_modulo(self):
        out = normalize_coords((5, -1), 4, 2)
        assert out.tolist() == [[1, 3]]

    def test_wrong_width(self):
        with pytest.raises(InvalidParameterError):
            normalize_coords((1, 2, 3), 4, 2)


class TestRoundTrip:
    @pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (4, 3), (5, 2)])
    def test_ids_to_coords_to_ids(self, k, d):
        ids = np.arange(k**d)
        coords = ids_to_coords(ids, k, d)
        assert np.array_equal(coords_to_ids(coords, k, d), ids)

    def test_c_order_convention(self):
        # id = a1*k^(d-1) + ... + ad
        assert coords_to_ids((1, 2), 4, 2)[0] == 1 * 4 + 2
        assert coords_to_ids((2, 1, 3), 4, 3)[0] == 2 * 16 + 1 * 4 + 3

    def test_scalar_id_decodes_to_1d(self):
        out = ids_to_coords(5, 4, 2)
        assert out.shape == (2,)
        assert out.tolist() == [1, 1]

    def test_out_of_range_id(self):
        with pytest.raises(InvalidParameterError):
            ids_to_coords(16, 4, 2)
        with pytest.raises(InvalidParameterError):
            ids_to_coords(-1, 4, 2)


class TestAllCoords:
    def test_shape(self):
        assert all_coords(3, 2).shape == (9, 2)

    def test_row_i_is_node_i(self):
        coords = all_coords(3, 3)
        ids = coords_to_ids(coords, 3, 3)
        assert np.array_equal(ids, np.arange(27))

    def test_values_in_range(self):
        coords = all_coords(5, 2)
        assert coords.min() == 0 and coords.max() == 4
