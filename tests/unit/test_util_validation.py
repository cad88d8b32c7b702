"""Unit tests for repro.util.validation."""

import pytest

from repro.errors import InvalidParameterError
from repro.util.validation import (
    check_dimension,
    check_radix,
    check_torus_params,
)


class TestCheckDimension:
    def test_valid(self):
        assert check_dimension(1) == 1
        assert check_dimension(10) == 10

    def test_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_dimension(0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_dimension(-3)

    def test_float_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_dimension(2.0)

    def test_bool_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_dimension(True)


class TestCheckRadix:
    def test_valid(self):
        assert check_radix(2) == 2
        assert check_radix(100) == 100

    def test_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_radix(1)

    def test_string_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_radix("4")


class TestCheckTorusParams:
    def test_returns_pair(self):
        assert check_torus_params(4, 3) == (4, 3)

    def test_bad_radix(self):
        with pytest.raises(InvalidParameterError):
            check_torus_params(0, 3)

    def test_bad_dimension(self):
        with pytest.raises(InvalidParameterError):
            check_torus_params(4, 0)
