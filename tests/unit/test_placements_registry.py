"""Unit tests for repro.placements.registry."""

import argparse

import pytest

from repro.cli import build_parser
from repro.errors import InvalidParameterError
from repro.placements import registry
from repro.placements.base import PlacementFamily
from repro.placements.registry import get_family


def _sweep_family_choices() -> list[str]:
    sub = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    sweep = sub.choices["sweep"]
    return next(a for a in sweep._actions if a.dest == "family").choices


class TestRegistry:
    def test_known_families(self):
        # `repro sweep --family` lists the registry's keys by hand
        choices = _sweep_family_choices()
        assert sorted(choices) == sorted(registry._FACTORIES)
        for name in choices:
            assert isinstance(get_family(name), PlacementFamily)

    def test_get_family_builds(self):
        fam = get_family("linear")
        assert len(fam.build(4, 2)) == 4

    def test_multilinear_variants(self):
        assert get_family("multilinear-t2").expected_size(4, 2) == 8
        assert get_family("multilinear-t3").expected_size(4, 2) == 12

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            get_family("no-such-family")
