"""Registry of named placement families.

``repro sweep --family`` and the experiments reference families by
short name.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import InvalidParameterError
from repro.placements.base import PlacementFamily
from repro.placements.fully import FullyPopulatedFamily
from repro.placements.linear import LinearPlacementFamily
from repro.placements.multiple import MultipleLinearPlacementFamily

__all__ = ["get_family"]

_FACTORIES: dict[str, Callable[[], PlacementFamily]] = {
    "linear": lambda: LinearPlacementFamily(offset=0),
    "multilinear-t2": lambda: MultipleLinearPlacementFamily(t=2),
    "multilinear-t3": lambda: MultipleLinearPlacementFamily(t=3),
    "fully-populated": FullyPopulatedFamily,
}


def get_family(name: str) -> PlacementFamily:
    """Instantiate the registered family called ``name``."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise InvalidParameterError(
            f"unknown placement family {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
