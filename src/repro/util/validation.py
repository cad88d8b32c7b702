"""Argument validation helpers.

Centralizing the checks keeps error messages consistent across the package
and gives tests a single behaviour to pin down.
"""

from __future__ import annotations

from typing import Collection, Iterable

from repro.errors import InvalidParameterError

__all__ = [
    "check_dimension",
    "check_radix",
    "check_torus_params",
    "check_shape",
    "check_node_ids",
]


def check_dimension(d: int) -> int:
    """Validate a torus dimension count ``d >= 1`` and return it as int."""
    if not isinstance(d, (int,)) or isinstance(d, bool):
        raise InvalidParameterError(f"dimension d must be an int, got {d!r}")
    if d < 1:
        raise InvalidParameterError(f"dimension d must be >= 1, got {d}")
    return int(d)


def check_radix(k: int) -> int:
    """Validate a torus radix (ring size) ``k >= 2`` and return it as int.

    ``k = 2`` is the degenerate torus where the two ring directions coincide
    as undirected edges but remain distinct directed links; ``k = 1`` would
    collapse every ring to a self-loop, which the paper's model excludes.
    """
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise InvalidParameterError(f"radix k must be an int, got {k!r}")
    if k < 2:
        raise InvalidParameterError(f"radix k must be >= 2, got {k}")
    return int(k)


def check_torus_params(k: int, d: int) -> tuple[int, int]:
    """Validate a ``(k, d)`` pair, returning it normalized to ints."""
    return check_radix(k), check_dimension(d)


def check_shape(shape: Iterable[int]) -> tuple[int, ...]:
    """Validate a mixed-radix shape ``(k_1, …, k_d)``: ``d >= 1``, each
    radix ``>= 2``.  Returns the shape normalized to a tuple of ints."""
    normalized = tuple(int(k) for k in shape)
    check_dimension(len(normalized))
    for k in normalized:
        check_radix(k)
    return normalized


def check_node_ids(node_ids: Collection[int], num_nodes: int) -> None:
    """Validate a non-empty node-id collection within ``[0, num_nodes)``."""
    if len(node_ids) == 0:
        raise InvalidParameterError("a placement must be non-empty")
    if int(min(node_ids)) < 0 or int(max(node_ids)) >= num_nodes:
        raise InvalidParameterError(
            f"node ids must lie in [0, {num_nodes})"
        )
