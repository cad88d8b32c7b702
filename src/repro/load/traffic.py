"""Traffic patterns as pair-weight matrices.

The paper analyzes *complete exchange* (all-to-all personalized
communication); the load machinery also accepts arbitrary ``(|P|, |P|)``
weight matrices, so we provide the classical alternatives used to stress
interconnects — useful for the examples and for users adopting the library
beyond the paper's scenario.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.util.rng import resolve_rng

__all__ = [
    "validate_pair_weights",
    "complete_exchange_weights",
    "permutation_traffic_weights",
    "hotspot_traffic_weights",
]


def validate_pair_weights(
    pair_weights: np.ndarray | None, m: int
) -> np.ndarray | None:
    """Coerce a traffic matrix to ``float64`` and check its shape.

    Returns ``None`` untouched (the complete-exchange default); raises
    :class:`~repro.errors.InvalidParameterError` (a ``ValueError``)
    unless the matrix is ``(m, m)``.
    """
    if pair_weights is None:
        return None
    pair_weights = np.asarray(pair_weights, dtype=np.float64)
    if pair_weights.shape != (m, m):
        raise InvalidParameterError(
            f"pair_weights must have shape ({m}, {m}), got {pair_weights.shape}"
        )
    return pair_weights


def complete_exchange_weights(m: int) -> np.ndarray:
    """Weight 1 for every ordered pair ``i != j`` — the paper's scenario."""
    if m < 1:
        raise InvalidParameterError(f"placement size must be >= 1, got {m}")
    w = np.ones((m, m), dtype=np.float64)
    np.fill_diagonal(w, 0.0)
    return w


def permutation_traffic_weights(m: int, seed=None) -> np.ndarray:
    """Each processor sends to exactly one other (a random derangement-ish
    permutation; fixed points are re-rolled, so every sender has a distinct
    receiver different from itself)."""
    if m < 2:
        raise InvalidParameterError(
            f"permutation traffic needs >= 2 processors, got {m}"
        )
    rng = resolve_rng(seed)
    while True:
        perm = rng.permutation(m)
        if not np.any(perm == np.arange(m)):
            break
    w = np.zeros((m, m), dtype=np.float64)
    w[np.arange(m), perm] = 1.0
    return w


def hotspot_traffic_weights(
    m: int, hotspot_index: int = 0, background: float = 0.0
) -> np.ndarray:
    """Everybody sends one message to a hotspot processor; optionally a
    uniform ``background`` weight on all other ordered pairs."""
    if not 0 <= hotspot_index < m:
        raise InvalidParameterError(
            f"hotspot index {hotspot_index} outside [0, {m})"
        )
    w = np.full((m, m), float(background), dtype=np.float64)
    np.fill_diagonal(w, 0.0)
    w[:, hotspot_index] = 1.0
    w[hotspot_index, hotspot_index] = 0.0
    return w
