"""Edge separators: :math:`∂S` for arbitrary node sets.

``∂S`` is the set of all directed torus edges with exactly one endpoint in
``S`` (both directions counted, matching the paper's convention — a single
node has :math:`|∂S| = 4d`).
"""

from __future__ import annotations

import numpy as np

from repro.torus.topology import Torus

__all__ = ["separator_edges", "separator_size"]


def _membership_mask(torus: Torus, node_ids) -> np.ndarray:
    mask = np.zeros(torus.num_nodes, dtype=bool)
    mask[np.asarray(node_ids, dtype=np.int64)] = True
    return mask


def separator_edges(torus: Torus, node_ids) -> np.ndarray:
    """Dense ids of all directed edges joining ``node_ids`` to its complement.

    Vectorized: one pass per (dimension, sign) over all nodes.
    """
    in_s = _membership_mask(torus, node_ids)
    ei = torus.edges
    chunks = []
    all_nodes = np.arange(torus.num_nodes, dtype=np.int64)
    for dim in range(torus.d):
        for sign in (+1, -1):
            heads = ei.neighbors_array(all_nodes, dim, sign)
            crossing = in_s != in_s[heads]
            tails = all_nodes[crossing]
            chunks.append(
                ei.edge_ids_array(
                    tails,
                    np.full(tails.shape, dim, dtype=np.int64),
                    np.full(tails.shape, sign, dtype=np.int64),
                )
            )
    return np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)


def separator_size(torus: Torus, node_ids) -> int:
    """:math:`|∂S|` — the number of directed boundary edges of ``node_ids``."""
    return int(separator_edges(torus, node_ids).size)
