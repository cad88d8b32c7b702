"""networkx export of :math:`T_k^d`.

The conversion is deliberately kept out of the hot paths: it is an
independent oracle for the tests (shortest paths against Lee distance,
cuts against the hyperplane bisection).  networkx is a test dependency,
so no other module of the package imports this one.
"""

from __future__ import annotations

import networkx as nx

from repro.torus.topology import Torus

__all__ = ["to_networkx"]


def to_networkx(torus: Torus, removed_edges=None) -> "nx.DiGraph":
    """Build the directed networkx graph of ``torus``.

    Nodes are dense node ids; each edge carries its dense ``edge_id``,
    ``dim``, and ``sign`` as attributes.  ``removed_edges`` (an iterable of
    dense edge ids) supports building the faulted network.

    Notes
    -----
    For ``k == 2`` the ``+`` and ``−`` links between a node pair map to the
    same ``(u, v)`` digraph edge; the ``−`` link's attributes overwrite the
    ``+`` link's.  Fault experiments on ``k == 2`` should therefore use the
    dense edge-id machinery directly rather than the networkx view.
    """
    removed = set(int(e) for e in removed_edges) if removed_edges is not None else set()
    g = nx.DiGraph(k=torus.k, d=torus.d)
    g.add_nodes_from(range(torus.num_nodes))
    ei = torus.edges
    for edge_id in range(torus.num_edges):
        if edge_id in removed:
            continue
        e = ei.decode(edge_id)
        g.add_edge(e.tail, e.head, edge_id=e.edge_id, dim=e.dim, sign=e.sign)
    return g
