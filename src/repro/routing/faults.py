"""Fault-masked routing: route around failed links (Section 7 motivation).

The paper's argument for UDR is that multiple paths per pair keep the
network functional when links fail.  :class:`FaultMaskedRouting` makes that
operational: it wraps any base algorithm and filters out every path that
crosses a failed link.  A pair becomes *disconnected under the routing
relation* when its entire path set is filtered away — the quantity EXP-11
measures for ODR vs UDR.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.routing.base import Path, RoutingAlgorithm
from repro.torus.topology import Torus

__all__ = ["FaultMaskedRouting"]


class FaultMaskedRouting(RoutingAlgorithm):
    """Wrap ``base`` and drop paths that traverse any failed edge.

    Parameters
    ----------
    base:
        The underlying routing algorithm.
    failed_edge_ids:
        Iterable of dense directed-edge ids considered down.
    strict:
        With ``strict=True`` (default) :meth:`paths` raises
        :class:`~repro.errors.RoutingError` when a pair's whole path set
        is filtered away.  With ``strict=False`` it returns the empty
        list instead, letting bulk consumers (e.g. the load analyses)
        detect and report the disconnected pair themselves.
    """

    #: a concrete failure set breaks the torus's vertex transitivity, so
    #: a per-displacement path table must never serve this routing.
    translation_invariant = False

    def __init__(self, base: RoutingAlgorithm, failed_edge_ids, strict: bool = True):
        self.base = base
        self.failed: frozenset[int] = frozenset(int(e) for e in failed_edge_ids)
        self.strict = bool(strict)
        self.name = f"{base.name}+faults({len(self.failed)})"

    def surviving_paths(self, torus: Torus, p_coord, q_coord) -> list[Path]:
        """Paths of the base relation that avoid all failed edges (may be empty)."""
        return [
            path
            for path in self.base.paths(torus, p_coord, q_coord)
            if not self.failed.intersection(path.edge_ids)
        ]

    def is_connected(self, torus: Torus, p_coord, q_coord) -> bool:
        """Whether at least one base path survives the failures."""
        return bool(self.surviving_paths(torus, p_coord, q_coord))

    def paths(self, torus: Torus, p_coord, q_coord) -> list[Path]:
        surviving = self.surviving_paths(torus, p_coord, q_coord)
        if not surviving and self.strict:
            raise RoutingError(
                f"no {self.base.name} path between {tuple(p_coord)} and "
                f"{tuple(q_coord)} survives the {len(self.failed)} failed links"
            )
        return surviving
