"""Path representation and the routing-algorithm protocol."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.errors import RoutingError
from repro.torus.topology import Torus

if TYPE_CHECKING:  # numpy only needed for the coordinate alias
    import numpy as np

__all__ = ["Path", "RoutingAlgorithm", "walk_moves", "CoordLike"]

#: anything accepted as a torus coordinate: a tuple/list of ints or a
#: length-``d`` integer numpy row.
CoordLike = Union[Sequence[int], "np.ndarray"]


@dataclass(frozen=True)
class Path:
    """A directed path on the torus.

    Attributes
    ----------
    nodes:
        Node ids visited, in order (length = hops + 1).
    edge_ids:
        Dense ids of the directed edges traversed (length = hops).
    """

    nodes: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        """Hop count."""
        return len(self.edge_ids)

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    def uses_edge(self, edge_id: int) -> bool:
        """Whether the path traverses the given dense edge id."""
        return edge_id in self.edge_ids

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.edge_ids) + 1:
            raise RoutingError(
                f"path has {len(self.nodes)} nodes but {len(self.edge_ids)} "
                "edges; expected nodes = edges + 1"
            )


def walk_moves(
    torus: Torus,
    start_coord: CoordLike,
    moves: Iterable[tuple[int, int]],
) -> Path:
    """Materialize a :class:`Path` from a start coordinate and a move list.

    ``moves`` is a sequence of ``(dim, sign)`` single-hop steps.  Raises
    :class:`~repro.errors.RoutingError` on an invalid move.
    """
    ei = torus.edges
    coord = list(int(c) for c in start_coord)
    node = torus.node_id(coord)
    nodes = [node]
    edge_ids = []
    for dim, sign in moves:
        if not 0 <= dim < torus.d or sign not in (1, -1):
            raise RoutingError(f"invalid move (dim={dim}, sign={sign})")
        edge_ids.append(ei.edge_id(node, dim, sign))
        coord[dim] = (coord[dim] + sign) % torus.k
        node = torus.node_id(coord)
        nodes.append(node)
    return Path(nodes=tuple(nodes), edge_ids=tuple(edge_ids))


class RoutingAlgorithm(abc.ABC):
    """The Definition 3 protocol: a set of shortest paths per ordered pair.

    Implementations must guarantee every returned path is *minimal*
    (length = Lee distance) — the property tests enforce this.
    """

    #: short machine name used in reports.
    name: str = "routing"

    #: Whether the path set depends only on the displacement
    #: ``(q - p) mod k`` per dimension — i.e. translating source and
    #: destination by the same vector translates every path edge-for-edge.
    #: All the paper's dimension-ordered routings have this property
    #: (their corrections are functions of the coordinate differences
    #: alone); fault-masked wrappers do *not*, because the failed links
    #: break the torus's vertex transitivity.  The per-displacement path
    #: table in :mod:`repro.load.path_table` relies on this flag.
    translation_invariant: bool = False

    @abc.abstractmethod
    def paths(
        self, torus: Torus, p_coord: CoordLike, q_coord: CoordLike
    ) -> list[Path]:
        """The path set :math:`C^A_{p→q}`; non-empty for ``p != q``."""

    def num_paths(
        self, torus: Torus, p_coord: CoordLike, q_coord: CoordLike
    ) -> int:
        """:math:`|C^A_{p→q}|`.  Default: materialize and count.

        Subclasses override with closed forms where available (e.g. UDR's
        :math:`s!`).
        """
        return len(self.paths(torus, p_coord, q_coord))

    def path_multiplicity_lower_bound(self) -> int:
        """Guaranteed minimum path count for distinct pairs (fault-tolerance
        figure of merit; 1 for deterministic algorithms)."""
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}()"
