"""Torus automorphisms and their action on placements.

:math:`T_k^d` has a rich automorphism group: coordinate **translations**
(:math:`\\mathbb{Z}_k^d`), coordinate **permutations** (:math:`S_d`), and
per-coordinate **reflections** (:math:`x_i \\mapsto -x_i`).  Every
automorphism preserves Lee distance, hence maps minimal paths to minimal
paths — so the complete-exchange load profile of a placement is invariant
under all of them (the structural fact behind EXP-14's measurements: all
linear-placement offsets are translates of each other, and coefficient
negations are reflections).

This module implements the group action and an exact isomorphism test for
small tori (canonical form under the full group, or the translation
subgroup only).  :class:`AutomorphismGroup` is the vectorized engine
behind both: the whole group acts on a single ``(n, d)`` coordinate
matrix as array ops, so canonicalizing a placement never materializes a
:class:`Placement` per group element, and orbit sizes come exactly from
stabilizer counting (orbit–stabilizer theorem).

One caution for consumers: only *translations* leave the restricted-ODR
load profile invariant.  Dimension permutations re-order the correction
sequence and reflections flip the even-``k`` tie-break, so :math:`E_{max}`
can differ between placements of the same full-group orbit (see
:mod:`repro.placements.exact_search` for the exact accounting).
"""

from __future__ import annotations

import functools
import itertools
from typing import Any

import numpy as np

from repro.errors import InvalidParameterError
from repro.placements.base import Placement
from repro.torus.coords import all_coords, coords_to_ids
from repro.torus.topology import Torus

__all__ = [
    "translate_placement",
    "permute_dimensions",
    "reflect_dimensions",
    "canonical_form",
    "are_equivalent_placements",
    "AutomorphismGroup",
    "automorphism_group",
]


def translate_placement(placement: Placement, offset) -> Placement:
    """The placement shifted by ``offset`` (a length-``d`` vector, mod k)."""
    torus = placement.torus
    offset = np.asarray(offset, dtype=np.int64)
    if offset.shape != (torus.d,):
        raise InvalidParameterError(
            f"offset must have shape ({torus.d},), got {offset.shape}"
        )
    coords = np.mod(placement.coords() + offset, torus.k)
    return Placement(
        torus,
        coords_to_ids(coords, torus.k, torus.d),
        name=f"{placement.name}+{offset.tolist()}",
    )


def permute_dimensions(placement: Placement, perm) -> Placement:
    """The placement with coordinates reordered by permutation ``perm``.

    ``perm[i]`` is the source dimension feeding new dimension ``i``.
    """
    torus = placement.torus
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != list(range(torus.d)):
        raise InvalidParameterError(
            f"perm must be a permutation of range({torus.d}), got {perm}"
        )
    coords = placement.coords()[:, perm]
    return Placement(
        torus,
        coords_to_ids(coords, torus.k, torus.d),
        name=f"{placement.name}|perm{perm}",
    )


def reflect_dimensions(placement: Placement, dims) -> Placement:
    """The placement with coordinates negated (mod k) in the given dims."""
    torus = placement.torus
    coords = placement.coords().copy()
    for dim in dims:
        if not 0 <= dim < torus.d:
            raise InvalidParameterError(f"dim {dim} outside [0, {torus.d})")
        coords[:, dim] = np.mod(-coords[:, dim], torus.k)
    return Placement(
        torus,
        coords_to_ids(coords, torus.k, torus.d),
        name=f"{placement.name}|reflect{sorted(dims)}",
    )


def _id_key(placement: Placement) -> bytes:
    return placement.node_ids.tobytes()


def _lexmin_row(rows: np.ndarray) -> np.ndarray:
    """The lexicographically smallest row of a 2-D int array.

    Works by column-wise filtering (keep only the rows achieving the
    minimum in each successive column), so no packing into scalar keys is
    needed and arbitrarily wide rows cannot overflow.
    """
    alive = rows
    for col in range(rows.shape[1]):
        values = alive[:, col]
        alive = alive[values == values.min()]
        if alive.shape[0] == 1:
            break
    return alive[0]


class AutomorphismGroup:
    """The automorphism group of :math:`T_k^d` acting on node-id sets.

    The group is the semidirect product of the :math:`k^d` translations
    with the *point group* of :math:`d!` dimension permutations and
    :math:`2^d` per-dimension reflections (order
    :math:`k^d \\cdot d! \\cdot 2^d`; for ``k == 2`` some elements coincide
    as node permutations, which the orbit–stabilizer accounting absorbs).

    Every image is a table lookup: a point-group table of shape
    ``(d!·2^d, k^d)`` and a ``(k^d, k^d)`` translation table are built
    once, and each query is one gather through both — no per-element
    Python objects.  The translation table is quadratic in the node
    count, which suits the small tori symmetry reduction is run on.

    Point-group elements are applied as ``reflect(permute(x))`` and are
    indexed by :attr:`point_descs` ``(perm, reflection_mask)`` pairs;
    translations compose on the outside.
    """

    def __init__(self, torus: Torus):
        self.torus = torus
        k, d = torus.k, torus.d
        base = all_coords(k, d)  # (k^d, d); row i == coordinate of node i
        strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)
        tables: list[np.ndarray] = []
        descs: list[tuple[tuple[int, ...], int]] = []
        for perm in itertools.permutations(range(d)):
            permuted = base[:, perm]
            for mask in range(1 << d):
                image = permuted.copy()
                for dim in range(d):
                    if mask >> dim & 1:
                        image[:, dim] = np.mod(-image[:, dim], k)
                tables.append(image)
                descs.append((perm, mask))
        #: (point_order, k^d) — every node's image under each point-group
        #: element, as dense node ids.
        self.point_ids: np.ndarray = np.stack(tables) @ strides
        #: ``(perm, reflection_mask)`` describing each point-group row.
        self.point_descs: tuple[tuple[tuple[int, ...], int], ...] = tuple(descs)
        self.point_order: int = len(descs)
        self.num_translations: int = k**d
        #: full group order :math:`k^d \\cdot d! \\cdot 2^d`.
        self.order: int = self.point_order * self.num_translations
        #: (k^d, k^d) — ``_translate[t, v]`` is node ``v`` shifted by the
        #: translation whose offset vector is node ``t``'s coordinate.
        self._translate: np.ndarray = (
            np.mod(base[:, None, :] + base[None, :, :], k) @ strides
        )
        #: (k^d,) — the node at minus each node's coordinate.
        self._negate: np.ndarray = np.mod(-base, k) @ strides

    # ----------------------------------------------------------- images

    def sorted_images(
        self, node_ids, translations_only: bool = False
    ) -> np.ndarray:
        """Sorted image id rows of a node set under every group element.

        Returns an ``(order, m)`` array (``(k^d, m)`` when
        ``translations_only``); each row is one image of the set, sorted
        ascending so rows compare as canonical set keys.  One gather from
        the translation table: point-group images first, then every
        translation of each.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        if translations_only:
            images = self._translate[:, ids]  # (k^d, m)
        else:
            images = self._translate[:, self.point_ids[:, ids]]  # (k^d, P, m)
        return np.sort(images.reshape(-1, ids.size), axis=1)

    def canonical_ids(
        self, node_ids, translations_only: bool = False
    ) -> np.ndarray:
        """The lexicographically smallest sorted image of the node set."""
        return _lexmin_row(self.sorted_images(node_ids, translations_only))

    def canonicity(self, node_ids) -> tuple[Any, Any]:
        """Whether the sorted node set is its orbit's canonical (lex-min)
        representative, and the order of its stabilizer.

        Returns ``(False, 0)`` when some image is lexicographically
        smaller; otherwise ``(True, |Stab|)`` where ``|Stab|`` counts the
        group elements (with multiplicity in the ``k == 2`` degenerate
        case) that fix the set, so ``order // |Stab|`` is the exact orbit
        size.

        Leading axes batch sets of equal size: ``(..., m)`` ids give a
        boolean and an integer array of shape ``(...)``.

        Only *anchored* images are built.  An image can sort at or below
        the set only if it contains node 0, since the lex-min set always
        does; and each group element mapping some ``x`` of the set to 0 is
        ``h`` followed by the translation by ``-h(x)``.  So the ``P·m``
        images ``{h(y) - h(x) : y}`` decide canonicity, and the ones equal
        to the set count its stabilizer exactly.
        """
        ids = np.sort(np.asarray(node_ids, dtype=np.int64), axis=-1)
        sets = ids.reshape(-1, ids.shape[-1])  # (B, m)
        moved = np.moveaxis(self.point_ids[:, sets], 0, 1)  # (B, P, m)
        anchored = self._translate[
            self._negate[moved][..., :, None], moved[..., None, :]
        ]  # (B, P, m anchors, m)
        images = np.sort(anchored.reshape(len(sets), -1, sets.shape[1]), -1)
        # compare every image with its set at their first differing column
        target = sets[:, None, :]
        differs = images != target
        first = differs.argmax(axis=-1)[..., None]
        smaller = np.take_along_axis(images < target, first, axis=-1)[..., 0]
        canonical = ~smaller.any(axis=-1)
        fixed = np.count_nonzero(~differs.any(axis=-1), axis=-1)
        stab = np.where(canonical, fixed, 0)
        if ids.ndim == 1:
            return bool(canonical[0]), int(stab[0])
        return canonical.reshape(ids.shape[:-1]), stab.reshape(ids.shape[:-1])

    def orbit_size(self, node_ids) -> int:
        """Exact orbit size of the node set, via orbit–stabilizer."""
        ids = np.sort(np.asarray(node_ids, dtype=np.int64))
        images = self.sorted_images(ids)
        stabilizer = int(np.count_nonzero(np.all(images == ids, axis=1)))
        return self.order // stabilizer


@functools.lru_cache(maxsize=16)
def automorphism_group(torus: Torus) -> AutomorphismGroup:
    """The (cached) :class:`AutomorphismGroup` of ``torus``."""
    return AutomorphismGroup(torus)


def canonical_form(
    placement: Placement, translations_only: bool = False
) -> Placement:
    """The lexicographically smallest image under the automorphism group.

    ``translations_only=True`` restricts to the :math:`k^d` translations —
    enough for comparing linear-placement offsets and much cheaper.  The
    full group covers all :math:`k^d \\cdot d! \\cdot 2^d` images; both
    paths act on a single coordinate matrix (no per-element
    :class:`Placement` allocation), so canonicalization is one vectorized
    pass even for the full group.
    """
    group = automorphism_group(placement.torus)
    ids = group.canonical_ids(
        placement.node_ids, translations_only=translations_only
    )
    return Placement(placement.torus, ids, name=f"canon({placement.name})")


def are_equivalent_placements(
    a: Placement, b: Placement, translations_only: bool = False
) -> bool:
    """Whether some torus automorphism maps ``a`` onto ``b``.

    Load profiles (and therefore :math:`E_{max}` under any
    automorphism-covariant routing family) agree for equivalent placements.
    """
    if a.torus != b.torus or len(a) != len(b):
        return False
    return _id_key(canonical_form(a, translations_only)) == _id_key(
        canonical_form(b, translations_only)
    )
