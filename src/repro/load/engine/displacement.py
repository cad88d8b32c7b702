"""Displacement-class path caching for translation-invariant routings.

:math:`T_k^d` is vertex-transitive, and every routing algorithm the paper
analyzes picks its paths from the per-dimension minimal corrections — a
function of the *displacement* :math:`(q - p) \\bmod k` alone.  For such a
routing the path set :math:`C^A_{p→q}` is the edge-for-edge translation of
:math:`C^A_{0→(q-p)}`, so the fractional Definition-4 contribution of a
pair to the network depends only on its displacement class.

This module exploits that: :class:`DisplacementPathCache` enumerates the
paths of one *canonical* pair per class (source at the origin) and
compresses them into a :class:`PathTemplate` — the multiset of traversed
edges as ``(tail-offset, dimension, sign)`` records with their summed
fractional weights.  Applying a template to all pairs of its class is then
pure vectorized index arithmetic, turning the oracle's
:math:`O(|P|^2 \\cdot \\text{paths})` Python-level path walk into
:math:`O(\\#\\text{distinct displacements})` enumerations plus numpy
translation passes.

For a linear placement the payoff is large: the difference set of
:math:`\\{p : \\sum c_i p_i \\equiv c\\}` is the homogeneous solution set of
size :math:`k^{d-1}`, so the :math:`|P|(|P|-1) \\approx k^{2(d-1)}` ordered
pairs collapse into at most :math:`k^{d-1} - 1` displacement classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EngineError, LoadError
from repro.load.engine.base import LoadBackend, validate_pair_weights
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays

__all__ = [
    "PathTemplate",
    "DisplacementPathCache",
    "accumulate_displacement_loads",
    "displacement_edge_loads",
    "DisplacementBackend",
]

#: cap on the ``sources × template-edges`` block materialized per class —
#: groups larger than this are applied in source chunks to bound memory.
_MAX_BLOCK = 1 << 22


@dataclass(frozen=True)
class PathTemplate:
    """The compressed edge multiset of one displacement class.

    Attributes
    ----------
    offsets:
        ``(E, d)`` coordinate offsets of each traversed edge's tail from
        the path source (the canonical source is the origin, so these are
        the tail coordinates themselves).
    dim_sign:
        ``(E,)`` packed ``2*dim + sign_bit`` of each edge, matching the
        dense edge-id layout ``node_id * 2d + 2*dim + sign_bit``.
    weight:
        ``(E,)`` summed fractional contribution of the class's paths to
        each edge (each path contributes ``1/|C^A|`` per traversal).
    num_paths:
        ``|C^A|`` for the class — kept for diagnostics and tests.
    """

    offsets: np.ndarray
    dim_sign: np.ndarray
    weight: np.ndarray
    num_paths: int

    @property
    def num_edges(self) -> int:
        """Number of distinct (offset, dim, sign) records."""
        return int(self.dim_sign.size)


class DisplacementPathCache:
    """Canonical path templates keyed by displacement vector.

    Parameters
    ----------
    torus:
        The host torus.
    routing:
        A routing algorithm with ``translation_invariant = True``.

    Raises
    ------
    EngineError
        If the routing does not declare translation invariance — caching
        by displacement would silently produce wrong loads (e.g. for
        fault-masked routings, where failed links break the symmetry).
    """

    def __init__(self, torus: Torus, routing: RoutingAlgorithm):
        if not getattr(routing, "translation_invariant", False):
            raise EngineError(
                f"routing {routing.name!r} is not translation-invariant; "
                "the displacement-class cache would be unsound for it"
            )
        self.torus = torus
        self.routing = routing
        self._templates: dict[tuple[int, ...], PathTemplate] = {}

    def __len__(self) -> int:
        return len(self._templates)

    def template(self, displacement) -> PathTemplate:
        """The :class:`PathTemplate` for one displacement vector.

        ``displacement`` is a length-``d`` sequence of residues in
        ``[0, k)``, not all zero; templates are built on first request and
        memoized.
        """
        key = tuple(int(x) % self.torus.k for x in displacement)
        tpl = self._templates.get(key)
        if tpl is None:
            tpl = self._build(key)
            self._templates[key] = tpl
        return tpl

    def _build(self, disp: tuple[int, ...]) -> PathTemplate:
        torus = self.torus
        d = torus.d
        origin = (0,) * d
        paths = self.routing.paths(torus, origin, disp)
        if not paths:
            raise LoadError(
                f"routing {self.routing.name!r} returned no path for the "
                f"canonical pair {origin} -> {disp}; cannot build a "
                "displacement template"
            )
        frac = 1.0 / len(paths)
        acc: dict[tuple[int, int], float] = {}
        for path in paths:
            for eid in path.edge_ids:
                tail, dim_sign = divmod(int(eid), 2 * d)
                pair = (tail, dim_sign)
                acc[pair] = acc.get(pair, 0.0) + frac
        tails = np.fromiter(
            (t for t, _ in acc), dtype=np.int64, count=len(acc)
        )
        return PathTemplate(
            offsets=torus.coords(tails),
            dim_sign=np.fromiter(
                (s for _, s in acc), dtype=np.int64, count=len(acc)
            ),
            weight=np.fromiter(acc.values(), dtype=np.float64, count=len(acc)),
            num_paths=len(paths),
        )


def accumulate_displacement_loads(
    loads: np.ndarray,
    torus: Torus,
    routing: RoutingAlgorithm,
    p_coords: np.ndarray,
    q_coords: np.ndarray,
    weights: np.ndarray | None = None,
    cache: DisplacementPathCache | None = None,
) -> DisplacementPathCache:
    """Add the loads of explicit pairs into ``loads`` via templates.

    Groups the pairs by displacement class, builds (or reuses) one
    template per class, and translates it onto every source vectorized.
    Pairs with zero displacement or zero weight contribute nothing and
    are skipped.  Returns the cache so callers can reuse the templates.
    """
    cache = cache if cache is not None else DisplacementPathCache(torus, routing)
    k, d = torus.k, torus.d
    p = np.atleast_2d(np.asarray(p_coords, dtype=np.int64))
    q = np.atleast_2d(np.asarray(q_coords, dtype=np.int64))
    w = None if weights is None else np.asarray(weights, dtype=np.float64)

    disp = np.mod(q - p, k)
    keep = disp.any(axis=1)
    if w is not None:
        keep &= w != 0.0
    if not np.any(keep):
        return cache
    p, disp = p[keep], disp[keep]
    if w is not None:
        w = w[keep]

    strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    codes = disp @ strides
    order = np.argsort(codes, kind="stable")
    boundaries = np.flatnonzero(np.diff(codes[order])) + 1
    two_d = 2 * d

    for group in np.split(order, boundaries):
        tpl = cache.template(disp[group[0]])
        sources = p[group]
        group_w = None if w is None else w[group]
        # bound the (sources x template-edges) block materialized at once
        step = max(1, _MAX_BLOCK // max(1, tpl.num_edges))
        for lo in range(0, sources.shape[0], step):
            src = sources[lo : lo + step]
            node = np.mod(src[:, None, :] + tpl.offsets[None, :, :], k) @ strides
            eids = node * two_d + tpl.dim_sign[None, :]
            if group_w is None:
                contrib = np.broadcast_to(tpl.weight, eids.shape)
            else:
                contrib = group_w[lo : lo + step, None] * tpl.weight[None, :]
            loads += np.bincount(
                eids.ravel(), weights=contrib.ravel(), minlength=loads.size
            )
    return cache


def displacement_edge_loads(
    placement: Placement,
    routing: RoutingAlgorithm,
    pair_weights: np.ndarray | None = None,
    cache: DisplacementPathCache | None = None,
) -> np.ndarray:
    """Exact per-edge loads via the displacement-class cache.

    Drop-in equivalent of
    :func:`repro.load.edge_loads.edge_loads_reference` for any
    translation-invariant routing; identical numbers, a fraction of the
    path enumerations.
    """
    torus = placement.torus
    coords = placement.coords()
    m = coords.shape[0]
    pair_weights = validate_pair_weights(pair_weights, m)
    pi, qi = ordered_pair_index_arrays(m)
    weights = None if pair_weights is None else pair_weights[pi, qi]
    loads = np.zeros(torus.num_edges, dtype=np.float64)
    accumulate_displacement_loads(
        loads, torus, routing, coords[pi], coords[qi], weights=weights, cache=cache
    )
    return loads


class DisplacementBackend(LoadBackend):
    """Serial backend built on :class:`DisplacementPathCache`.

    Takes its templates from the ambient
    :class:`~repro.load.plancache.PlanCache`, the same ones the FFT
    backend uses, so sweeps that re-analyze the same configuration pay
    the path enumerations once, however many routing instances they
    build.
    """

    name = "displacement"

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        return bool(getattr(routing, "translation_invariant", False))

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        # imported here: the plan cache module imports this one
        from repro.load.plancache import current_plan_cache

        plan = current_plan_cache().get(placement.torus, routing)
        return displacement_edge_loads(
            placement,
            routing,
            pair_weights=pair_weights,
            cache=plan.path_cache,
        )
