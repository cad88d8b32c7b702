"""FFT stabilizer test, and the loads of a placement moved from its translate.

:math:`T_k^d` is the Cayley graph of the group :math:`Z_k^d`, and a
translation-invariant routing routes ``p + r → q + r`` over the paths of
``p → q`` moved by ``r``.  So under complete exchange the loads of a
translate ``P + r`` are the loads of ``P`` moved by ``r``: the edge of
channel ``(dim, sign)`` at tail ``v`` carries what the same channel
carries at ``v - r``.

The backend serves the placements that recur up to translation from one
exact evaluation.  Those are the placements with a nontrivial
translation stabilizer :math:`H = \\{h : P + h = P\\}`: linear and
sublattice placements, fully populated tori, and the paper's multiple
linear placements, whose offsets are translates of one set (Sec. 5).
Such a ``P`` is returned as ``shift(L[P - p_0], p_0)``, where ``p_0`` is
the smallest node id of ``P`` and ``L[P - p_0]`` the loads of the
translate through the origin.  The plan's own
:meth:`~repro.load.path_table.PathTable.loads` evaluates that translate
once, ring by ring or pair by pair, and the plan memoizes it, so every
offset of a linear class, and every placement of a multiple linear
family that starts in the same class, is one shift of one array.  A shift
permutes the edges, so the result is the path table's array bit for
bit.

Whether a placement has a nontrivial stabilizer is decided cheaply.  A
few rows of ``P`` screen the candidates ``P - p_0`` and reject a sparse
placement with a trivial stabilizer at a cost that grows with ``|P|``;
otherwise the autocorrelation ``|P ∩ (P - h)|`` of the indicator, one
``numpy.fft`` transform pair, gives ``H`` and ``P - P`` exactly.  The
plan cache remembers each accepted placement's verdict for every
routing, so a warm placement is recognized by one lookup.  Rejected
placements (random ones rarely recur as translates), weighted traffic
and every other input an explicit ``fft`` call receives take the exact
path-table apply instead.  Accepted placements are the first choice of
the ``auto`` engine (fft → vectorized → displacement → reference).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.load.path_table import ExtendedGrid, extended_grid
from repro.load.plancache import MAX_PLAN_ENTRIES, PlanCache, current_plan_cache
from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = ["FFTBackend"]


# ------------------------------------------------------ stabilizer test


class _Verdict(NamedTuple):
    """An accepted placement's translation stabilizer ``H``.

    ``subgroup`` holds the sorted nonzero node ids of ``H``; ``classes``
    the ``D`` classes of ``P - P`` modulo ``H``, each named by its
    smallest node id (``0`` for ``H`` itself).
    """

    subgroup: bytes
    classes: tuple[int, ...]


#: rows of ``P`` whose translates screen the stabilizer candidates
#: before the autocorrelation: rows 1-7.
_SCREEN_ROWS = 8


def _screened_out(
    grid: ExtendedGrid, ext: np.ndarray, mask: np.ndarray
) -> bool:
    """Whether a few rows already leave the stabilizer trivial.

    ``ext`` holds the extended ids of ``P``.  ``H`` lies in every
    ``P - p_i``, so the candidates ``P - p_0`` are intersected with
    ``P - p_i`` for the next seven rows.  A sparse placement with a
    trivial stabilizer is down to ``{0}`` after them, at a cost that
    grows with ``|P|``, not with the torus.
    """
    candidates = grid.node_ext[grid.ext_node[ext + (grid.shift - ext[0])]]
    rows = ext[1:_SCREEN_ROWS]
    inside = mask[grid.ext_node[candidates[:, None] + rows]].all(axis=1)
    return np.count_nonzero(inside) == 1


def _classify(placement: Placement) -> _Verdict | None:
    """``P``'s stabilizer and difference classes, or ``None`` if trivial.

    The autocorrelation ``A(h) = |P ∩ (P - h)|`` of the indicator — one
    ``rfftn``/inverse pair, exact after rounding — gives the stabilizer
    ``H = {h : A(h) = |P|}`` and the difference set
    ``P - P = {h : A(h) > 0}``, a union of ``D`` cosets of ``H``: the
    difference classes.  A coset has ``D = 1`` and a union of ``t``
    parallel linear classes ``D = 2t - 1``.
    """
    ids = placement.node_ids
    if ids.size < 2:
        return None
    torus = placement.torus
    grid = extended_grid(torus.k, torus.d)
    mask = np.zeros(torus.num_nodes, dtype=bool)
    mask[ids] = True
    if _screened_out(grid, grid.node_ext[ids], mask):
        return None
    shape = torus.shape
    axes = tuple(range(torus.d))
    power = np.abs(np.fft.rfftn(mask.reshape(shape), axes=axes)) ** 2
    overlap = np.rint(np.fft.irfftn(power, s=shape, axes=axes)).ravel()
    subgroup = np.flatnonzero(overlap == ids.size)
    if subgroup.size < 2:
        return None
    key = subgroup[1:].tobytes()
    if subgroup.size == ids.size:
        # a coset: P - P is H, one class
        return _Verdict(key, (0,))
    differences = overlap > 0
    offsets = grid.node_ext[subgroup]
    classes = []
    while differences.any():
        # the smallest remaining difference names its class
        c = int(np.argmax(differences))
        differences[grid.ext_node[grid.node_ext[c] + offsets]] = False
        classes.append(c)
    return _Verdict(key, tuple(classes))


def _verdict(placement: Placement, cache: PlanCache) -> _Verdict | None:
    """:func:`_classify`, memoized by the plan ``cache``.

    A verdict does not depend on the routing, so one serves every plan
    and a warm placement costs one lookup.  Rejections are not
    remembered: they cost one screen, or one autocorrelation, against
    the pass of the backend that serves them.
    """
    torus = placement.torus
    placement_key = (torus.k, torus.d, placement.node_ids.tobytes())
    verdict = cache.verdict(placement_key)
    if verdict is None:
        verdict = _classify(placement)
        if verdict is not None:
            cache.remember_verdict(placement_key, verdict)
    return verdict


# --------------------------------------------------------------- backend


class FFTBackend(LoadBackend):
    """Translated loads for placements with a nontrivial stabilizer.

    :meth:`supports` accepts a complete-exchange placement with a
    nontrivial translation stabilizer — every coset and multiple linear
    placement — on translation-invariant routings; ``auto`` asks it
    first, so every such call comes here and nothing else does.  Named
    explicitly, the backend serves every other translation-invariant
    input through the exact apply of the same plan's path table.

    The per-placement verdicts and the loads of each translate through
    the origin live in the ambient
    :class:`~repro.load.plancache.PlanCache` (see
    :func:`~repro.load.plancache.using_plan_cache`), so across backend
    instances and engine facades a placement whose translate was served
    before costs its verdict and one shift.
    """

    name = "fft"

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        """Complete exchange, translation-invariant routing, nontrivial ``H``.

        Looks up no plan and builds nothing: the verdict is remembered in
        the plan cache (:func:`_verdict`), so the :meth:`compute` that
        follows skips the classification.
        """
        return (
            pair_weights is None
            and getattr(routing, "translation_invariant", False)
            and _verdict(placement, current_plan_cache()) is not None
        )

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Loads of one placement: its translate's, moved, or the table's.

        An accepted complete-exchange placement is served by shifting the
        memoized loads of its translate through the origin, filled on a
        miss by the plan's path table; everything else takes that table's
        exact apply.  Traced, a shifted call bumps ``engine.fft.fast_path``.
        """
        if not getattr(routing, "translation_invariant", False):
            raise EngineError(
                f"routing {routing.name!r} is not translation-invariant; "
                "the FFT backend's shifted loads would be unsound for it — "
                "use the 'reference' backend (the 'auto' engine does so)"
            )
        cache = current_plan_cache()
        plan = cache.get(placement.torus, routing)
        if pair_weights is not None or _verdict(placement, cache) is None:
            return plan.table.loads(placement, pair_weights)
        torus = placement.torus
        grid = extended_grid(torus.k, torus.d)
        ext = grid.node_ext[placement.node_ids]
        translate = np.sort(grid.ext_node[ext - ext[0] + grid.shift])
        key = translate.tobytes()
        memo = plan.spectra  # the plan's translates through the origin
        loads = memo.get(key)
        if loads is None:
            if len(memo) >= MAX_PLAN_ENTRIES:
                memo.clear()
            loads = memo[key] = plan.table.loads(Placement(torus, translate))
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.counter("engine.fft.fast_path").add(1)
        channels = loads.reshape(torus.shape + (2 * torus.d,))
        origin = tuple(grid.coords[placement.node_ids[0]])
        return np.roll(channels, origin, axis=tuple(range(torus.d))).ravel()
