"""FFT circular-correlation load backend — unions of cosets in one pass.

:math:`T_k^d` is the Cayley graph of the group :math:`Z_k^d`, and for a
translation-invariant routing the Definition-4 contribution of an ordered
pair ``(p, q)`` to the edge at tail ``v`` depends only on the displacement
``δ = (q - p) mod k`` and the offset ``u = (v - p) mod k`` — exactly the
row decomposition of :class:`~repro.load.path_table.PathTable`.  The
total load of every edge channel ``(dim, sign)`` is therefore the group
convolution

.. math::

    \\mathcal{E}(v) \\;=\\; \\sum_{δ} \\sum_{p} S_δ(p)\\, T_δ(v - p)
            \\;=\\; \\sum_{δ} (S_δ * T_δ)(v)

of per-displacement *source fields* :math:`S_δ` (which pairs of class
``δ`` start where) with per-displacement *path-usage tensors*
:math:`T_δ`, the table's row ``δ``.

The backend evaluates that sum spectrally where it collapses: placements
with a large translation stabilizer :math:`H = \\{h : P + h = P\\}` —
linear, sublattice, fully populated, and the paper's multiple linear
placements — under complete exchange.  Such a ``P`` is a union of
``t = |P| / |H|`` cosets ``r_i + H``, and the pairs from coset ``i`` to
coset ``j`` have differences filling the class ``C = (r_j - r_i) + H``.
Grouping the pairs by the ``D`` difference classes of ``(P - P) / H``
gives

.. math::

    \\mathcal{E} \\;=\\; \\sum_{C} S_C * U_C,

where the source field :math:`S_C` is the indicator of
``{p ∈ P : p + C ⊆ P}`` (a sum of coset indicators) and
:math:`U_C = \\sum_{δ ∈ C∖\\{0\\}} T_δ` is the class's aggregated usage
tensor.  One ``numpy.fft.rfftn`` of the ``D`` source fields, one product
per class and edge channel, and one inverse transform give all
:math:`2dk^d` edges in :math:`O(D\\,d\\,k^d \\log k)`, independent of the
pair count.  A coset is the case ``t = 1``, one class ``H`` and
``S_H = P``; a union of ``t`` parallel linear classes has
``D = 2t - 1``.  :meth:`FFTBackend.supports` accepts a placement when
``D < |P|``, which a trivial stabilizer never meets
(``D = |P - P| >= |P|``), and the path table's ring sums
(:mod:`repro.load.rings`) would not cost less than the spectral pass: a
cost model in the pair apply's hop slots (:func:`_spectral_cost`,
:func:`~repro.load.path_table.ring_cost_for`) decides, before the
classification wherever the rings beat even a one-class pass.  Every
other input — rejected or declined placements, weighted traffic — is
served by the exact path-table apply instead, ring by ring where that
pays.  Accepted placements are therefore the first choice of the
``auto`` engine (fft → vectorized → displacement → reference).

The classification is cheap.  A few rows of ``P`` screen the candidates
``P - p_0`` and reject a sparse placement with a trivial stabilizer at
a cost that grows with ``|P|``; otherwise the autocorrelation
``|P ∩ (P - h)|`` of the indicator, one transform pair, gives ``H`` and
``P - P`` exactly.  The plan cache remembers each accepted
placement's cover for every routing, so a warm placement is recognized
by one lookup.  ``supports`` builds nothing; ``compute`` builds the
spectra, once per subgroup and class.

A cold plan needs ``U_C`` once per subgroup ``H`` and class ``C``: it
is the complete loads of the pairs ``0 → δ``, ``δ ∈ C∖{0}``, one
``np.bincount`` of those rows of the plan's path table (closed-form
rows for dimension-order routings and UDR, ``routing.paths`` rows for
the others), built only for the class's codes.

Exactness is restored by the *snap-back* of :mod:`repro.load.quantize`:
the usage tensor is scaled to integer numerators over a common
denominator ``Q`` (the LCM of the rows' path counts: 1 for
dimension-order routings, ``d!`` for UDR), the convolution result is
rounded to the nearest integer — which is the exact value whenever the
accumulated FFT error is below one half — and divided back by ``Q``.  A
snap that would move any value by
:data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE` or more falls back to
the table's exact apply too, instead of shipping a wrong answer.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.load.path_table import PathTable, ring_cost_for
from repro.load.quantize import LOAD_SNAP_TOLERANCE, QUANTUM_DENOMINATOR_CAP
from repro.load.plancache import (
    DEFAULT_PLAN_CAPACITY,
    MAX_PLAN_ENTRIES,
    PlanCache,
    SpectralPlan,
    current_plan_cache,
)
from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.torus.coords import all_coords

__all__ = ["FFTBackend"]


# ------------------------------------------------------ stabilizer test


@functools.lru_cache(maxsize=DEFAULT_PLAN_CAPACITY)
def _grid(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(strides, coords)`` of :math:`T_k^d`.

    ``coords @ strides`` are the node ids and row ``i`` of ``coords`` is
    node ``i``.  Cached so that the stabilizer test indexes the table
    instead of decoding node ids on every call.
    """
    strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    coords = all_coords(k, d)
    strides.flags.writeable = False
    coords.flags.writeable = False
    return strides, coords


class _Cover(NamedTuple):
    """A placement as a union of cosets of its stabilizer ``H``.

    ``subgroup`` holds the sorted nonzero node ids of ``H`` (the key of
    ``plan.spectra``); ``classes`` the difference classes ``C = δ + H``
    met by ``P - P``, each named by its smallest node id (``0`` for
    ``H``); ``sources[i]`` the node ids of the source field of
    ``classes[i]``, ``{p ∈ P : p + C ⊆ P}``.  No classes means rejected.
    """

    subgroup: bytes
    classes: tuple[int, ...]
    sources: tuple[np.ndarray, ...]


_REJECTED = _Cover(b"", (), ())

#: rows of ``P`` whose translates screen the stabilizer candidates
#: before the autocorrelation: row 1, then rows 2-7.
_SCREEN_BLOCKS = ((1, 2), (2, 8))


def _screened_out(coords: np.ndarray, mask: np.ndarray, k: int) -> bool:
    """Whether a few rows already leave the stabilizer trivial.

    ``H`` lies in every ``P - p_i``, so the candidates ``P - p_0`` are
    intersected with ``P - p_i`` for the next seven rows.  A sparse
    placement with a trivial stabilizer is down to ``{0}`` after them,
    at a cost that grows with ``|P|``, not with the torus.
    """
    strides = _grid(k, coords.shape[1])[0]
    candidates = np.mod(coords - coords[0], k)
    for lo, hi in _SCREEN_BLOCKS:
        block = coords[lo:hi, None, :]
        if not block.size:
            return False
        inside = mask[np.mod(block + candidates, k) @ strides].all(axis=0)
        candidates = candidates[inside]
        if candidates.shape[0] == 1:
            return True
    return False


def _classify(placement: Placement) -> _Cover:
    """Cover ``P`` by cosets of its stabilizer; reject unless ``D < |P|``.

    The autocorrelation ``A(h) = |P ∩ (P - h)|`` of the indicator — one
    ``rfftn``/inverse pair, exact after rounding — gives the stabilizer
    ``H = {h : A(h) = |P|}`` and the difference set
    ``P - P = {h : A(h) > 0}``, a union of ``D`` cosets of ``H``: the
    difference classes.  A coset has ``D = 1``, a union of ``t``
    parallel linear classes ``D = 2t - 1``, and a placement with a
    trivial stabilizer ``D = |P - P| >= |P|``, so the spectral pass pays
    off exactly when ``D < |P|``.  Each class ``C`` is named by its
    smallest node id ``c``, and its source field is
    ``{p ∈ P : p + c ∈ P}``.
    """
    ids = placement.node_ids
    m = ids.size
    torus = placement.torus
    k = torus.k
    strides, table = _grid(k, torus.d)
    coords = table[ids]
    mask = np.zeros(torus.num_nodes, dtype=bool)
    mask[ids] = True
    if m < 2 or _screened_out(coords, mask, k):
        return _REJECTED
    power = np.abs(_spectrum(mask, torus.shape)) ** 2
    overlap = np.rint(_inverse(power, torus.shape))
    subgroup = np.flatnonzero(overlap == m)
    differences = overlap > 0
    if np.count_nonzero(differences) >= m * subgroup.size:
        return _REJECTED
    key = subgroup[1:].tobytes()
    if subgroup.size == m:
        # a coset: one class, every node a source
        return _Cover(key, (0,), (ids,))
    offsets = table[subgroup]
    classes = []
    sources = []
    while differences.any():
        # the smallest remaining difference starts a class
        c = int(np.argmax(differences))
        differences[np.mod(table[c] + offsets, k) @ strides] = False
        classes.append(c)
        sources.append(ids[mask[np.mod(coords + table[c], k) @ strides]])
    return _Cover(key, tuple(classes), tuple(sources))


def _cover(placement: Placement, cache: PlanCache) -> _Cover:
    """:func:`_classify`, memoized by the plan ``cache``.

    A verdict does not depend on the routing, so one serves every plan
    and a warm placement costs one lookup.  Rejections are not
    remembered: they cost one screen, or one autocorrelation, against
    the pair pass of the backend that serves them.
    """
    torus = placement.torus
    placement_key = (torus.k, torus.d, placement.node_ids.tobytes())
    cover = cache.verdict(placement_key)
    if cover is None:
        cover = _classify(placement)
        if cover.classes:
            cache.remember_verdict(placement_key, cover)
    return cover


def _denominator_groups(
    denominators: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """Split classes into ``(Q, class_indices)`` integer-exact groups.

    One group under the LCM of all path counts when that stays below
    :data:`~repro.load.quantize.QUANTUM_DENOMINATOR_CAP`; otherwise one
    group per distinct denominator so each group's numerators stay small.
    """
    distinct = np.unique(denominators)
    lcm = 1
    for n in distinct:
        lcm = lcm * int(n) // math.gcd(lcm, int(n))
        if lcm > QUANTUM_DENOMINATOR_CAP:
            break
    if lcm <= QUANTUM_DENOMINATOR_CAP:
        return [(lcm, np.arange(denominators.size, dtype=np.int64))]
    return [
        (int(n), np.flatnonzero(denominators == n)) for n in distinct
    ]


# --------------------------------------------------------------- kernels


def _spectrum(fields: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``rfftn`` of each field over the trailing torus axes."""
    d = len(shape)
    grid = fields.reshape(fields.shape[:-1] + shape)
    return np.fft.rfftn(grid, axes=tuple(range(-d, 0)))


def _inverse(acc: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    d = len(shape)
    out = np.fft.irfftn(acc, s=shape, axes=tuple(range(-d, 0)))
    return out.reshape(out.shape[:-d] + (-1,))


def _usage_spectra(
    table: PathTable, codes: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Forward spectra of a difference class's usage tensor ``U_C``.

    ``codes`` holds the node ids of the class's nonzero elements.
    ``U[channel, node]`` is the complete loads of the pairs ``0 → δ``
    over them: one ``np.bincount`` of their table rows, scaled to
    integer numerators over a load quantum ``Q``.  One ``(Q, spectrum)``
    entry per denominator group (:func:`_denominator_groups`).
    """
    torus = table.torus
    edges, numerators, paths = table.origin_rows(codes)
    spectra = []
    for quantum, rows in _denominator_groups(paths):
        scaled = numerators[rows] * (quantum // paths[rows])[:, None]
        usage = np.bincount(
            edges[rows].ravel(),
            weights=scaled.ravel(),
            minlength=table.sink + 1,
        )[: table.sink]
        # channel-major copy: a transposed view would leave the spectrum
        # strided, slowing every product and inverse transform against it
        usage = usage.reshape(torus.num_nodes, 2 * torus.d).T.copy()
        spectra.append((quantum, _spectrum(usage, torus.shape)))
    return spectra


def _class_spectra(
    plan: SpectralPlan, cover: _Cover
) -> list[list[tuple[int, np.ndarray]]]:
    """The usage spectra of each of a cover's difference classes.

    ``U_C`` is the complete loads of the pairs ``0 → δ``,
    ``δ ∈ C∖{0}`` (:func:`_usage_spectra`).  The plan keeps one entry
    per subgroup, holding its classes, so every placement covered by
    cosets of one subgroup shares them.
    """
    entry = plan.spectra.get(cover.subgroup)
    if entry is None:
        if len(plan.spectra) >= MAX_PLAN_ENTRIES:
            plan.spectra.clear()
        entry = plan.spectra[cover.subgroup] = {}
    spectra = []
    for label in cover.classes:
        usage = entry.get(label)
        if usage is None:
            torus = plan.torus
            strides, table = _grid(torus.k, torus.d)
            ids = np.frombuffer(cover.subgroup, dtype=np.int64)
            if label:
                # all of δ + H, with 0 ∈ H put back
                ids = np.append(ids, 0)
            codes = np.mod(table[label] + table[ids], torus.k) @ strides
            usage = entry[label] = _usage_spectra(plan.table, codes)
        spectra.append(usage)
    return spectra


def _convolve(
    fields_hat: np.ndarray,
    class_spectra: list[list[tuple[int, np.ndarray]]],
    shape: tuple[int, ...],
) -> tuple[np.ndarray, float]:
    """``Σ_C S_C * U_C`` from the source and usage spectra.

    ``fields_hat`` is ``(D, ...)``: one source spectrum per class.  The
    products are summed per load quantum in the frequency domain, so a
    placement pays **one** inverse transform per quantum.  Returns
    ``(loads (2d, k^d), snap drift)``.
    """
    totals: dict[int, np.ndarray] = {}
    for source, spectra in zip(fields_hat, class_spectra):
        for quantum, usage_hat in spectra:
            term = source * usage_hat
            if quantum in totals:
                totals[quantum] += term
            else:
                totals[quantum] = term
    loads: np.ndarray | None = None
    drift = 0.0
    for quantum, total in totals.items():
        conv = _inverse(total, shape)
        snapped = np.rint(conv)
        drift = max(drift, float(np.abs(conv - snapped).max()))
        part = snapped / quantum if quantum != 1 else snapped
        loads = part if loads is None else loads + part
    assert loads is not None
    return loads, drift


def _cover_loads(cover: _Cover, plan: SpectralPlan) -> tuple[np.ndarray, float]:
    """Spectral loads of a covered placement, and their snap drift.

    One ``rfftn`` of the cover's source fields, one product per class
    against the plan's usage spectra, one inverse transform per load
    quantum.
    """
    torus = plan.torus
    fields = np.zeros((len(cover.classes), torus.num_nodes))
    for c, source in enumerate(cover.sources):
        fields[c, source] = 1.0
    loads, drift = _convolve(
        _spectrum(fields, torus.shape),
        _class_spectra(plan, cover),
        torus.shape,
    )
    return loads.T.reshape(-1), drift


# ----------------------------------------------------------- cost model

#: the warm spectral pass's cost in pair-apply hop slots, the unit of
#: :func:`repro.load.rings.ring_cost`: ``d`` times
#: (:data:`FFT_DIMENSION_SLOTS` + :data:`FFT_CHANNEL_SLOTS` per node) for
#: the ``2d`` edge channels, plus :data:`FFT_CLASS_SLOTS` per node and
#: difference class.  Fitted to warm ``compute`` calls on linear and
#: multiple linear placements (``D`` = 1, 3, 5) on a 2-core x86-64
#: container, one slot taken as 6.5 ns: within about 1.3x on
#: T_8²-T_64² and T_4³-T_12³; 4-D passes run up to 2x over it.  A
#: one-class pass took 83 µs on T_16², 123 µs on T_32², 181 µs on T_8³
#: and 222 µs on T_12³, both routings; the rings took 56, 124, 59 and
#: 126 µs there under ODR, and 96, 240, 202 and 504 µs under UDR.
FFT_DIMENSION_SLOTS = 7000
FFT_CHANNEL_SLOTS = 3
FFT_CLASS_SLOTS = 1


def _spectral_cost(torus, classes: int) -> int:
    """Estimated warm spectral pass over ``classes`` difference classes."""
    n = torus.num_nodes
    return torus.d * (FFT_DIMENSION_SLOTS + FFT_CHANNEL_SLOTS * n) + (
        FFT_CLASS_SLOTS * classes * n
    )


def _count_ring_decline() -> None:
    """Record, when traced, that the rings took a call from the FFT."""
    tracer = current_tracer()
    if tracer.enabled:
        tracer.metrics.counter("engine.fft.ring_declines").add(1)


# --------------------------------------------------------------- backend


class FFTBackend(LoadBackend):
    """Spectral backend for unions of cosets under complete exchange.

    :meth:`supports` accepts a placement whose pairs fall into fewer
    difference classes modulo its translation stabilizer than it has
    nodes — every coset and multiple linear placement — on
    translation-invariant routings; ``auto`` asks it first, so every
    such complete-exchange call comes here and nothing else does.
    Named explicitly, the backend serves every other
    translation-invariant input through the exact apply of the same
    plan's path table.

    All configuration-dependent state — the per-placement verdicts,
    path table and forward usage spectra — lives in the ambient
    :class:`~repro.load.plancache.PlanCache` (see
    :func:`~repro.load.plancache.using_plan_cache`), so sweeps and
    search loops that re-evaluate the same configuration pay only one
    forward transform of the source fields, one product per class, and
    one inverse transform per call, across backend instances and engine
    facades.

    Attributes
    ----------
    last_snap_drift:
        Largest absolute correction the integer snap-back applied on the
        most recent :meth:`compute` call — the quantity the
        :data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE` contract bounds
        (0 when the placement was not evaluated spectrally).
    """

    name = "fft"

    def __init__(self) -> None:
        self.last_snap_drift: float = 0.0

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        """Complete exchange on a translation-invariant routing, ``D < |P|``.

        ``D`` counts the classes of ``P - P`` modulo the stabilizer of
        ``P``: 1 for a coset, ``2t - 1`` for ``t`` parallel linear
        classes, at least ``|P|`` for a trivial stabilizer.  A placement
        whose path table would count its loads ring by ring
        (:func:`~repro.load.path_table.ring_cost_for`) is also declined
        when the rings cost less than its spectral pass
        (:func:`_spectral_cost`): before classifying when they beat even
        a one-class pass, after it otherwise.  Builds nothing: the
        verdict is remembered in the plan cache (:func:`_cover`), so the
        :meth:`compute` that follows skips the classification, but
        spectra are built by ``compute`` alone.
        """
        if pair_weights is not None or not getattr(
            routing, "translation_invariant", False
        ):
            return False
        torus = placement.torus
        rings = ring_cost_for(torus, routing, len(placement))
        if rings is not None and rings < _spectral_cost(torus, 1):
            _count_ring_decline()
            return False
        classes = len(_cover(placement, current_plan_cache()).classes)
        if not classes:
            return False
        if rings is not None and rings < _spectral_cost(torus, classes):
            _count_ring_decline()
            return False
        return True

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Loads of one placement: classify, convolve, snap.

        An accepted complete-exchange placement takes one spectral pass
        against the plan's class spectra; everything else, and a snap
        past :data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE`, takes the
        exact apply of the plan's path table.
        """
        if not getattr(routing, "translation_invariant", False):
            raise EngineError(
                f"routing {routing.name!r} is not translation-invariant; "
                "the FFT correlation backend would be unsound for it — "
                "use the 'reference' backend (the 'auto' engine does so)"
            )
        cache = current_plan_cache()
        plan = cache.get(placement.torus, routing)
        loads: np.ndarray | None = None
        drift = 0.0
        if pair_weights is None:
            cover = _cover(placement, cache)
            if cover.classes:
                loads, drift = _cover_loads(cover, plan)
        self.last_snap_drift = drift
        spectral = loads is not None
        drifted = drift >= LOAD_SNAP_TOLERANCE
        if loads is None or drifted:
            # rejected placements, weighted traffic, and a snap that
            # broke the contract pay the exact path-table apply.
            loads = plan.table.loads(placement, pair_weights)
        tracer = current_tracer()
        if tracer.enabled:
            metrics = tracer.metrics
            if drifted:
                metrics.counter("engine.fft.snap_fallbacks").add(1)
            elif spectral:
                metrics.counter("engine.fft.fast_path").add(1)
            metrics.gauge("engine.fft.snap_drift").set(drift)
        return loads
