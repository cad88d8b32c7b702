"""FFT circular-correlation load backend — coset placements in one pass.

:math:`T_k^d` is the Cayley graph of the group :math:`Z_k^d`, and for a
translation-invariant routing the Definition-4 contribution of an ordered
pair ``(p, q)`` to the edge at tail ``v`` depends only on the displacement
``δ = (q - p) mod k`` and the offset ``u = (v - p) mod k`` — exactly the
:class:`~repro.load.engine.displacement.PathTemplate` decomposition.  The
total load of every edge channel ``(dim, sign)`` is therefore the group
convolution

.. math::

    \\mathcal{E}(v) \\;=\\; \\sum_{δ} \\sum_{p} S_δ(p)\\, T_δ(v - p)
            \\;=\\; \\sum_{δ} (S_δ * T_δ)(v)

of per-displacement *source fields* :math:`S_δ` (which pairs of class
``δ`` start where) with per-displacement *path-usage templates*
:math:`T_δ`.

The backend evaluates that sum spectrally where it collapses: **coset**
placements — linear, sublattice, multiple-linear with aligned offsets,
fully populated — under complete exchange.  A placement with exactly
``|P| - 1`` distinct nonzero pairwise displacements is a coset of a
subgroup of :math:`Z_k^d` (``|P - P| = |P|`` forces ``P - P`` to be a
group), so every source field is the placement's indicator function
``f`` and the whole sum becomes **one** correlation of ``f`` with the
aggregated usage tensor :math:`U = \\sum_δ T_δ`, evaluated for all
:math:`2dk^d` edges by ``numpy.fft.rfftn`` in :math:`O(d\\,k^d \\log k)`,
independent of the pair count.  Every other input — non-coset
placements, weighted traffic — is served by the exact displacement-cache
evaluation instead.  Complete-exchange cosets are therefore the first
choice of the ``auto`` engine (fft → vectorized → displacement →
reference).

The coset test is cheap for most placements.  The plan cache remembers
each coset's verdict — its subgroup ``H = P - p_0`` — for every
routing, so a warm placement is recognized by one lookup.  Otherwise a
constant-cost probe rejects almost every non-coset before any plan
lookup, a subgroup the spectral plan has already verified is accepted
without a pair pass, and only a new subgroup pays the
:math:`O(|P|^2)` closure check.  ``supports`` builds nothing;
``compute`` builds the spectra, once per subgroup.

A cold plan needs ``U`` once per subgroup ``H``: it is the complete
loads of the pairs ``0 → δ``, ``δ ∈ H∖{0}``.  Dimension-order routings
and UDR compute it with their vectorized pair kernels
(:func:`~repro.load.engine.vectorized.pair_kernel`); routings without one
(all-minimal, unrestricted ODR) sum their per-class path templates.

Exactness is restored by the *snap-back* of :mod:`repro.load.quantize`:
the usage tensor is scaled to integer numerators over a common
denominator ``Q`` (the load quantum: 1 for dimension-order routings,
``d!`` for UDR, the LCM of the path-set sizes for template-built
tensors), the convolution result is rounded to the nearest integer —
which is the exact value whenever the accumulated FFT error is below one
half — and divided back by ``Q``.  A snap that would move any value by
:data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE` or more falls back to
the displacement evaluation too, instead of shipping a wrong answer.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.load.engine.displacement import displacement_edge_loads
from repro.load.engine.vectorized import pair_kernel
from repro.load.quantize import (
    LOAD_SNAP_TOLERANCE,
    QUANTUM_DENOMINATOR_CAP,
    routing_load_quantum,
)
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

__all__ = ["FFTBackend", "fft_edge_loads"]


# ----------------------------------------------------------- coset test

#: cap on the ``rows × |P|`` translate sums one block of the closure
#: check materializes.
_CLOSURE_BLOCK = 1 << 16


@functools.lru_cache(maxsize=DEFAULT_PLAN_CAPACITY)
def _grid(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(strides, coords)`` of :math:`T_k^d`.

    ``coords @ strides`` are the node ids and row ``i`` of ``coords`` is
    node ``i``.  Cached so that the coset test indexes the table instead
    of decoding node ids on every call.
    """
    strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    coords = all_coords(k, d)
    strides.flags.writeable = False
    coords.flags.writeable = False
    return strides, coords


def _members(placement: Placement) -> np.ndarray:
    """Boolean membership of ``P`` over all ``k^d`` node ids."""
    mask = np.zeros(placement.torus.num_nodes, dtype=bool)
    mask[placement.node_ids] = True
    return mask


def _probe(placement: Placement) -> bool:
    """A constant-cost necessary condition for a coset of ``|P| >= 2``.

    A coset ``P = p_0 + H`` contains ``p + (q - p_0)`` for all
    ``p, q ∈ P``.  The probe checks that for ``p, q`` among the last two
    nodes in id order — four lookups whatever ``|P|``, run before any
    plan lookup.  It rejects almost every non-coset: the last two nodes
    usually share a line of the last dimension, which meets each class
    of a linear form once, so a union of several classes fails.
    """
    ids = placement.node_ids
    if ids.size < 2:
        return False
    torus = placement.torus
    strides, coords = _grid(torus.k, torus.d)
    last = coords[ids[-2:]]
    moved = np.mod(last[:, None] + (last - coords[ids[0]]), torus.k)
    return bool(_members(placement)[moved @ strides].all())


def _is_subgroup(placement: Placement, coords: np.ndarray) -> bool:
    """The closure check ``P + (p_i - p_0) ⊆ P`` for all ``i``.

    ``coords`` are the placement's coordinates.  The check is
    ``h_i + H ⊆ H`` for ``H = P - p_0``, which contains 0, so closure
    under addition makes ``H`` a subgroup of the finite group
    :math:`Z_k^d` — equivalently ``|P - P| = |P|``.  Rows run in
    doubling blocks, so a non-coset, whose rows mostly leave ``P``,
    stops after a few rows.
    """
    k = placement.torus.k
    strides = _grid(k, placement.torus.d)[0]
    mask = _members(placement)
    shifts = coords - coords[0]
    m = shifts.shape[0]
    cap = max(1, _CLOSURE_BLOCK // m)
    lo, step = 1, 1
    while lo < m:
        block = shifts[lo : lo + step, None, :]
        if not mask[np.mod(coords + block, k) @ strides].all():
            return False
        lo += step
        step = min(2 * step, cap)
    return True


def _subgroup_key(plan: SpectralPlan, placement: Placement) -> bytes | None:
    """The sorted nonzero codes of a subgroup ``H = P - p_0``, or ``None``.

    The codes key ``plan.spectra``.  A key the plan already holds names
    a verified subgroup; any other ``H`` pays the closure check and is
    ``None`` when that fails.
    """
    torus = plan.torus
    strides, table = _grid(torus.k, torus.d)
    coords = table[placement.node_ids]
    key = np.sort(np.mod(coords[1:] - coords[0], torus.k) @ strides).tobytes()
    if key in plan.spectra or _is_subgroup(placement, coords):
        return key
    return None


def _coset_key(
    placement: Placement,
    routing: RoutingAlgorithm,
    cache: PlanCache,
    plan: SpectralPlan | None = None,
) -> bytes | None:
    """The subgroup key of a coset placement, or ``None``.

    The verdict is remembered by the plan ``cache`` for every routing,
    so a warm placement costs one lookup.  Otherwise the probe rejects
    most non-cosets before the plan (``plan``, or the cache's plan for
    ``routing``) is looked up, and :func:`_subgroup_key` decides.
    """
    torus = placement.torus
    placement_key = (torus.k, torus.d, placement.node_ids.tobytes())
    key = cache.coset(placement_key)
    if key is not None or not _probe(placement):
        return key
    if plan is None:
        plan = cache.get(torus, routing)
    key = _subgroup_key(plan, placement)
    if key is not None:
        cache.remember_coset(placement_key, key)
    return key


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
    """Batched ``rfftn`` over the trailing torus axes."""
    d = len(shape)
    grid = fields.reshape(fields.shape[:-1] + shape)
    return np.fft.rfftn(grid, axes=tuple(range(-d, 0)))


def _inverse(acc: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    d = len(shape)
    out = np.fft.irfftn(acc, s=shape, axes=tuple(range(-d, 0)))
    return out.reshape(out.shape[:-d] + (-1,))


def _usage_spectra(
    plan: SpectralPlan, disp: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Forward spectra of a subgroup's aggregated usage tensor ``U``.

    ``disp`` holds the subgroup's nonzero elements.  ``U[channel, node]``
    is the complete loads of the pairs ``0 → δ`` over them, as integer
    numerators over the load quantum ``Q`` of
    :func:`~repro.load.quantize.routing_load_quantum`, computed by the
    routing's vectorized pair kernel; routings without one sum their
    per-class path templates instead (:func:`_template_spectra`).
    """
    torus = plan.torus
    k, d = torus.k, torus.d
    kernel = pair_kernel(plan.routing, d)
    if kernel is None:
        return _template_spectra(plan, disp)
    quantum = routing_load_quantum(plan.routing, d)
    assert quantum is not None  # every routing with a kernel has one
    if quantum > QUANTUM_DENOMINATOR_CAP:
        # rounding over one large Q is no longer exact (UDR, d >= 10):
        # the templates split the classes by denominator instead
        return _template_spectra(plan, disp)
    loads = np.zeros(torus.num_edges, dtype=np.float64)
    kernel(loads, k, d, np.zeros_like(disp), disp)
    # channel-major copy: a transposed view would leave the spectrum
    # strided, slowing every product and inverse transform against it
    usage = np.rint(loads * quantum).reshape(torus.num_nodes, 2 * d).T.copy()
    return [(quantum, _spectrum(usage, torus.shape))]


def _template_spectra(
    plan: SpectralPlan, disp: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """:func:`_usage_spectra` from the plan's displacement path templates.

    One ``(Q, spectrum)`` entry per denominator group, with every class
    template scaled to integer numerators over ``Q``.
    """
    torus = plan.torus
    strides = _grid(torus.k, torus.d)[0]
    templates = [plan.path_cache.template(delta) for delta in disp]
    denominators = np.array(
        [tpl.num_paths for tpl in templates], dtype=np.int64
    )
    spectra = []
    for quantum, rows in _denominator_groups(denominators):
        usage = np.zeros((2 * torus.d, torus.num_nodes), dtype=np.float64)
        for i in rows:
            tpl = templates[i]
            numerator = np.rint(tpl.weight * tpl.num_paths)
            np.add.at(
                usage,
                (tpl.dim_sign, tpl.offsets @ strides),
                numerator * (quantum // denominators[i]),
            )
        spectra.append((quantum, _spectrum(usage, torus.shape)))
    return spectra


def _coset_spectra(
    placement: Placement, plan: SpectralPlan, cache: PlanCache
) -> list[tuple[int, np.ndarray]] | None:
    """The plan's usage spectra serving a coset placement, or ``None``.

    Built once per subgroup (:func:`_usage_spectra`) and shared by every
    coset of it.
    """
    key = _coset_key(placement, plan.routing, cache, plan)
    if key is None:
        return None
    spectra = plan.spectra.get(key)
    if spectra is None:
        torus = plan.torus
        disp = _grid(torus.k, torus.d)[1][np.frombuffer(key, dtype=np.int64)]
        spectra = _usage_spectra(plan, disp)
        if len(plan.spectra) >= MAX_PLAN_ENTRIES:
            plan.spectra.clear()
        plan.spectra[key] = spectra
    return spectra


def _convolve(
    indicator_hat: np.ndarray,
    group_spectra: list[tuple[int, np.ndarray]],
    shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Correlate a stacked indicator spectrum against cached usage spectra.

    ``indicator_hat`` carries the batch on its leading axis; the product
    broadcasts every placement against every edge channel, so the whole
    batch pays **one** inverse transform per denominator group.  Returns
    ``(loads (B, 2d, k^d), per-placement snap drift (B,))``.
    """
    batch = indicator_hat.shape[0]
    loads: np.ndarray | None = None
    drift = np.zeros(batch, dtype=np.float64)
    for quantum, usage_hat in group_spectra:
        conv = _inverse(
            indicator_hat[:, None, ...] * usage_hat[None, ...], shape
        )
        snapped = np.rint(conv)
        np.maximum(
            drift,
            np.abs(conv - snapped).reshape(batch, -1).max(axis=1),
            out=drift,
        )
        part = snapped / quantum if quantum != 1 else snapped
        loads = part if loads is None else loads + part
    assert loads is not None
    return loads, drift


def _coset_loads(
    placements: list[Placement], plan: SpectralPlan, cache: PlanCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectral loads of a complete-exchange batch's coset rows.

    Returns ``(loads (B, E), drifts (B,), spectral (B,))``; rows that are
    not cosets stay zero with ``spectral`` false.  Placements sharing a
    difference set — every coset of one subgroup, e.g. all offsets of a
    linear family — are stacked on a leading batch axis and resolved by
    a single ``rfftn``/inverse pair against the shared usage spectrum.
    """
    torus = plan.torus
    batch = len(placements)
    loads = np.zeros((batch, torus.num_edges), dtype=np.float64)
    drifts = np.zeros(batch, dtype=np.float64)
    spectral = np.zeros(batch, dtype=bool)
    groups: dict[int, tuple[list, list[int]]] = {}
    for b, placement in enumerate(placements):
        spectra = _coset_spectra(placement, plan, cache)
        if spectra is not None:
            groups.setdefault(id(spectra), (spectra, []))[1].append(b)

    for spectra, rows in groups.values():
        indicators = np.zeros((len(rows), torus.num_nodes), dtype=np.float64)
        for i, b in enumerate(rows):
            indicators[i, placements[b].node_ids] = 1.0
        block, block_drift = _convolve(
            _spectrum(indicators, torus.shape), spectra, torus.shape
        )
        loads[rows] = np.swapaxes(block, 1, 2).reshape(len(rows), -1)
        drifts[rows] = block_drift
        spectral[rows] = True
    return loads, drifts, spectral


# ------------------------------------------------------------ entry point


def fft_edge_loads(
    placement: Placement,
    routing: RoutingAlgorithm,
    pair_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-edge loads through the :class:`FFTBackend`.

    Drop-in equivalent of
    :func:`repro.load.edge_loads.edge_loads_reference` for any
    translation-invariant routing: spectral for complete-exchange
    cosets, the displacement evaluation otherwise.
    """
    return FFTBackend().compute(placement, routing, pair_weights=pair_weights)


# --------------------------------------------------------------- backend


class FFTBackend(LoadBackend):
    """Spectral backend for coset placements under complete exchange.

    :meth:`supports` accepts exactly those inputs on translation-invariant
    routings; ``auto`` asks it first, so every complete-exchange coset
    it can serve comes here and nothing else does.  Named explicitly,
    the backend serves every other translation-invariant input through
    the displacement evaluation, with the path templates of the same
    plan.

    All configuration-dependent state — the per-placement coset
    verdicts, path templates and forward usage spectra — lives in the
    ambient :class:`~repro.load.plancache.PlanCache` (see
    :func:`~repro.load.plancache.using_plan_cache`), so sweeps and
    search loops that re-evaluate the same configuration pay only one
    forward transform, one product, and one inverse transform per call,
    across backend instances and engine facades.

    Attributes
    ----------
    last_snap_drift:
        Largest absolute correction the integer snap-back applied on the
        most recent :meth:`compute` / :meth:`compute_many` call — the
        quantity the :data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE`
        contract bounds (0 when no row was spectral).
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
        """Complete-exchange cosets on translation-invariant routings.

        Builds nothing: an accepted placement's verdict is remembered in
        the plan cache (:func:`_coset_key`), so the :meth:`compute` that
        follows skips the coset test, but spectra are built by
        ``compute`` alone.
        """
        if pair_weights is not None or not getattr(
            routing, "translation_invariant", False
        ):
            return False
        return _coset_key(placement, routing, current_plan_cache()) is not None

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        return self.compute_many([placement], routing, pair_weights)[0]

    def compute_many(
        self,
        placements: list[Placement],
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        if not getattr(routing, "translation_invariant", False):
            raise EngineError(
                f"routing {routing.name!r} is not translation-invariant; "
                "the FFT correlation backend would be unsound for it — "
                "use the 'reference' backend (the 'auto' engine does so)"
            )
        cache = current_plan_cache()
        plan = cache.get(placements[0].torus, routing)
        if pair_weights is None:
            loads, drifts, spectral = _coset_loads(placements, plan, cache)
        else:
            batch = len(placements)
            loads = np.zeros((batch, plan.torus.num_edges), dtype=np.float64)
            drifts = np.zeros(batch, dtype=np.float64)
            spectral = np.zeros(batch, dtype=bool)
        self.last_snap_drift = float(drifts.max(initial=0.0))
        drifted = spectral & (drifts >= LOAD_SNAP_TOLERANCE)
        for b in np.flatnonzero(~spectral | drifted):
            # non-cosets, weighted traffic, and rows whose snap broke the
            # contract pay the exact displacement evaluation.
            loads[b] = displacement_edge_loads(
                placements[b],
                routing,
                pair_weights=pair_weights,
                cache=plan.path_cache,
            )
        tracer = current_tracer()
        if tracer.enabled:
            metrics = tracer.metrics
            n_fast = int((spectral & ~drifted).sum())
            if n_fast:
                metrics.counter("engine.fft.fast_path").add(n_fast)
            if drifted.any():
                metrics.counter("engine.fft.snap_fallbacks").add(
                    int(drifted.sum())
                )
            metrics.gauge("engine.fft.snap_drift").set(self.last_snap_drift)
        return loads
