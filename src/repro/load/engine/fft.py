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
evaluation instead.

Exactness is restored by the *snap-back* of :mod:`repro.load.quantize`:
all template weights are scaled to integer numerators over a common
denominator ``Q`` (the LCM of the path-set sizes, e.g. ``d!`` for UDR),
the convolution result is rounded to the nearest integer — which is the
exact value whenever the accumulated FFT error is below one half — and
divided back by ``Q``.  A snap that would move any value by
:data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE` or more falls back to
the displacement evaluation too, instead of shipping a wrong answer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.load.engine.displacement import (
    DisplacementPathCache,
    displacement_edge_loads,
)
from repro.load.quantize import (
    LOAD_SNAP_TOLERANCE,
    QUANTUM_DENOMINATOR_CAP,
)
from repro.load.plancache import (
    MAX_PLAN_ENTRIES,
    SpectralPlan,
    current_plan_cache,
)
from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays

__all__ = ["FFTBackend", "fft_edge_loads", "fft_edge_loads_many"]


# --------------------------------------------------------- coset classes


def _strides(torus: Torus) -> np.ndarray:
    k, d = torus.k, torus.d
    return np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)


def _coset_classes(
    placement: Placement, strides: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Difference set of a coset placement, or ``None`` for any other.

    Returns the sorted nonzero displacement codes and one displacement
    per code when ``|P - P| = |P|`` (and ``|P| >= 2``).
    """
    coords = placement.coords()
    m = coords.shape[0]
    if m < 2:
        return None
    pi, qi = ordered_pair_index_arrays(m)
    disp = np.mod(coords[qi] - coords[pi], placement.torus.k)
    codes, first = np.unique(disp @ strides, return_index=True)
    if codes.size != m - 1:
        return None
    return codes, disp[first]


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
    cache: DisplacementPathCache,
    torus: Torus,
    strides: np.ndarray,
    rep_disp: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """Forward spectra of the aggregated usage tensor ``U[channel, node]``.

    One ``(Q, spectrum)`` entry per denominator group, with every class
    template scaled to integer numerators over ``Q``.
    """
    templates = [cache.template(disp) for disp in rep_disp]
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
    placement: Placement, plan: SpectralPlan, strides: np.ndarray
) -> list[tuple[int, np.ndarray]] | None:
    """The plan's usage spectra serving a coset placement, or ``None``.

    Memoized twice on the plan: per difference set (every coset of one
    subgroup shares an entry) and per placement id-bytes, so warm repeat
    calls skip the pair pass.
    """
    ids = placement.node_ids.tobytes()
    spectra = plan.placement_spectra.get(ids)
    if spectra is not None:
        return spectra
    classes = _coset_classes(placement, strides)
    if classes is None:
        return None
    codes, rep_disp = classes
    key = codes.tobytes()
    spectra = plan.spectra.get(key)
    if spectra is None:
        spectra = _usage_spectra(
            plan.path_cache, plan.torus, strides, rep_disp
        )
        if len(plan.spectra) >= MAX_PLAN_ENTRIES:
            plan.spectra.clear()
        plan.spectra[key] = spectra
    if len(plan.placement_spectra) >= MAX_PLAN_ENTRIES:
        plan.placement_spectra.clear()
    plan.placement_spectra[ids] = spectra
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
    placements: list[Placement], plan: SpectralPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectral loads of a complete-exchange batch's coset rows.

    Returns ``(loads (B, E), drifts (B,), spectral (B,))``; rows that are
    not cosets stay zero with ``spectral`` false.  Placements sharing a
    difference set — every coset of one subgroup, e.g. all offsets of a
    linear family — are stacked on a leading batch axis and resolved by
    a single ``rfftn``/inverse pair against the shared usage spectrum.
    """
    torus = plan.torus
    strides = _strides(torus)
    batch = len(placements)
    loads = np.zeros((batch, torus.num_edges), dtype=np.float64)
    drifts = np.zeros(batch, dtype=np.float64)
    spectral = np.zeros(batch, dtype=bool)
    groups: dict[int, tuple[list, list[int]]] = {}
    for b, placement in enumerate(placements):
        spectra = _coset_spectra(placement, plan, strides)
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


def fft_edge_loads_many(
    placements: list[Placement],
    routing: RoutingAlgorithm,
    pair_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-edge loads of a placement batch, ``(B, num_edges)``.

    Bit-identical to stacking :func:`fft_edge_loads` rows; see
    :meth:`FFTBackend.compute_many` for the batching strategy.
    """
    return FFTBackend().compute_many(
        placements, routing, pair_weights=pair_weights
    )


# --------------------------------------------------------------- backend


class FFTBackend(LoadBackend):
    """Spectral backend for coset placements under complete exchange.

    :meth:`supports` accepts exactly those inputs on translation-invariant
    routings, so ``auto`` sends nothing else here.  Named explicitly,
    the backend serves every other translation-invariant input through
    the displacement evaluation, with the path templates of the same
    plan.

    All configuration-dependent state — path templates and forward
    usage spectra — lives in the ambient content-addressed
    :class:`~repro.load.plancache.PlanCache` (see
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
        return (
            pair_weights is None
            and bool(getattr(routing, "translation_invariant", False))
            and _coset_classes(placement, _strides(placement.torus))
            is not None
        )

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
        plan = current_plan_cache().get(placements[0].torus, routing)
        if pair_weights is None:
            loads, drifts, spectral = _coset_loads(placements, plan)
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
