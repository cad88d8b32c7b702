"""The :class:`LoadEngine` facade and the backend registry.

One entry point for every per-edge load computation in the package::

    engine = LoadEngine("auto")
    loads = engine.edge_loads(placement, routing)
    emax = engine.emax(placement, routing)

Backends by name:

``reference``
    The per-pair path-enumerating oracle; exact for any routing.
``vectorized``
    The closed-form rows of the plan's
    :class:`~repro.load.path_table.PathTable` (dimension-order routings,
    UDR), any traffic; complete exchange on a placement large enough is
    counted ring by ring from per-ring sender and receiver counts
    (:mod:`repro.load.rings`) instead of pair by pair.
``displacement``
    Path-table rows enumerated through ``routing.paths``; any
    translation-invariant routing, weighted traffic included.
``fft``
    Complete exchange on a placement with a nontrivial translation
    stabilizer (cosets, multiple linear placements), found by an FFT
    autocorrelation: the plan's memoized loads of the placement's
    translate through the origin, moved back by one shift, bit for bit
    the path table's; every other call is served by the path-table apply.
``auto``
    The first backend of fft → vectorized → displacement → reference
    that supports the call: complete exchange on placements with a
    nontrivial stabilizer under translation-invariant routings goes to
    ``fft``, other dimension-order and UDR calls (any traffic) to
    ``vectorized``, every other translation-invariant case to
    ``displacement``, and fault-masked routings to ``reference``.

Every backend returns the same loads after
:func:`~repro.load.quantize.snap_loads`, so the package's own callers
(:func:`repro.core.analysis.compute_loads` among them) use ``auto``;
naming a backend is for tests and benchmarks.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.obs.tracer import current_tracer
from repro.load.engine.displacement import DisplacementBackend
from repro.load.engine.fft import FFTBackend
from repro.load.engine.reference import ReferenceBackend
from repro.load.engine.vectorized import VectorizedBackend
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = [
    "LoadEngine",
    "available_backends",
    "cross_check",
]

#: the preference order the ``auto`` engine tries per call: ``fft``
#: accepts only complete exchange on placements with a nontrivial
#: translation stabilizer; ``vectorized`` serves the other
#: dimension-order and UDR calls, ring by ring where that pays.
_AUTO_ORDER = ("fft", "vectorized", "displacement", "reference")

_BACKEND_NAMES = ("reference", "vectorized", "fft", "displacement")


def available_backends() -> tuple[str, ...]:
    """Registered backend names, plus the ``auto`` selector."""
    return _BACKEND_NAMES + ("auto",)


def _count_backend_call(metrics, backend_name: str) -> None:
    """Bump the per-backend call counter with a literal metric name.

    The backend set is closed (:data:`_BACKEND_NAMES`), so the counter
    namespace is spelled out literally here rather than built from an
    f-string — RL017 keeps every metric name statically enumerable for
    trace diffs and bench pins.
    """
    if backend_name == "reference":
        metrics.counter("engine.calls.reference").add(1)
    elif backend_name == "vectorized":
        metrics.counter("engine.calls.vectorized").add(1)
    elif backend_name == "fft":
        metrics.counter("engine.calls.fft").add(1)
    elif backend_name == "displacement":
        metrics.counter("engine.calls.displacement").add(1)
    else:  # pragma: no cover - the registry rejects unknown names
        metrics.counter("engine.calls.other").add(1)


class LoadEngine:
    """Facade dispatching load computations to a pluggable backend.

    Parameters
    ----------
    backend:
        One of :func:`available_backends` (default ``auto``).
    """

    def __init__(self, backend: str = "auto"):
        if backend not in available_backends():
            raise EngineError(
                f"unknown load backend {backend!r}; available: "
                f"{', '.join(available_backends())}"
            )
        self.backend_name = backend
        self._backends: dict[str, LoadBackend] = {}

    # ----------------------------------------------------------- backends

    def _backend(self, name: str) -> LoadBackend:
        backend = self._backends.get(name)
        if backend is None:
            if name == "reference":
                backend = ReferenceBackend()
            elif name == "vectorized":
                backend = VectorizedBackend()
            elif name == "fft":
                backend = FFTBackend()
            elif name == "displacement":
                backend = DisplacementBackend()
            else:  # pragma: no cover - guarded by __init__
                raise EngineError(f"unknown load backend {name!r}")
            self._backends[name] = backend
        return backend

    def backend_for(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> LoadBackend:
        """The backend that will serve this configuration.

        ``auto`` walks the preference order and returns the first backend
        whose :meth:`~repro.load.engine.base.LoadBackend.supports` accepts
        the configuration; an explicitly named backend is returned
        unconditionally (its ``compute`` raises a descriptive
        :class:`~repro.errors.EngineError` for inputs it cannot serve;
        ``fft`` serves what it rejects through the path-table apply).
        """
        if self.backend_name != "auto":
            return self._backend(self.backend_name)
        for name in _AUTO_ORDER:
            backend = self._backend(name)
            if backend.supports(placement, routing, pair_weights):
                return backend
        return self._backend("reference")

    # ------------------------------------------------------------- compute

    def edge_loads(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-edge loads through the selected backend."""
        backend = self.backend_for(placement, routing, pair_weights)
        tracer = current_tracer()
        if not tracer.enabled:
            return backend.compute(
                placement, routing, pair_weights=pair_weights
            )
        m = len(placement)
        pairs = m * (m - 1)
        with tracer.span(
            "engine.edge_loads",
            backend=backend.name,
            placement=placement.name,
            routing=routing.name,
            pairs=pairs,
        ) as span:
            loads = backend.compute(
                placement, routing, pair_weights=pair_weights
            )
        metrics = tracer.metrics
        _count_backend_call(metrics, backend.name)
        if span.duration_seconds > 0:
            metrics.gauge("engine.pairs_per_sec").set(
                pairs / span.duration_seconds
            )
        return loads

    def edge_loads_many(
        self,
        placements: "Iterable[Placement]",
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-edge loads of placements on one torus; ``(B, num_edges)``.

        Row ``b`` is ``edge_loads(placements[b], ...)``: every placement
        is dispatched on its own, exactly as a single call would be.
        """
        placements = list(placements)
        if not placements:
            raise EngineError("edge_loads_many needs at least one placement")
        torus = placements[0].torus
        for placement in placements[1:]:
            if placement.torus != torus:
                raise EngineError(
                    "edge_loads_many requires all placements on one torus; "
                    f"got {torus} and {placement.torus}"
                )
        return np.stack(
            [
                self.edge_loads(placement, routing, pair_weights=pair_weights)
                for placement in placements
            ]
        )

    def emax(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> float:
        """Definition 5's :math:`E_{max}` — the maximum per-edge load."""
        loads = self.edge_loads(placement, routing, pair_weights=pair_weights)
        return float(loads.max(initial=0.0))

    def __repr__(self) -> str:
        return f"LoadEngine(backend={self.backend_name!r})"


# ------------------------------------------------------------ cross-check


def cross_check(
    placement: Placement,
    routing: RoutingAlgorithm,
    pair_weights: np.ndarray | None = None,
    backends: Iterable[str] | None = None,
    atol: float = 1e-9,
) -> dict[str, float]:
    """Assert every applicable backend agrees with the reference oracle.

    Returns ``{backend_name: max_abs_diff}`` for the backends that
    support the configuration; raises :class:`~repro.errors.EngineError`
    if any deviates from the oracle by more than ``atol``.

    Tolerance policy (the explicit contract behind ``atol``): exact
    loads are rationals on the grid :mod:`repro.load.quantize` describes
    (multiples of ``1/Q``, e.g. integers for dimension-order routings and
    multiples of ``1/d!`` for UDR).  The oracle and the enumerated path
    tables approximate them by float summation in different orders, so
    agreeing backends may differ by accumulated float error but never by
    a representable fraction of a quantum — the default
    ``atol`` of 1e-9 sits far below the smallest practical quantum and
    far above double-precision summation noise.  For *bit*-identity
    checks, canonicalize both sides with
    :func:`repro.load.quantize.snap_loads` first.
    """
    names = tuple(backends) if backends is not None else _BACKEND_NAMES
    oracle = ReferenceBackend().compute(placement, routing, pair_weights)
    diffs: dict[str, float] = {}
    for name in names:
        backend = LoadEngine(name).backend_for(placement, routing, pair_weights)
        if name != "reference" and not backend.supports(
            placement, routing, pair_weights
        ):
            continue
        loads = backend.compute(placement, routing, pair_weights=pair_weights)
        diff = float(np.abs(loads - oracle).max(initial=0.0))
        diffs[name] = diff
        if diff > atol:
            raise EngineError(
                f"backend {name!r} deviates from the reference oracle by "
                f"{diff:.3e} (> {atol:.1e}) on {placement.name!r} + "
                f"{routing.name!r}"
            )
    return diffs
