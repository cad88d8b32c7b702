"""The :class:`LoadEngine` facade and the backend registry.

One entry point for every per-edge load computation in the package::

    engine = LoadEngine("auto")
    loads = engine.edge_loads(placement, routing)
    emax = engine.emax(placement, routing)

Backends by name:

``reference``
    The per-pair path-enumerating oracle; exact for any routing.
``vectorized``
    The closed-form numpy kernels (dimension-order routings, UDR).
``displacement``
    The displacement-class template cache; any translation-invariant
    routing, weighted traffic included.
``fft``
    Spectral circular correlation over :math:`Z_k^d` with integer
    snap-back, all edges in one ``rfftn`` pass; spectral only for
    complete-exchange cosets, displacement-served otherwise.
``auto``
    The first backend of vectorized → fft → displacement → reference
    that supports the call, which makes the choice structural:
    dimension-order routings and unweighted UDR go to ``vectorized``,
    cosets on other translation-invariant routings to ``fft``, every
    other translation-invariant case to ``displacement``, and
    fault-masked routings to ``reference``.

A process-wide *default engine* (``auto`` unless overridden) backs
:func:`repro.core.analysis.compute_loads` and the experiment runner; the
CLI's ``--engine`` flag swaps it via :func:`using_engine`.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator

import numpy as np

from repro.errors import EngineError
from repro.load import plancache
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
    "get_default_engine",
    "set_default_engine",
    "resolve_engine",
    "using_engine",
    "cross_check",
]

#: the preference order the ``auto`` engine tries per call.
_AUTO_ORDER = ("vectorized", "fft", "displacement", "reference")

_BACKEND_NAMES = ("reference", "vectorized", "fft", "displacement")


def available_backends() -> tuple[str, ...]:
    """Registered backend names, plus the ``auto`` selector."""
    return _BACKEND_NAMES + ("auto",)


def _count_backend_call(metrics, backend_name: str) -> None:
    """Bump the per-backend call counter with a literal metric name.

    The backend set is closed (:data:`_BACKEND_NAMES`), so the exported
    counter namespace is spelled out literally here rather than built
    from an f-string — RL017 keeps every metric name statically
    enumerable for the Prometheus export layer.
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
        ``fft`` serves non-cosets through the displacement evaluation).
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
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Per-edge loads of a placement batch; ``(B, num_edges)``.

        Every placement must live on the same torus.  Row ``b`` is
        bit-identical to ``edge_loads(placements[b], ...)`` after the
        quantize snap-back — the FFT backend resolves cosets of one
        subgroup with a single stacked ``rfftn``/inverse pair against
        the plan cache's usage spectrum, other backends fall back to the
        sequential loop.  The batch is evaluated in blocks of
        ``batch_size`` placements (default: the ambient
        :func:`repro.load.plancache.default_batch_size`, the CLI's
        ``--batch-size``); realized block sizes land on the
        ``engine.batch_size`` histogram.
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
        backend = self.backend_for(placements[0], routing, pair_weights)
        block = (
            int(batch_size)
            if batch_size is not None
            else plancache.default_batch_size()
        )
        if block < 1:
            raise EngineError(f"batch_size must be >= 1, got {block}")

        def run() -> np.ndarray:
            blocks = []
            for lo in range(0, len(placements), block):
                chunk = placements[lo : lo + block]
                metrics.histogram("engine.batch_size").observe(len(chunk))
                blocks.append(
                    backend.compute_many(
                        chunk, routing, pair_weights=pair_weights
                    )
                )
            return np.concatenate(blocks, axis=0)

        tracer = current_tracer()
        metrics = tracer.metrics
        if not tracer.enabled:
            return run()
        with tracer.span(
            "engine.edge_loads_many",
            backend=backend.name,
            routing=routing.name,
            batch=len(placements),
        ):
            loads = run()
        _count_backend_call(metrics, backend.name)
        metrics.counter("engine.batched_placements").add(len(placements))
        return loads

    def emax(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> float:
        """Definition 5's :math:`E_{max}` — the maximum per-edge load."""
        loads = self.edge_loads(placement, routing, pair_weights=pair_weights)
        return float(loads.max(initial=0.0))

    def emax_many(
        self,
        placements: "Iterable[Placement]",
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """:math:`E_{max}` per batch member; ``float64`` of length ``B``."""
        loads = self.edge_loads_many(
            placements, routing, pair_weights=pair_weights,
            batch_size=batch_size,
        )
        return loads.max(axis=1, initial=0.0)

    def __repr__(self) -> str:
        return f"LoadEngine(backend={self.backend_name!r})"


# --------------------------------------------------------- default engine

_default_engine: LoadEngine | None = None


def get_default_engine() -> LoadEngine:
    """The process-wide engine used when callers pass ``engine=None``."""
    global _default_engine
    if _default_engine is None:
        _default_engine = LoadEngine("auto")
    return _default_engine


def set_default_engine(engine: "LoadEngine | str | None") -> LoadEngine:
    """Replace the process-wide default engine.

    Accepts an engine instance, a backend name, or ``None`` to reset to
    ``auto``.  Returns the engine now in effect.
    """
    global _default_engine
    _default_engine = None if engine is None else resolve_engine(engine)
    return get_default_engine()


def resolve_engine(engine: "LoadEngine | str | None") -> LoadEngine:
    """Coerce an engine spec (instance, backend name, or ``None``)."""
    if engine is None:
        return get_default_engine()
    if isinstance(engine, LoadEngine):
        return engine
    if isinstance(engine, str):
        return LoadEngine(engine)
    raise EngineError(
        f"cannot interpret {engine!r} as a LoadEngine, backend name, or None"
    )


@contextlib.contextmanager
def using_engine(engine: "LoadEngine | str | None") -> Iterator[LoadEngine]:
    """Temporarily install ``engine`` as the process-wide default.

    ``None`` is a no-op (the current default stays in effect), so callers
    can thread an optional engine argument straight through.
    """
    global _default_engine
    if engine is None:
        yield get_default_engine()
        return
    previous = _default_engine
    set_default_engine(engine)
    try:
        yield get_default_engine()
    finally:
        _default_engine = previous


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
    multiples of ``1/d!`` for UDR).  The oracle approximates them by
    float summation and the FFT backend recovers them by integer
    snap-back, so agreeing backends may differ by accumulated float error
    but never by a representable fraction of a quantum — the default
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
