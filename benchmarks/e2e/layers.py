"""Per-layer attribution from outside the program.

The traced run installs a :class:`repro.obs.Tracer` whose records stay in
memory (they are written out once, when the run ends).  For the length
of one traced operation each layer's public entry point is replaced, at
the attribute its caller resolves, by a wrapper that counts the call and
opens a ``layer.<id>`` span around it; the operation itself runs in a
``bench.op`` span.  A layer's self time is its spans' time minus the part
their child spans cover, so nested layers (the screen's FFT calls, the
exact search's kernel calls) are not counted twice, and spans the
program opens itself (``search.certify``, ``sim.run`` ...) are charged to
the benchmark layer that encloses them.

The program's own counters are read from the tracer's ``Metrics``
snapshot, so the numbers here and a ``repro trace summarize`` of the same
calls agree by construction.  Untraced operations run the original,
unpatched code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter

from repro.obs import JsonlTraceSink, Tracer, using_tracer
from repro.obs.analyze import build_forest

#: layer id -> (owner as "module" or "module:Class", attribute wrapped)
TARGETS = {
    "add_delta": ("repro.placements.exact_search", "odr_edge_loads_add_delta"),
    "canonicity": ("repro.placements.symmetry:AutomorphismGroup", "canonicity"),
    "separator": ("repro.placements.exact_search", "separator_size"),
    "screen": ("repro.placements.exact_search", "screen_initial_upper_bound"),
    "exact_search": ("repro.placements.exact_search", "exact_global_minimum"),
    "swap_delta": ("repro.load.odr_loads", "odr_edge_loads_swap_delta"),
    "local_search": ("repro.placements.search", "local_search_placement"),
    "catalog": ("repro.placements.catalog", "global_minimum_emax"),
    "sim.build": ("repro.sim.workloads", "complete_exchange_packets"),
    "sim.cycle": ("repro.sim.engine:CycleEngine", "run"),
    "sim.wormhole": ("repro.sim.wormhole:WormholeEngine", "run"),
}

#: the load-engine facade; calls are charged to ``engine.<backend>`` by
#: the backend ``LoadEngine.backend_for`` picks for them.
ENGINE = "repro.load.engine.facade:LoadEngine"
ENGINE_METHODS = ("edge_loads", "edge_loads_many")
ENGINE_BACKENDS = ("vectorized", "fft", "displacement", "reference")

#: routing classes whose ``paths`` calls are counted (no span: too many)
PATH_OWNERS = (
    "repro.routing.dimension_order:DimensionOrderRouting",
    "repro.routing.udr:UnorderedDimensionalRouting",
)

ROOT_SPAN = "bench.op"
SPAN_PREFIX = "layer."
_MISSING = object()


def layer_ids() -> list[str]:
    return list(TARGETS) + [f"engine.{name}" for name in ENGINE_BACKENDS]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Instrumentation:
    """Wrappers, tracer and per-operation tallies of one traced run."""

    def __init__(self, label: str):
        self.records: list[dict] = []
        self.tracer = Tracer(sink=self, label=label)
        self.calls: Counter[str] = Counter()
        self.patches = []
        for layer, (owner, attr) in TARGETS.items():
            owner = _owner(owner)
            self.patches.append((owner, attr, self._spanned(layer, getattr(owner, attr))))
        engine = _owner(ENGINE)
        for attr in ENGINE_METHODS:
            self.patches.append((engine, attr, self._engine(getattr(engine, attr))))
        for owner in map(_owner, PATH_OWNERS):
            self.patches.append((owner, "paths", self._counted("routing.paths", owner.paths)))

    def emit(self, record: dict) -> None:
        """Sink protocol: keep every record in memory."""
        self.records.append(record)

    # ------------------------------------------------------------ wrappers

    def _spanned(self, layer: str, fn):
        calls, tracer, name = self.calls, self.tracer, SPAN_PREFIX + layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _engine(self, fn):
        calls, tracer = self.calls, self.tracer

        @functools.wraps(fn)
        def wrapper(engine, placements, routing, pair_weights=None, **kwargs):
            if fn.__name__ == "edge_loads_many":
                placements = list(placements)
                first = placements[0] if placements else None
            else:
                first = placements
            if first is None:
                return fn(engine, placements, routing, pair_weights=pair_weights, **kwargs)
            layer = "engine." + engine.backend_for(first, routing, pair_weights).name
            calls[layer] += 1
            with tracer.span(SPAN_PREFIX + layer):
                return fn(engine, placements, routing, pair_weights=pair_weights, **kwargs)

        return wrapper

    def _counted(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ operation

    @contextlib.contextmanager
    def operation(self, index: int):
        """Run the body as one traced operation; tallies land in ``last``."""
        first_record = len(self.records)
        calls_before = Counter(self.calls)
        counters_before = self.tracer.metrics.snapshot()["counters"]
        saved = []
        try:
            for owner, attr, wrapper in self.patches:
                saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
            with using_tracer(self.tracer), self.tracer.span(ROOT_SPAN, index=index):
                yield
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
        counters = self.tracer.metrics.snapshot()["counters"]
        self.last = {
            "calls": self.calls - calls_before,
            "counters": {
                name: value - counters_before.get(name, 0.0)
                for name, value in counters.items()
            },
            "layer_seconds": layer_seconds(self.records[first_record:]),
        }

    def write(self, path) -> None:
        """Flush the metrics snapshot and write every record as JSONL."""
        self.tracer.finish()
        with JsonlTraceSink(path, label=self.tracer.label) as sink:
            for record in self.records:
                sink.emit(record)


def layer_seconds(records: list[dict]) -> Counter[str]:
    """Self seconds per layer under each ``bench.op`` root, plus the
    roots' total under the key ``bench.op``.

    Time outside every ``layer.*`` span is charged to ``bench``.
    """
    seconds: Counter[str] = Counter()
    for root in build_forest(records):
        if root.name != ROOT_SPAN:
            continue
        seconds[ROOT_SPAN] += root.duration
        stack = [(root, "bench")]
        while stack:
            node, layer = stack.pop()
            if node.name.startswith(SPAN_PREFIX):
                layer = node.name[len(SPAN_PREFIX):]
            seconds[layer] += node.self_seconds
            stack.extend((child, layer) for child in node.children)
    return seconds
