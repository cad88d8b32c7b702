"""Symmetry-reduced, bound-pruned exact optimality certification.

:func:`repro.placements.catalog.global_minimum_emax` certifies the global
ODR :math:`E_{max}` minimum by brute force — one full :math:`O(|P|^2)`
evaluation per candidate, all :math:`C(k^d, n)` of them.  This module
reaches the same *exact* answers with two classic search-space
reductions, pushing certification from :math:`T_4^2` to :math:`T_6^2`
and beyond:

**Orbit enumeration (orderly generation).**  Placements are grown as
sorted node-id tuples, one processor at a time, and a prefix is expanded
only when it is the lexicographically least member of its orbit under the
full automorphism group (:class:`~repro.placements.symmetry.AutomorphismGroup`,
order :math:`k^d \\cdot d! \\cdot 2^d`).  The Read/Faradžev canonicity
theorem makes this complete: removing the largest element of a canonical
set leaves a canonical set, so every canonical ``n``-set is reached by a
unique chain of canonical prefixes and each orbit is visited exactly once.
Exact per-placement accounting survives the quotient via
orbit–stabilizer counting: an orbit has :math:`|G|/|\\mathrm{Stab}(R)|`
members, so ``num_optimal`` and the :math:`E_{max}` histogram are still
reported over *all* placements, bit-identical to the brute force.

**The ODR variant subtlety.**  Restricted-ODR :math:`E_{max}` is
invariant under translations only: dimension permutations re-order the
correction sequence and reflections flip the even-``k`` tie-break, so
:math:`E_{max}` varies *within* a full-group orbit.  Each canonical
representative ``R`` is therefore evaluated under every point-group
variant ``h`` (all :math:`d!\\cdot 2^d` ``reflect∘permute`` images; only
the :math:`d!` permutations when ``k`` is odd, where minimal corrections
are unique and reflections provably map ODR paths to ODR paths).  The
orbit member :math:`t\\cdot h\\cdot R` has
:math:`E_{max} = E_{max}(h(R))`, and value ``v`` occurs exactly
:math:`k^d \\cdot \\#\\{h : E_{max}(h(R)) = v\\}/|\\mathrm{Stab}(R)|`
times in the orbit — an integer, because the fibers of
:math:`g \\mapsto g(R)` partition evenly.

**Branch and bound.**  The surviving variants' load vectors are kept as
one ``(variants, edges)`` array and grown together along the prefix
tree: :func:`repro.load.odr_loads.odr_edge_loads_add_delta` gathers the
ODR path templates of every (variant, kept node) pair and scatters them
in one ``bincount`` per grown node — :math:`O(|P|)` pair work per node
instead of :math:`O(|P|^2)` per leaf; the engine performs *zero*
from-scratch placement evaluations.  Because loads only ever increase as
processors are added, the partial :math:`E_{max}` of a prefix
lower-bounds every completion.  In ``bound`` mode any subtree (or
individual variant) whose bound strictly exceeds the incumbent is pruned
— exact for the minimum and ``num_optimal`` (achievers are never
pruned), while the full histogram is only produced in ``full`` mode,
which disables pruning.  (A Lemma 1 separator bound
:math:`2|S|(|P|-|S|)/|∂S|` on the prefix was tried as a second prune; it
never cut a subtree on any certified torus, so the search does not pay
for it.)

Subtree roots can be sharded over a process pool (per-worker group
tables installed once by the pool initializer); per-worker
incumbents keep the search exact without cross-process communication.
The fan-out runs through :class:`repro.exec.ResilientExecutor`, so worker
crashes and hangs are retried (and, past the retry budget, recomputed
serially in-process), and a :class:`repro.exec.CheckpointJournal` of
completed subtree roots makes multi-hour certifications restartable:
``repro certify --checkpoint run.jsonl`` followed by ``--resume`` skips
every journaled root and merges its stored partial accumulators instead
of re-searching the subtree.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

# re-exported so the per-layer benchmark (benchmarks/e2e) can wrap it here
from repro.bisection.separator import separator_size  # noqa: F401
from repro.errors import ExecutionError, InvalidParameterError, SearchError
from repro.exec import CheckpointJournal, ExecTask, ResilientExecutor
from repro.load.odr_loads import odr_edge_loads_add_delta
from repro.obs.console import progress as _progress_line
from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.placements.symmetry import automorphism_group
from repro.torus.topology import Torus

__all__ = [
    "SearchCounters",
    "ExactSearchResult",
    "exact_global_minimum",
    "screen_initial_upper_bound",
    "MAX_EXACT_SEARCH",
]

#: refuse exact certification beyond this many candidate placements.
MAX_EXACT_SEARCH = 1_000_000_000

#: split depth for process-pool sharding (subtree roots at this prefix size).
_SPLIT_DEPTH = 3

#: minimum seconds between progress heartbeats on stderr.
_HEARTBEAT_SECONDS = 5.0

#: extra linear-coefficient families screened per torus when seeding the
#: bound-mode incumbent (beyond the paper's all-ones default).
_SCREEN_COEFFICIENT_VARIANTS = 4

_TOL = 1e-12


@dataclass(frozen=True)
class SearchCounters:
    """Work accounting for one exact search.

    Attributes
    ----------
    canonicity_checks:
        Candidate prefixes tested for orbit-canonicity.
    canonical_nodes:
        Prefixes that passed (tree nodes actually expanded or recorded).
    leaf_orbits:
        Canonical full-size representatives reached (orbits certified).
    variant_evaluations:
        Leaf :math:`E_{max}` readings — one per surviving point-group
        variant per leaf orbit.  The brute-force equivalent is
        :math:`C(k^d, n)` full placement evaluations.
    pair_updates:
        Ordered pairs pushed through the incremental load kernel.
    full_evaluations:
        From-scratch :math:`O(|P|^2)` placement evaluations performed by
        the engine: always 0 — loads are only ever grown incrementally.
    subtrees_pruned_emax:
        Subtrees cut because every variant's monotone partial
        :math:`E_{max}` exceeded the incumbent.
    variants_dropped:
        Individual variants retired early (their partial :math:`E_{max}`
        alone exceeded the incumbent).
    """

    canonicity_checks: int
    canonical_nodes: int
    leaf_orbits: int
    variant_evaluations: int
    pair_updates: int
    full_evaluations: int
    subtrees_pruned_emax: int
    variants_dropped: int


@dataclass(frozen=True)
class ExactSearchResult:
    """Outcome of a symmetry-reduced exact optimality sweep.

    Mirrors :class:`repro.placements.catalog.CatalogResult` so the two are
    directly cross-checkable.

    Attributes
    ----------
    minimum_emax:
        The exact global minimum ODR :math:`E_{max}` over all
        :math:`C(k^d, n)` placements.
    num_placements:
        Size of the certified search space, :math:`C(k^d, n)`.
    num_optimal:
        Exactly how many placements achieve the minimum (counted over all
        placements, not orbits).
    example_optimal:
        One placement achieving the minimum (its :math:`E_{max}` is
        independently re-checkable with a full evaluation).
    emax_histogram:
        ``{emax: count}`` over **all** placements — ``full`` mode only
        (``None`` in ``bound`` mode, where pruning truncates the tail).
    num_orbits:
        Total number of automorphism orbits of the space (``full`` mode
        only; ``None`` in ``bound`` mode where pruned orbits are not
        visited).
    mode:
        ``"full"`` or ``"bound"``.
    group_order, num_variants:
        Automorphism group order and per-representative ODR variants
        evaluated.
    counters:
        Work accounting (see :class:`SearchCounters`).
    """

    minimum_emax: float
    num_placements: int
    num_optimal: int
    example_optimal: Placement
    emax_histogram: dict[float, int] | None
    num_orbits: int | None
    mode: str
    group_order: int
    num_variants: int
    counters: SearchCounters


class _SearchContext:
    """Per-process search state: group tables, incumbent, accumulators."""

    def __init__(
        self,
        torus: Torus,
        size: int,
        mode: str,
        upper_bound: float,
        progress: bool = False,
    ):
        self.torus = torus
        self.size = size
        self.mode = mode
        self.progress = progress
        self._last_heartbeat = time.monotonic()
        self.group = automorphism_group(torus)
        self.coords = torus.all_node_coords()
        d = torus.d
        if torus.k % 2 == 1:
            # reflections preserve ODR paths for odd k: keep only the
            # reflection-free point rows, each standing in for 2^d images.
            rows = [
                i
                for i, (_perm, mask) in enumerate(self.group.point_descs)
                if mask == 0
            ]
            self.variant_weight = 1 << d
        else:
            rows = list(range(self.group.point_order))
            self.variant_weight = 1
        self.variant_rows = np.array(rows, dtype=np.int64)
        self.variant_ids = self.group.point_ids[self.variant_rows]
        #: (variants, k^d, d) — coordinates of every node's variant images.
        self.variant_coords = self.coords[self.variant_ids]
        self.num_variants = len(rows)
        # pruning incumbent: certified upper bound on the global minimum,
        # shared across all roots this context processes.
        self.incumbent = upper_bound
        # lifetime tallies survive take_partial() so heartbeats stay
        # cumulative across the many roots one worker processes.
        self.lifetime = dict.fromkeys(SearchCounters.__dataclass_fields__, 0)
        self._reset_partial()

    # ------------------------------------------------------- partial state

    def _reset_partial(self) -> None:
        self.histogram: dict[float, int] = {}
        self.best_value = math.inf
        self.best_image_ids: np.ndarray | None = None
        self.orbit_total = 0
        self.counters = dict.fromkeys(SearchCounters.__dataclass_fields__, 0)

    def take_partial(self) -> dict:
        """Detach and return the accumulated per-root results."""
        partial = {
            "best_value": self.best_value,
            "best_image_ids": self.best_image_ids,
            "histogram": self.histogram,
            "orbit_total": self.orbit_total,
            "counters": self.counters,
        }
        for key, value in self.counters.items():
            self.lifetime[key] += value
        self._reset_partial()
        return partial

    # ------------------------------------------------------------- search

    def run_root(self, root: tuple[int, ...]) -> dict:
        """Search the subtree under one canonical prefix; return partials."""
        alive = np.arange(self.num_variants)
        loads = np.zeros(
            (self.num_variants, self.torus.num_edges), dtype=np.float64
        )
        # rebuild the prefix's incremental loads (workers receive ids only)
        for m, node in enumerate(root):
            alive, loads = self._grow(root[:m], alive, loads, node)
            if alive.size == 0:
                return self.take_partial()
        stab = self.group.order
        if root:
            canonical, stab = self.group.canonicity(root)
            if not canonical:  # pragma: no cover - roots are always canonical
                raise SearchError(f"prefix {tuple(root)} is not canonical")
        self._descend(tuple(root), alive, loads, stab, frontier=None)
        return self.take_partial()

    def collect_frontier(self, depth: int) -> tuple[list[tuple[int, ...]], dict]:
        """Canonical (pruned) prefixes at ``depth``, plus shallow partials."""
        frontier: list[tuple[int, ...]] = []
        alive = np.arange(self.num_variants)
        loads = np.zeros(
            (self.num_variants, self.torus.num_edges), dtype=np.float64
        )
        self._descend(
            (), alive, loads, self.group.order, frontier=(depth, frontier)
        )
        return frontier, self.take_partial()

    def _grow(
        self,
        ids: tuple[int, ...],
        alive: np.ndarray,
        loads: np.ndarray,
        node: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Extend every surviving variant's loads by one grown node.

        One template scatter covers all variants.  Returns the (possibly
        reduced) alive variant rows and their new load vectors.
        """
        m = len(ids)
        prefix = np.array(ids, dtype=np.int64)
        new_loads = odr_edge_loads_add_delta(
            self.torus,
            loads,
            self.variant_coords[alive[:, None], prefix],
            self.variant_coords[alive, node],
        )
        self.counters["pair_updates"] += 2 * m * int(alive.size)
        if self.mode == "bound" and math.isfinite(self.incumbent):
            keep = new_loads.max(axis=1) <= self.incumbent + _TOL
            dropped = int(np.count_nonzero(~keep))
            if dropped:
                self.counters["variants_dropped"] += dropped
                alive = alive[keep]
                new_loads = new_loads[keep]
        return alive, new_loads

    def _descend(
        self,
        ids: tuple[int, ...],
        alive: np.ndarray,
        loads: np.ndarray,
        stab: int,
        frontier: tuple[int, list[tuple[int, ...]]] | None,
    ) -> None:
        m = len(ids)
        if m == self.size:
            self._leaf(ids, alive, loads, stab)
            return
        if frontier is not None and m == frontier[0]:
            frontier[1].append(ids)
            return
        lower = ids[-1] + 1 if ids else 0
        nodes = np.arange(lower, self.torus.num_nodes - (self.size - m) + 1)
        if nodes.size == 0:
            return
        # every candidate child of this prefix is tested in one call
        children = np.empty((nodes.size, m + 1), dtype=np.int64)
        children[:, :m] = ids
        children[:, m] = nodes
        self.counters["canonicity_checks"] += int(nodes.size)
        canonical, stabs = self.group.canonicity(children)
        for node, child_stab in zip(
            nodes[canonical].tolist(), stabs[canonical].tolist()
        ):
            self.counters["canonical_nodes"] += 1
            child_alive, child_loads = self._grow(ids, alive, loads, node)
            if child_alive.size == 0:
                self.counters["subtrees_pruned_emax"] += 1
                continue
            self._descend(
                ids + (node,), child_alive, child_loads, child_stab, frontier
            )

    def _leaf(
        self,
        ids: tuple[int, ...],
        alive: np.ndarray,
        loads: np.ndarray,
        stab: int,
    ) -> None:
        self.counters["leaf_orbits"] += 1
        self.counters["variant_evaluations"] += int(alive.size)
        if self.progress:
            self._heartbeat()
        self.orbit_total += self.group.order // stab
        emaxes = loads.max(axis=1)
        # exact per-placement weights: value v occurs
        # k^d · #{variants at v} · variant_weight / |Stab| times in the orbit
        per_value: dict[float, int] = {}
        for value in emaxes:
            value = float(value)
            per_value[value] = per_value.get(value, 0) + 1
        for value, count in per_value.items():
            weight, remainder = divmod(
                count * self.variant_weight * self.group.num_translations,
                stab,
            )
            if remainder:  # pragma: no cover - orbit-stabilizer invariant
                raise SearchError(
                    f"orbit weight {count}·{self.variant_weight}·"
                    f"{self.group.num_translations} not divisible by "
                    f"stabilizer {stab} at leaf {ids}"
                )
            self.histogram[value] = self.histogram.get(value, 0) + weight
        smallest = float(emaxes.min())
        if self.best_image_ids is None or smallest < self.best_value - _TOL:
            self.best_value = smallest
            winner = self.variant_ids[alive[int(np.argmin(emaxes))]]
            self.best_image_ids = np.sort(winner[np.array(ids)])
        if smallest < self.incumbent - _TOL:
            self.incumbent = smallest

    def _heartbeat(self) -> None:
        """Throttled progress line to stderr (cumulative tallies)."""
        now = time.monotonic()
        if now - self._last_heartbeat < _HEARTBEAT_SECONDS:
            return
        self._last_heartbeat = now

        def tally(key: str) -> int:
            return self.lifetime[key] + self.counters[key]

        pruned = tally("subtrees_pruned_emax")
        incumbent = (
            "inf" if math.isinf(self.incumbent) else f"{self.incumbent:g}"
        )
        _progress_line(
            f"exact-search T_{self.torus.k}^{self.torus.d} n={self.size}: "
            f"{tally('leaf_orbits')} leaf orbits, "
            f"{tally('canonical_nodes')} nodes expanded, "
            f"{pruned} subtrees pruned, incumbent E_max {incumbent}"
        )


# --------------------------------------------------------- multiprocessing

_WORKER_CTX: _SearchContext | None = None


def _init_worker(
    k: int,
    d: int,
    size: int,
    mode: str,
    upper_bound: float,
    progress: bool = False,
) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _SearchContext(
        Torus(k, d), size, mode, upper_bound, progress=progress
    )


def _run_subtree(root: tuple[int, ...]) -> dict:
    assert _WORKER_CTX is not None
    return _WORKER_CTX.run_root(tuple(root))


# ------------------------------------------------------------ checkpointing


def _root_task_id(root: tuple[int, ...]) -> str:
    """Stable journal id of one canonical subtree root."""
    return "root-" + ".".join(str(int(node)) for node in root)


def _encode_partial(partial: dict) -> dict[str, Any]:
    """Per-root partial accumulators → JSON-compatible journal record."""
    ids = partial["best_image_ids"]
    return {
        "best_value": partial["best_value"],
        "best_image_ids": None if ids is None else [int(x) for x in ids],
        "histogram": [
            [float(value), int(count)]
            for value, count in sorted(partial["histogram"].items())
        ],
        "orbit_total": int(partial["orbit_total"]),
        "counters": {key: int(val) for key, val in partial["counters"].items()},
    }


def _decode_partial(data: dict) -> dict:
    """Inverse of :func:`_encode_partial`."""
    ids = data["best_image_ids"]
    return {
        "best_value": float(data["best_value"]),
        "best_image_ids": None if ids is None else np.asarray(ids, dtype=np.int64),
        "histogram": {
            float(value): int(count) for value, count in data["histogram"]
        },
        "orbit_total": int(data["orbit_total"]),
        # journals from older versions may carry retired counters (the
        # separator prune's), which merge as nothing
        "counters": {
            str(key): int(val)
            for key, val in data["counters"].items()
            if key in SearchCounters.__dataclass_fields__
        },
    }


# -------------------------------------------------- incumbent screening


def _candidate_leaf_placements(torus: Torus, size: int) -> list[Placement]:
    """Structured size-``size`` placements worth screening as incumbents.

    Only shapes the paper gives closed forms for: the linear families of
    Definition 10 (all ``k`` offsets of all-ones coefficients plus a few
    coefficient variants) when ``size == k^{d-1}``, and the 2-D diagonal
    / antidiagonal shifts (the same size on ``T_k^2``).  Empty when no
    structured family matches — the caller then searches unseeded.
    """
    k, d = torus.k, torus.d
    if size != k ** (d - 1) or size < 2:
        return []
    from repro.placements.diagonal import (
        antidiagonal_placement_2d,
        shifted_diagonal_placement,
    )
    from repro.placements.linear import linear_placement

    coefficient_sets: list[list[int]] = [[1] * d]
    units = [c for c in range(2, k) if math.gcd(c, k) == 1][
        : _SCREEN_COEFFICIENT_VARIANTS
    ]
    coefficient_sets.extend([1] * (d - 1) + [c] for c in units)
    candidates = [
        linear_placement(torus, coefficients=coeffs, offset=offset)
        for coeffs in coefficient_sets
        for offset in range(k)
    ]
    if d == 2:
        candidates.extend(shifted_diagonal_placement(torus, s) for s in range(k))
        candidates.extend(antidiagonal_placement_2d(torus, s) for s in range(k))
    return candidates


def screen_initial_upper_bound(
    torus: Torus,
    size: int,
    batch_size: int | None = None,
) -> tuple[float, Placement] | None:
    """Batched incumbent seed for ``bound``-mode certification.

    Evaluates every structured candidate from
    :func:`_candidate_leaf_placements` in one
    :meth:`~repro.load.engine.LoadEngine.emax_many` block (shared
    spectral plan, one stacked transform per coset family) and returns
    the best ``(E_max, placement)`` — achievable by construction, so
    seeding :func:`exact_global_minimum` with it keeps the search exact
    while pruning at least as hard as the classic linear seed.  Returns
    ``None`` when no structured family matches ``size``.
    """
    candidates = _candidate_leaf_placements(torus, size)
    if not candidates:
        return None
    from repro.load.engine import LoadEngine
    from repro.routing.odr import OrderedDimensionalRouting

    emaxes = LoadEngine("fft").emax_many(
        candidates,
        OrderedDimensionalRouting(torus.d),
        batch_size=batch_size,
    )
    best = int(np.argmin(emaxes))
    return float(emaxes[best]), candidates[best]


# ----------------------------------------------------------------- driver


def _merge_partials(partials, histogram: dict[float, int], counters: dict):
    best = math.inf
    best_ids: np.ndarray | None = None
    orbit_total = 0
    for partial in partials:
        for value, count in partial["histogram"].items():
            histogram[value] = histogram.get(value, 0) + count
        for key, count in partial["counters"].items():
            counters[key] += count
        orbit_total += partial["orbit_total"]
        if partial["best_image_ids"] is not None and (
            best_ids is None or partial["best_value"] < best - _TOL
        ):
            best = partial["best_value"]
            best_ids = partial["best_image_ids"]
    return best, best_ids, orbit_total


def exact_global_minimum(
    torus: Torus,
    size: int,
    mode: str = "bound",
    processes: int | None = None,
    initial_upper_bound: float | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
    progress: bool | None = None,
) -> ExactSearchResult:
    """Exactly certify the minimum ODR :math:`E_{max}` over all placements.

    Parameters
    ----------
    torus, size:
        The certified space: all :math:`C(k^d, size)` placements.
    mode:
        ``"bound"`` (default) enables branch-and-bound pruning — exact
        minimum, ``num_optimal`` and witness, no histogram.  ``"full"``
        disables pruning and additionally returns the exact
        :math:`E_{max}` histogram over all placements and the orbit
        count (cross-checkable against
        :func:`repro.placements.catalog.global_minimum_emax`).
    processes:
        ``None`` (default) searches serially; an integer > 1 shards
        canonical subtree roots over a process pool.
    initial_upper_bound:
        Optional incumbent seed for ``bound`` mode — must be an
        :math:`E_{max}` actually achieved by some size-``size`` placement
        (e.g. the linear placement's).  A tighter seed prunes more;
        an unachievable seed below the true minimum raises
        :class:`~repro.errors.SearchError`.  When ``None`` the seed is
        derived automatically via :func:`screen_initial_upper_bound`,
        which batch-evaluates the structured candidate families (linear
        cosets, 2-D diagonals) in one ``emax_many`` block — achievable
        by construction, so the search stays exact.  Ignored in ``full``
        mode.
    checkpoint:
        Optional path to a :class:`repro.exec.CheckpointJournal` (JSONL).
        Completed subtree roots and their partial accumulators are
        persisted as they finish; giving a checkpoint forces the
        subtree-root decomposition even for a serial search so the
        journal has restartable units.
    resume:
        Resume from an existing ``checkpoint`` journal: journaled roots
        are merged from their stored partials without re-searching their
        subtrees.  The journal's fingerprint (torus, size, mode,
        incumbent seed) must match this call.
    progress:
        Emit throttled heartbeat lines to stderr while searching (leaf
        orbits, nodes expanded, prunes, incumbent).  ``None`` (default)
        enables heartbeats exactly when the ambient tracer is enabled.

    Raises
    ------
    InvalidParameterError
        For an invalid size/mode, a search space beyond
        :data:`MAX_EXACT_SEARCH`, or ``resume`` without ``checkpoint``.
    SearchError
        If the orbit accounting fails its :math:`C(k^d, n)` cross-check
        (``full`` mode), no placement beats ``initial_upper_bound``, or
        the resilient fan-out itself fails beyond recovery.
    """
    if mode not in ("full", "bound"):
        raise InvalidParameterError(
            f"mode must be 'full' or 'bound', got {mode!r}"
        )
    if not 1 <= size <= torus.num_nodes:
        raise InvalidParameterError(
            f"size must satisfy 1 <= size <= {torus.num_nodes}, got {size}"
        )
    space = math.comb(torus.num_nodes, size)
    if space > MAX_EXACT_SEARCH:
        raise InvalidParameterError(
            f"C({torus.num_nodes}, {size}) = {space} placements exceeds the "
            f"exact-search limit {MAX_EXACT_SEARCH}"
        )
    if resume and checkpoint is None:
        raise InvalidParameterError("resume=True requires a checkpoint path")
    if mode == "bound" and initial_upper_bound is None:
        screened = screen_initial_upper_bound(torus, size)
        upper = screened[0] if screened is not None else math.inf
    elif mode == "bound":
        upper = float(initial_upper_bound)
    else:
        upper = math.inf

    tracer = current_tracer()
    if progress is None:
        progress = bool(tracer.enabled)
    context = _SearchContext(torus, size, mode, upper, progress=progress)
    histogram: dict[float, int] = {}
    counters = dict.fromkeys(SearchCounters.__dataclass_fields__, 0)

    serial = processes is None or processes <= 1
    with tracer.span(
        "search.certify",
        k=torus.k,
        d=torus.d,
        size=size,
        mode=mode,
        space=space,
    ):
        if (serial and checkpoint is None) or size < 2:
            partials = [context.run_root(())]
        else:
            depth = min(_SPLIT_DEPTH, size - 1)
            frontier, shallow = context.collect_frontier(depth)
            partials = [shallow]
            if frontier:
                workers = 1 if serial else min(processes, len(frontier))
                journal = None
                if checkpoint is not None:
                    journal = CheckpointJournal(
                        checkpoint,
                        fingerprint={
                            "workload": "exact-search",
                            "k": torus.k,
                            "d": torus.d,
                            "size": size,
                            "mode": mode,
                            "upper": upper,
                            "split_depth": depth,
                        },
                        resume=resume,
                        encode=_encode_partial,
                        decode=_decode_partial,
                    )
                tasks = [
                    ExecTask(_root_task_id(root), root) for root in frontier
                ]
                executor = ResilientExecutor(
                    _run_subtree,
                    jobs=workers,
                    initializer=_init_worker,
                    initargs=(torus.k, torus.d, size, mode, upper, progress),
                    journal=journal,
                    label=f"exact-search[T_{torus.k}^{torus.d} n={size} {mode}]",
                )
                try:
                    outcome = executor.run(tasks)
                except ExecutionError as err:
                    raise SearchError(
                        f"exact search fan-out failed: {err} (backend "
                        f"'exact_search', {len(frontier)} subtree roots, "
                        f"{workers} workers)"
                    ) from err
                finally:
                    if journal is not None:
                        journal.close()
                partials.extend(outcome.in_task_order(tasks))

        best, best_ids, orbit_total = _merge_partials(
            partials, histogram, counters
        )

    if tracer.enabled:
        # one literal call per counter (not a dynamic f-string name) so the
        # exported metric namespace is statically enumerable — RL017.
        metrics = tracer.metrics
        metrics.counter("search.canonicity_checks").add(
            counters["canonicity_checks"]
        )
        metrics.counter("search.canonical_nodes").add(
            counters["canonical_nodes"]
        )
        metrics.counter("search.leaf_orbits").add(counters["leaf_orbits"])
        metrics.counter("search.variant_evaluations").add(
            counters["variant_evaluations"]
        )
        metrics.counter("search.pair_updates").add(counters["pair_updates"])
        metrics.counter("search.full_evaluations").add(
            counters["full_evaluations"]
        )
        metrics.counter("search.subtrees_pruned_emax").add(
            counters["subtrees_pruned_emax"]
        )
        metrics.counter("search.variants_dropped").add(
            counters["variants_dropped"]
        )
        metrics.counter("search.canonical_rejections").add(
            counters["canonicity_checks"] - counters["canonical_nodes"]
        )

    if best_ids is None:
        raise SearchError(
            f"no placement achieved E_max <= {upper:g}; "
            "initial_upper_bound must be achievable (at or above the true "
            "minimum)"
        )
    if mode == "full" and sum(histogram.values()) != space:
        raise SearchError(
            f"orbit accounting mismatch: histogram covers "
            f"{sum(histogram.values())} placements, expected {space}"
        )
    num_optimal = sum(
        count
        for value, count in histogram.items()
        if abs(value - best) <= _TOL
    )
    return ExactSearchResult(
        minimum_emax=best,
        num_placements=space,
        num_optimal=num_optimal,
        example_optimal=Placement(torus, best_ids, name="exact-optimal"),
        emax_histogram=histogram if mode == "full" else None,
        num_orbits=counters["leaf_orbits"] if mode == "full" else None,
        mode=mode,
        group_order=context.group.order,
        num_variants=context.num_variants,
        counters=SearchCounters(**counters),
    )
