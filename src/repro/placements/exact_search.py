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

**Blocks.**  The tree is walked depth first over *blocks*: runs of
same-depth canonical prefixes in lexicographic order, each with one
``(rows, edges)`` load array of its prefixes' surviving variants.  All
candidate children of a block are tested in one canonicity call, parent
by parent, so each parent's anchored image masks are summed once for all
its children (see
:meth:`~repro.placements.symmetry.AutomorphismGroup.canonicity`), and
:func:`repro.load.odr_loads.odr_edge_loads_add_delta` grows every
(canonical child, surviving variant of its parent) row by one gather of
ODR path-table rows and one ``bincount`` per chunk (below) —
:math:`O(|P|)` pair work per child instead of :math:`O(|P|^2)` per leaf;
the engine performs *zero* from-scratch placement evaluations.  A byte
cap keeps the scratch arrays in the heap memory the allocator reuses: a
block is split before its candidates' canonicity masks outgrow it, and
its rows grow in chunks of whole parents.  A block's subtrees are
searched before the blocks after it, so leaves are reached in
lexicographic order, as a prefix-by-prefix walk reaches them, and the
work counters, sums over prefixes, do not depend on the blocking.

**Climbing from the paper's lower bound.**  Because loads only ever
increase as processors are added, the partial :math:`E_{max}` of a
prefix lower-bounds every completion.  ``bound`` mode searches a ladder
of fixed upper bounds.  Eq. 6 (Blaum et al.) gives every placement
:math:`E_{max} \\ge \\lceil (n-1)/(2d) \\rceil`, so the first rung is
that bound, the next one more, and so on.  A rung at ``UB`` retires every
variant and subtree whose partial :math:`E_{max}` exceeds ``UB`` and never
moves ``UB``.  It either reaches placements at :math:`E_{max} \\le UB`
or reaches none, which proves that the minimum exceeds ``UB``.  Nothing
lies below the Eq. 6 rung or below a refuted rung, and ODR loads are
integers, so the first rung that reaches a placement certifies ``UB`` as
the exact minimum, with its exact ``num_optimal`` and a witness.  The
full histogram is only produced in ``full`` mode, which disables
pruning.  (A Lemma 1 separator bound :math:`2|S|(|P|-|S|)/|∂S|` on the
prefix was tried as a second prune; it never cut a subtree on any
certified torus, so the search does not pay for it.)

Each rung's subtree roots can be sharded over a process pool (per-worker
group tables installed once by the pool initializer).  The bound is fixed
within a rung, so pruning does not depend on which worker finishes first
and the work counters are identical at any process count.  The fan-out
runs through :class:`repro.exec.ResilientExecutor`, so worker crashes and
hangs are retried (and, past the retry budget, recomputed serially
in-process), and a :class:`repro.exec.CheckpointJournal` of completed
subtree roots makes multi-hour certifications restartable: ``repro
certify --checkpoint run.jsonl`` followed by ``--resume`` skips every
journaled root, refuted rungs' roots included, and merges its stored
partial accumulators instead of re-searching the subtree.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

# re-exported so the per-layer benchmark (benchmarks/e2e) can wrap it here
from repro.bisection.separator import separator_size  # noqa: F401
from repro.errors import ExecutionError, InvalidParameterError, SearchError
from repro.exec import (
    CheckpointJournal,
    ExecPolicy,
    ExecTask,
    ExecutionReport,
    ResilientExecutor,
)
from repro.load.formulas import blaum_lower_bound
from repro.load.odr_loads import odr_edge_loads_add_delta
from repro.load.plancache import current_plan_cache
from repro.obs.console import progress as _progress_line
from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.placements.catalog import block_emax
from repro.placements.symmetry import automorphism_group
from repro.routing.odr import OrderedDimensionalRouting
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays

__all__ = [
    "SearchCounters",
    "ExactSearchResult",
    "exact_global_minimum",
    "screen_initial_upper_bound",
    "MAX_EXACT_SEARCH",
]

#: refuse exact certification beyond this many candidate placements:
#: C(81, 9), the space of T_9^2 n=9, the largest instance certified.
MAX_EXACT_SEARCH = math.comb(81, 9)

#: split depth for process-pool sharding (subtree roots at this prefix size).
_SPLIT_DEPTH = 3

#: minimum seconds between progress heartbeats on stderr.
_HEARTBEAT_SECONDS = 5.0

#: extra linear-coefficient families screened per torus when capping the
#: bound-mode ladder (beyond the paper's all-ones default).
_SCREEN_COEFFICIENT_VARIANTS = 4

#: bytes of a block's scratch: its candidates' canonicity masks (two
#: ``(m+1, P, words)`` uint64 arrays live at once, 16·P·(m+1)·words
#: bytes per candidate) and one scatter's ``(rows, num_edges + 1)``
#: counts.  Smaller blocks make more calls, whose fixed cost the blocks
#: exist to share.  Larger ones stop reusing heap memory: in the fault
#: test's protocol a warm T_6² certify takes about 270–310 minor page
#: faults and a 1.4 MB traced peak at this cap (the count moves with
#: allocator history, even with the length of the import path); about
#: 1,000 faults and 2.3 MB at twice this cap; and 2,000 faults and 8 MB
#: when T_6²'s blocks are never split.
_BLOCK_BYTES = 3 << 16

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
    subtrees_pruned_emax:
        Subtrees cut because every variant's monotone partial
        :math:`E_{max}` exceeded the rung's bound.
    variants_dropped:
        Individual variants retired early (their partial :math:`E_{max}`
        alone exceeded the rung's bound).

    In ``bound`` mode every count is summed over the ladder's rungs.
    """

    canonicity_checks: int
    canonical_nodes: int
    leaf_orbits: int
    variant_evaluations: int
    pair_updates: int
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
    rungs:
        The ``bound``-mode ladder: ``(UB, nodes expanded)`` per rung
        searched, from the Eq. 6 rung up to the certifying one (empty in
        ``full`` mode).
    reports:
        One :class:`~repro.exec.ExecutionReport` per fanned-out search,
        in order (one per rung; empty for an undecomposed serial run).
        Ignored by ``==``, since it carries timings.
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
    rungs: tuple[tuple[float, int], ...]
    reports: tuple[ExecutionReport, ...] = field(compare=False, default=())


@dataclass(frozen=True)
class _Block:
    """Same-depth canonical prefixes, in lexicographic order, and the rows
    of their alive variants: prefix ``b`` owns rows
    ``offsets[b]:offsets[b + 1]``."""

    ids: np.ndarray  # (prefixes, m) node ids
    stabs: np.ndarray  # (prefixes,) stabilizer orders
    offsets: np.ndarray  # (prefixes + 1,)
    variants: np.ndarray  # (rows,) each row's variant index
    loads: np.ndarray  # (rows, num_edges)

    def prefixes(self, start: int, stop: int) -> _Block:
        """The block of prefixes ``start:stop`` and their rows."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return _Block(
            self.ids[start:stop],
            self.stabs[start:stop],
            self.offsets[start : stop + 1] - lo,
            self.variants[lo:hi],
            self.loads[lo:hi],
        )


class _SearchContext:
    """Per-process search state: group tables, rung bound, accumulators."""

    def __init__(
        self,
        torus: Torus,
        size: int,
        upper_bound: float,
        progress: bool = False,
    ):
        self.torus = torus
        self.size = size
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
        # the rung's fixed bound: variants and subtrees above it are
        # retired (inf in full mode, which prunes nothing).
        self.upper_bound = upper_bound
        # lifetime tallies survive take_partial() so heartbeats stay
        # cumulative across the many roots one worker processes.
        self.lifetime = dict.fromkeys(SearchCounters.__dataclass_fields__, 0)
        self._reset_partial()

    # ------------------------------------------------------- partial state

    def _reset_partial(self) -> None:
        self.histogram: dict[float, int] = {}
        self.best_value = math.inf
        self.best_image_ids: np.ndarray | None = None
        self.counters = dict.fromkeys(SearchCounters.__dataclass_fields__, 0)

    def take_partial(self) -> dict:
        """Detach and return the accumulated per-root results."""
        partial = {
            "best_value": self.best_value,
            "best_image_ids": self.best_image_ids,
            "histogram": self.histogram,
            "counters": self.counters,
        }
        for key, value in self.counters.items():
            self.lifetime[key] += value
        self._reset_partial()
        return partial

    # ------------------------------------------------------------- search

    def run_root(self, root: tuple[int, ...]) -> dict:
        """Search the subtree under one canonical prefix; return partials."""
        self._walk(self._seed(root), frontier=None)
        return self.take_partial()

    def collect_frontier(self, depth: int) -> tuple[list[tuple[int, ...]], dict]:
        """Canonical (pruned) prefixes at ``depth``, plus shallow partials."""
        frontier: list[tuple[int, ...]] = []
        self._walk(self._seed(()), frontier=(depth, frontier))
        return frontier, self.take_partial()

    def _seed(self, root: tuple[int, ...]) -> _Block:
        """The one-prefix block of a canonical ``root``.

        The prefix's loads are rebuilt (workers receive ids only) without
        being counted: the frontier pass that reached the root counted its
        growth already.
        """
        alive = np.arange(self.num_variants)
        loads = np.zeros(
            (self.num_variants, self.torus.num_edges), dtype=np.float64
        )
        for m, node in enumerate(root):
            grown = self._grow(root[:m], alive, loads, [node])
            keep = grown.max(axis=-1) <= self.upper_bound + _TOL
            alive, loads = alive[keep], grown[keep]
        stab = self.group.order
        if root:
            canonical, stab = self.group.canonicity(root)
            if not canonical:  # pragma: no cover - roots are always canonical
                raise SearchError(f"prefix {tuple(root)} is not canonical")
        return _Block(
            np.array(root, dtype=np.int64).reshape(1, len(root)),
            np.array([stab]),
            np.array([0, alive.size]),
            alive,
            loads,
        )

    def _grow(
        self,
        ids,
        alive: np.ndarray,
        loads: np.ndarray,
        nodes,
    ) -> np.ndarray:
        """One prefix's alive variants' loads, extended by each of ``nodes``.

        One path-table scatter covers all (child, variant) rows: the
        prefix's ``(variants, edges)`` loads broadcast over the children.
        Returns ``(children · variants, edges)`` loads, child-major.
        """
        images = self.variant_coords[alive]
        grown = odr_edge_loads_add_delta(
            self.torus,
            loads,
            images[:, np.array(ids, dtype=np.int64)],
            images[:, nodes].swapaxes(0, 1),
        )
        return grown.reshape(-1, loads.shape[-1])

    def _walk(
        self,
        block: _Block,
        frontier: tuple[int, list[tuple[int, ...]]] | None,
    ) -> None:
        """Depth-first search of the subtrees under ``block``'s prefixes.

        The stack holds blocks, each lexicographically below the ones
        beneath it, so leaves (and frontier roots) come out in the order
        a prefix-by-prefix walk reaches them.
        """
        stack = [block]
        while stack:
            block = stack.pop()
            if self.progress:
                self._heartbeat()
            m = block.ids.shape[1]
            if m == self.size:
                ends = block.offsets.tolist()
                for ids, stab, lo, hi in zip(
                    block.ids.tolist(), block.stabs.tolist(), ends, ends[1:]
                ):
                    self._leaf(
                        tuple(ids),
                        block.variants[lo:hi],
                        block.loads[lo:hi],
                        stab,
                    )
                continue
            if frontier is not None and m == frontier[0]:
                frontier[1].extend(map(tuple, block.ids.tolist()))
                continue
            # candidate children: ids[-1] + 1 ... N - (n - m), at least one
            # per prefix, since its last node was at most N - (n - m) - 1
            lower = block.ids[:, -1] + 1 if m else np.zeros(1, dtype=np.int64)
            counts = self.torus.num_nodes - (self.size - m) + 1 - lower
            if counts.size > 1:
                # expand the longest head whose candidates' canonicity
                # masks fit the cap (one prefix at least); the tail waits
                masks = 16 * self.group.point_order * (m + 1)
                limit = _BLOCK_BYTES // (masks * self.group.mask_words)
                cut = max(1, int(counts.cumsum().searchsorted(limit, "right")))
                if cut < counts.size:
                    stack.append(block.prefixes(cut, counts.size))
                    block = block.prefixes(0, cut)
                    lower, counts = lower[:cut], counts[:cut]
            child = self._expand(block, lower, counts)
            if child is not None:
                stack.append(child)

    def _expand(
        self, block: _Block, lower: np.ndarray, counts: np.ndarray
    ) -> _Block | None:
        """The block of ``block``'s canonical children still within the rung.

        Prefix ``b`` has the ``counts[b]`` candidates ``lower[b], ...``.
        """
        m = block.ids.shape[1]
        parents = np.arange(counts.size).repeat(counts)
        self.counters["canonicity_checks"] += int(parents.size)
        # every candidate child of the block is tested in one call
        children = np.empty((parents.size, m + 1), dtype=np.int64)
        children[:, :m] = block.ids[parents]
        children[:, m] = np.arange(parents.size) + (
            lower + counts - counts.cumsum()
        )[parents]
        canonical, stabs = self.group.canonicity(children)
        parents, children, stabs = (
            parents[canonical],
            children[canonical],
            stabs[canonical],
        )
        self.counters["canonical_nodes"] += int(parents.size)
        if parents.size == 0:
            return None
        # ... and grows with each alive variant of its parent, one row per
        # (child, variant), as few scatters as keep their counts in the cap
        sizes = (block.offsets[1:] - block.offsets[:-1])[parents]
        pieces = []
        chunk = _BLOCK_BYTES // (8 * (self.torus.num_edges + 1))
        for lo, hi in _chunks(parents, sizes, chunk):
            grown, variants = self._grow_rows(
                block, parents[lo:hi], children[lo:hi], sizes[lo:hi]
            )
            keep = grown.max(axis=-1) <= self.upper_bound + _TOL
            # each child's rows left within the rung
            left = np.add.reduceat(keep, sizes[lo:hi].cumsum() - sizes[lo:hi])
            kids = left > 0
            kept_rows = int(np.count_nonzero(keep))
            kept_kids = int(np.count_nonzero(kids))
            self.counters["pair_updates"] += 2 * m * keep.size
            self.counters["variants_dropped"] += keep.size - kept_rows
            self.counters["subtrees_pruned_emax"] += kids.size - kept_kids
            if kept_kids:
                pieces.append(
                    (
                        children[lo:hi][kids],
                        stabs[lo:hi][kids],
                        left[kids],
                        variants[keep],
                        grown[keep],
                    )
                )
        if not pieces:
            return None
        ids, stabs, left, variants, loads = (
            pieces[0]
            if len(pieces) == 1
            else (np.concatenate(part) for part in zip(*pieces))
        )
        offsets = np.zeros(left.size + 1, dtype=np.int64)
        left.cumsum(out=offsets[1:])
        return _Block(ids, stabs, offsets, variants, loads)

    def _grow_rows(
        self,
        block: _Block,
        parents: np.ndarray,
        children: np.ndarray,
        sizes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Loads of every (child, alive variant of its parent) row.

        ``children[i]`` extends prefix ``parents[i]`` of ``block`` and
        takes its ``sizes[i]`` rows.  One path-table scatter covers all
        rows; returns their ``(rows, edges)`` loads and variant indices.
        """
        m = block.ids.shape[1]
        if parents[0] == parents[-1]:
            # one parent: its (variants, edges) loads broadcast over the
            # children instead of being copied for each
            parent = parents[0]
            rows = slice(block.offsets[parent], block.offsets[parent + 1])
            variants = block.variants[rows]
            grown = self._grow(
                children[0, :m], variants, block.loads[rows], children[:, m]
            )
            return grown, np.tile(variants, parents.size)
        kid = np.arange(parents.size).repeat(sizes)
        first = block.offsets[parents] - sizes.cumsum() + sizes
        rows = np.arange(kid.size) + first.repeat(sizes)
        variants = block.variants[rows]
        images = self.variant_coords[variants[:, None], children[kid]]
        grown = odr_edge_loads_add_delta(
            self.torus, block.loads[rows], images[:, :m], images[:, m]
        )
        return grown, variants

    def _leaf(
        self,
        ids: tuple[int, ...],
        alive: np.ndarray,
        loads: np.ndarray,
        stab: int,
    ) -> None:
        self.counters["leaf_orbits"] += 1
        self.counters["variant_evaluations"] += int(alive.size)
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

    def _heartbeat(self) -> None:
        """Throttled progress line to stderr (cumulative tallies)."""
        now = time.monotonic()
        if now - self._last_heartbeat < _HEARTBEAT_SECONDS:
            return
        self._last_heartbeat = now

        def tally(key: str) -> int:
            return self.lifetime[key] + self.counters[key]

        pruned = tally("subtrees_pruned_emax")
        rung = (
            "full mode"
            if math.isinf(self.upper_bound)
            else f"rung E_max <= {self.upper_bound:g}"
        )
        _progress_line(
            f"exact-search T_{self.torus.k}^{self.torus.d} n={self.size}: "
            f"{tally('leaf_orbits')} leaf orbits, "
            f"{tally('canonical_nodes')} nodes expanded, "
            f"{pruned} subtrees pruned, {rung}"
        )


def _chunks(
    parents: np.ndarray, sizes: np.ndarray, limit: int
) -> Iterator[tuple[int, int]]:
    """Ranges of the sorted ``parents`` that split no parent, each with
    ``sizes`` summing to at most ``limit`` unless one parent exceeds it."""
    ends = sizes.cumsum()
    if ends[-1] <= limit or parents[0] == parents[-1]:
        yield 0, parents.size
        return
    bounds = np.flatnonzero(np.diff(parents, prepend=-1))
    before = np.append(ends[bounds - 1], ends[-1])
    before[0] = 0
    bounds = np.append(bounds, parents.size)
    i = 0
    while i + 1 < bounds.size:
        j = int(before.searchsorted(before[i] + limit, "right")) - 1
        j = max(i + 1, j)
        yield int(bounds[i]), int(bounds[j])
        i = j


# --------------------------------------------------------- multiprocessing

_WORKER_CTX: _SearchContext | None = None


def _init_worker(
    k: int,
    d: int,
    size: int,
    upper_bound: float,
    progress: bool = False,
) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _SearchContext(Torus(k, d), size, upper_bound, progress)


def _run_subtree(root: tuple[int, ...]) -> dict:
    assert _WORKER_CTX is not None
    return _WORKER_CTX.run_root(tuple(root))


# ------------------------------------------------------------ checkpointing


def _root_task_id(upper: float, root: tuple[int, ...]) -> str:
    """Stable journal id of one canonical subtree root of one rung."""
    return f"rung{upper:g}/root-" + ".".join(str(int(node)) for node in root)


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
        # journals from older versions may carry retired counters (the
        # separator prune's), which merge as nothing, and an orbit total
        # beside them, which is not read
        "counters": {
            str(key): int(val)
            for key, val in data["counters"].items()
            if key in SearchCounters.__dataclass_fields__
        },
    }


# -------------------------------------------------------- ladder capping


def _screen_rows(
    torus: Torus, size: int
) -> tuple[np.ndarray, list[Callable[[int], Placement]]] | None:
    """Structured size-``size`` placements worth screening as ladder caps.

    Only shapes the paper gives closed forms for: the linear families of
    Definition 10 (all ``k`` offsets of all-ones coefficients plus a few
    coefficient variants) when ``size == k^{d-1}``, and the 2-D diagonal
    / antidiagonal shifts (the same size on ``T_k^2``).  Returns every
    candidate's sorted ids, family by family and ``k`` offsets each, and
    one constructor per family that builds the placement of an offset.
    ``None`` when no structured family matches — the caller then climbs
    uncapped.

    Each family is a coefficient vector ``c`` with a unit entry, so each
    offset ``s`` has ``k^{d-1}`` nodes ``p`` with ``c·p ≡ s``; a stable
    sort of the nodes by ``c·p mod k`` lists every offset's ids in order.
    """
    k, d = torus.k, torus.d
    if size != k ** (d - 1) or size < 2:
        return None
    from repro.placements.diagonal import (
        antidiagonal_placement_2d,
        shifted_diagonal_placement,
    )
    from repro.placements.linear import linear_placement

    units = [c for c in range(2, k) if math.gcd(c, k) == 1][
        : _SCREEN_COEFFICIENT_VARIANTS
    ]
    families: list[tuple[list[int], Callable[[int], Placement]]] = [
        (coeffs, functools.partial(linear_placement, torus, coeffs))
        for coeffs in [[1] * d] + [[1] * (d - 1) + [c] for c in units]
    ]
    if d == 2:
        families.append(
            ([1, 1], functools.partial(shifted_diagonal_placement, torus))
        )
        # {(i, i + s)}: the coefficients (-1, 1) at offset s
        families.append(
            ([-1, 1], functools.partial(antidiagonal_placement_2d, torus))
        )
    coords = torus.all_node_coords()
    ids = np.concatenate(
        [
            np.argsort((coords @ coeffs) % k, kind="stable").reshape(k, size)
            for coeffs, _ in families
        ]
    )
    return ids, [build for _, build in families]


def screen_initial_upper_bound(
    torus: Torus, size: int
) -> tuple[float, Placement] | None:
    """Ladder cap for ``bound``-mode certification.

    Scores every structured candidate from :func:`_screen_rows` in one
    :func:`~repro.placements.catalog.block_emax` block on the ODR path
    table (one gather, one scatter, a row max) and returns the best
    ``(E_max, placement)``, the first candidate among equals, whose
    placement alone is built, by its family's constructor — achievable
    by construction, so passing it as :func:`exact_global_minimum`'s
    ``initial_upper_bound`` caps the ladder at a rung that is sure to
    certify.  Returns ``None`` when no structured family matches
    ``size``.
    """
    screen = _screen_rows(torus, size)
    if screen is None:
        return None
    ids, builders = screen
    routing = OrderedDimensionalRouting(torus.d)
    table = current_plan_cache().get(torus, routing).table
    emaxes = block_emax(table, ids, ordered_pair_index_arrays(size))
    best = int(np.argmin(emaxes))
    family, offset = divmod(best, torus.k)
    return float(emaxes[best]), builders[family](offset)


# ----------------------------------------------------------------- driver


def _merge_partials(partials, histogram: dict[float, int], counters: dict):
    best = math.inf
    best_ids: np.ndarray | None = None
    for partial in partials:
        for value, count in partial["histogram"].items():
            histogram[value] = histogram.get(value, 0) + count
        for key, count in partial["counters"].items():
            counters[key] += count
        if partial["best_image_ids"] is not None and (
            best_ids is None or partial["best_value"] < best - _TOL
        ):
            best = partial["best_value"]
            best_ids = partial["best_image_ids"]
    return best, best_ids


def _search_rung(
    context: _SearchContext,
    upper: float,
    processes: int | None,
    journal: CheckpointJournal | None,
    decompose: bool,
    policy: ExecPolicy | None,
    reports: list[ExecutionReport],
) -> list[dict]:
    """Partials of one search at the fixed bound ``upper``.

    Undecomposed runs search the whole tree from the empty prefix.
    Otherwise the frontier at the split depth is collected here and its
    roots fan out through one :class:`ResilientExecutor` per rung, whose
    report is appended to ``reports``.
    """
    context.upper_bound = upper
    if not decompose:
        return [context.run_root(())]
    torus, size = context.torus, context.size
    frontier, shallow = context.collect_frontier(min(_SPLIT_DEPTH, size - 1))
    if not frontier:
        return [shallow]
    serial = processes is None or processes <= 1
    workers = 1 if serial else min(processes, len(frontier))
    tasks = [ExecTask(_root_task_id(upper, root), root) for root in frontier]
    executor = ResilientExecutor(
        _run_subtree,
        jobs=workers,
        initializer=_init_worker,
        initargs=(torus.k, torus.d, size, upper, context.progress),
        policy=policy,
        journal=journal,
        label=(
            f"exact-search[T_{torus.k}^{torus.d} n={size} E_max<={upper:g}]"
        ),
    )
    try:
        outcome = executor.run(tasks)
    except ExecutionError as err:
        raise SearchError(
            f"exact search fan-out failed: {err} (backend "
            f"'exact_search', {len(frontier)} subtree roots, "
            f"{workers} workers)"
        ) from err
    reports.append(outcome.report)
    return [shallow, *outcome.in_task_order(tasks)]


def exact_global_minimum(
    torus: Torus,
    size: int,
    mode: str = "bound",
    processes: int | None = None,
    initial_upper_bound: float | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
    progress: bool | None = None,
    policy: ExecPolicy | None = None,
) -> ExactSearchResult:
    """Exactly certify the minimum ODR :math:`E_{max}` over all placements.

    Parameters
    ----------
    torus, size:
        The certified space: all :math:`C(k^d, size)` placements.
    mode:
        ``"bound"`` (default) climbs the ladder of fixed bounds from
        Eq. 6's :math:`\\lceil (n-1)/(2d) \\rceil` — exact minimum,
        ``num_optimal`` and witness, no histogram.  ``"full"`` disables
        pruning and additionally returns the exact :math:`E_{max}`
        histogram over all placements and the orbit count
        (cross-checkable against
        :func:`repro.placements.catalog.global_minimum_emax`).
    processes:
        ``None`` (default) searches serially; an integer > 1 shards each
        rung's canonical subtree roots over a process pool.
    initial_upper_bound:
        The ladder's top rung in ``bound`` mode: the highest bound tried,
        not a pruning seed (each rung prunes at its own bound).  A value
        actually achieved by some size-``size`` placement, such as
        :func:`screen_initial_upper_bound`'s, is sure to be reached;
        when every rung up to it is refuted,
        :class:`~repro.errors.SearchError` is raised.  ``None`` climbs
        uncapped.  Ignored in ``full`` mode.
    checkpoint:
        Optional path to a :class:`repro.exec.CheckpointJournal` (JSONL).
        Completed subtree roots of every rung and their partial
        accumulators are persisted as they finish; giving a checkpoint
        forces the subtree-root decomposition even for a serial search so
        the journal has restartable units.
    resume:
        Resume from an existing ``checkpoint`` journal: journaled roots
        are merged from their stored partials without re-searching their
        subtrees.  The journal's fingerprint (torus, size, mode, ladder)
        must match this call.
    progress:
        Emit throttled heartbeat lines to stderr while searching (leaf
        orbits, nodes expanded, prunes, rung).  ``None`` (default)
        enables heartbeats exactly when the ambient tracer is enabled.
    policy:
        The :class:`~repro.exec.ExecPolicy` (retries, deadline, chaos)
        of every subtree-root fan-out; ``None`` uses ``ExecPolicy()``.
        Each fan-out's report comes back on
        :attr:`ExactSearchResult.reports`.

    Raises
    ------
    InvalidParameterError
        For an invalid size/mode, a search space beyond
        :data:`MAX_EXACT_SEARCH`, or ``resume`` without ``checkpoint``.
    SearchError
        If the orbit accounting fails its :math:`C(k^d, n)` cross-check
        (``full`` mode), every rung up to ``initial_upper_bound`` is
        refuted, or the resilient fan-out itself fails beyond recovery.
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
    # bound mode climbs from Eq. 6's bound, one step at a time, to the cap
    first = math.ceil(blaum_lower_bound(size, torus.d))
    cap = math.inf
    if initial_upper_bound is not None:
        cap = float(initial_upper_bound)
    rungs: Iterable[float] = ()
    ladder = None
    if mode == "bound":
        rungs = itertools.takewhile(
            lambda upper: upper <= cap + _TOL, itertools.count(float(first))
        )
        ladder = [first, None if math.isinf(cap) else cap]

    tracer = current_tracer()
    if progress is None:
        progress = bool(tracer.enabled)
    context = _SearchContext(torus, size, math.inf, progress=progress)
    histogram: dict[float, int] = {}
    counters = dict.fromkeys(SearchCounters.__dataclass_fields__, 0)
    searched: list[tuple[float, int]] = []
    reports: list[ExecutionReport] = []
    best, best_ids = math.inf, None

    serial = processes is None or processes <= 1
    decompose = size >= 2 and not (serial and checkpoint is None)
    journal = None
    if decompose and checkpoint is not None:
        journal = CheckpointJournal(
            checkpoint,
            fingerprint={
                "workload": "exact-search",
                "k": torus.k,
                "d": torus.d,
                "size": size,
                "mode": mode,
                "ladder": ladder,
                "split_depth": min(_SPLIT_DEPTH, size - 1),
            },
            resume=resume,
            encode=_encode_partial,
            decode=_decode_partial,
        )
    try:
        with tracer.span(
            "search.certify",
            k=torus.k,
            d=torus.d,
            size=size,
            mode=mode,
            space=space,
        ):
            if mode == "full":
                partials = _search_rung(
                    context, math.inf, processes, journal, decompose,
                    policy, reports,
                )
                best, best_ids = _merge_partials(
                    partials, histogram, counters
                )
            for upper in rungs:
                before = counters["canonical_nodes"]
                with tracer.span("search.rung", ub=upper) as span:
                    partials = _search_rung(
                        context, upper, processes, journal, decompose,
                        policy, reports,
                    )
                    best, best_ids = _merge_partials(
                        partials, histogram, counters
                    )
                    nodes = counters["canonical_nodes"] - before
                    span.annotate(
                        outcome="refuted" if best_ids is None else "certified",
                        canonical_nodes=nodes,
                    )
                searched.append((upper, nodes))
                if best_ids is not None:
                    break

        if tracer.enabled:
            # one literal call per counter (not a dynamic f-string name) so
            # the exported metric namespace is statically enumerable — RL017.
            metrics = tracer.metrics
            metrics.counter("search.canonicity_checks").add(
                counters["canonicity_checks"]
            )
            metrics.counter("search.canonical_nodes").add(
                counters["canonical_nodes"]
            )
            metrics.counter("search.leaf_orbits").add(
                counters["leaf_orbits"]
            )
            metrics.counter("search.variant_evaluations").add(
                counters["variant_evaluations"]
            )
            metrics.counter("search.pair_updates").add(
                counters["pair_updates"]
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
                f"no placement achieved E_max <= {cap:g} (Eq. 6 bounds the "
                f"minimum below by {first}; {len(searched)} rungs refuted); "
                "initial_upper_bound must be achievable (at or above the "
                "true minimum)"
            )
        if mode == "full" and sum(histogram.values()) != space:
            raise SearchError(
                f"orbit accounting mismatch: histogram covers "
                f"{sum(histogram.values())} placements, expected {space}"
            )
    except SearchError as err:
        err.reports = tuple(reports)
        raise
    finally:
        if journal is not None:
            journal.close()

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
        rungs=tuple(searched),
        reports=tuple(reports),
    )
