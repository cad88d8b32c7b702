"""The built-in rule set: repo-specific invariants RL001–RL017.

Each rule generalizes a bug class this repository has actually hit (see
``docs/STATIC_ANALYSIS.md`` for the catalogue and the PR-1 incidents the
first five rules grew out of).  Rules are heuristics, not proofs — the
``# repro: noqa(CODE)`` escape hatch exists precisely for the sites where
a human can certify the invariant holds.

RL001–RL010 are (mostly) single-file pattern matchers; RL011–RL015 are
built on :mod:`repro.devtools.lint.semantics` — they resolve names
through the file's imports (``ctx.resolve``), follow re-export chains
through the project, and run CFG-based taint analyses.  RL004, RL009,
and RL010 were retrofitted onto the same resolver, so renamed imports
(``from repro.load.edge_loads import edge_loads_reference as oracle``)
no longer slip past them.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint import FileContext, Finding, Rule, register
from repro.devtools.lint.semantics import (
    FunctionScopes,
    GlobalUsage,
    TaintAnalysis,
    run_taint,
)

__all__ = [
    "FloorOnLoadExpression",
    "UnguardedDivision",
    "RoutingMissingInvarianceFlag",
    "LoadFacadeBypass",
    "ConstructorSkipsValidation",
    "UnusedImport",
    "MutableDefaultArgument",
    "FullLoadEvalInLoop",
    "DirectPoolConstruction",
    "WallClockOrPrintInLibrary",
    "AmbientRNG",
    "NondetIterationIntoSink",
    "ExactnessTaint",
    "ExecutorWorkerPurity",
    "SpanOutsideWith",
    "PerPlacementLoopEval",
    "DynamicTelemetryName",
]

#: identifier fragments that mark a value as a real-valued load figure —
#: flooring these silently truncates Definition-4/5 quantities (the PR-1
#: ``LinkCountSummary.normalized`` bug class).
_LOAD_KEYWORDS = (
    "load",
    "ratio",
    "bound",
    "emax",
    "frac",
    "weight",
    "prob",
    "latency",
)

#: denominator spellings that are known nonzero mathematical constants.
_NONZERO_CONSTANTS = frozenset(
    {"np.pi", "numpy.pi", "math.pi", "math.tau", "math.e"}
)

#: the load-engine internals that must only be reached through the
#: :class:`repro.load.engine.LoadEngine` facade.
_ENGINE_INTERNALS = frozenset(
    {
        "edge_loads_reference",
        "ReferenceBackend",
        "VectorizedBackend",
        "FFTBackend",
        "DisplacementBackend",
    }
)


def _identifiers(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_loadlike(name: str) -> bool:
    lowered = name.lower()
    return any(key in lowered for key in _LOAD_KEYWORDS)


def _is_floor_call(node: ast.Call) -> bool:
    """``math.floor(...)`` / ``np.floor(...)`` / bare ``floor(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "floor"
    if isinstance(func, ast.Attribute):
        return func.attr == "floor"
    return False


@register
class FloorOnLoadExpression(Rule):
    """RL001 — ``//`` or ``floor`` applied to a load/ratio/bound value.

    Loads, linearity ratios, and the Eq. 6/8/9 bounds are rationals;
    flooring them silently truncates (PR 1's
    ``LinkCountSummary.normalized`` bug).  Index/count arithmetic such as
    ``m // 2`` ring splits is whitelisted by the identifier heuristic:
    only expressions that *mention* a load-like identifier (or assign to
    one) are flagged.
    """

    code = "RL001"
    summary = "floor-division/floor() on a load, ratio, or bound expression"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        reported: set[tuple[int, int]] = set()

        def flag(node: ast.AST, detail: str) -> Iterator[Finding]:
            key = (node.lineno, node.col_offset)
            if key not in reported:
                reported.add(key)
                yield self.finding(
                    ctx,
                    node,
                    f"{detail} — loads and bounds are rationals; use true "
                    "division (or suppress with `# repro: noqa(RL001)` if "
                    "this is genuinely integral)",
                )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
                if any(_is_loadlike(name) for name in _identifiers(node)):
                    yield from flag(
                        node,
                        f"floor division in `{ctx.segment(node)}` involves a "
                        "load-like value",
                    )
            elif isinstance(node, ast.Call) and _is_floor_call(node):
                if any(
                    _is_loadlike(name)
                    for arg in node.args
                    for name in _identifiers(arg)
                ):
                    yield from flag(
                        node,
                        f"`{ctx.segment(node)}` floors a load-like value",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                else:
                    targets = [node.target]
                if node.value is None or not any(
                    _is_loadlike(name)
                    for target in targets
                    for name in _identifiers(target)
                ):
                    continue
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.BinOp) and isinstance(
                        sub.op, ast.FloorDiv
                    ):
                        yield from flag(
                            sub,
                            "floor division assigned to a load-like name "
                            f"(`{ctx.segment(node)}`)",
                        )
                    elif isinstance(sub, ast.Call) and _is_floor_call(sub):
                        yield from flag(
                            sub,
                            "floor() result assigned to a load-like name "
                            f"(`{ctx.segment(node)}`)",
                        )


class _ScopeGuards:
    """Guard expressions visible inside one function (or module) scope."""

    def __init__(self, inherited: tuple[str, ...] = ()):
        self.texts: list[str] = list(inherited)

    def add(self, text: str) -> None:
        if text:
            self.texts.append(text)

    def covers(self, denominator_text: str) -> bool:
        # Word-boundary match so a denominator `k` is not "guarded" by an
        # unrelated `if link:` test.
        pattern = re.compile(
            rf"(?<![\w.]){re.escape(denominator_text)}(?![\w(])"
        )
        return any(pattern.search(guard) for guard in self.texts)


@register
class UnguardedDivision(Rule):
    """RL002 — division by a bare name with no visible zero guard.

    Scoped to the numeric hot paths (``repro.load``, ``repro.bisection``,
    ``repro.sim``) where a zero denominator is a latent
    ``ZeroDivisionError`` (PR 1's empty-path-set crash class).  A
    denominator counts as guarded when the enclosing function mentions it
    in any ``if``/``while``/``assert``/ternary test, comprehension
    filter, or ``max``/``min`` clamp.  Modulus is deliberately out of
    scope: ``x % k`` by a validated radix is the codebase's cyclic
    bread-and-butter and never reaches zero past construction.
    """

    code = "RL002"
    summary = "division without a zero guard in a load/bisection/sim hot path"

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file:
            return False
        return any(
            ctx.in_package(pkg) for pkg in ("load", "bisection", "sim")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_scope(ctx, ctx.tree.body, _ScopeGuards())

    # ------------------------------------------------------------ helpers

    def _check_scope(
        self,
        ctx: FileContext,
        body: list[ast.stmt],
        inherited: _ScopeGuards,
    ) -> Iterator[Finding]:
        guards = _ScopeGuards(tuple(inherited.texts))
        nested: list[list[ast.stmt]] = []
        divisions: list[ast.BinOp] = []
        for node in self._walk_shallow(body, nested):
            if isinstance(node, (ast.If, ast.While)):
                guards.add(ctx.segment(node.test))
            elif isinstance(node, ast.IfExp):
                guards.add(ctx.segment(node.test))
            elif isinstance(node, ast.Assert):
                guards.add(ctx.segment(node.test))
            elif isinstance(node, ast.comprehension):
                for cond in node.ifs:
                    guards.add(ctx.segment(cond))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("max", "min"):
                    for arg in node.args:
                        guards.add(ctx.segment(arg))
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Div, ast.FloorDiv)
            ):
                divisions.append(node)
        for division in divisions:
            key = self._denominator_key(ctx, division.right)
            if key is None:
                continue
            if guards.covers(key):
                continue
            yield self.finding(
                ctx,
                division,
                f"division by `{ctx.segment(division.right)}` has no zero "
                "guard in this scope — raise a descriptive error or clamp "
                "before dividing",
            )
        for sub_body in nested:
            yield from self._check_scope(ctx, sub_body, guards)

    @staticmethod
    def _walk_shallow(
        body: list[ast.stmt], nested: list[list[ast.stmt]]
    ) -> Iterator[ast.AST]:
        """Walk statements without descending into nested def/class bodies."""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                nested.append(node.body)
                # decorators/defaults still belong to the outer scope
                stack.extend(ast.iter_child_nodes(node))
                for child in node.body:
                    if child in stack:
                        stack.remove(child)
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _denominator_key(
        self, ctx: FileContext, denom: ast.expr
    ) -> str | None:
        """The text to look for in guards, or ``None`` when exempt."""
        if isinstance(denom, ast.Constant):
            if denom.value == 0:
                return str(denom.value)  # certain bug; nothing can guard it
            return None
        if isinstance(denom, ast.Name):
            return denom.id
        if isinstance(denom, ast.Attribute):
            text = ctx.segment(denom)
            if text in _NONZERO_CONSTANTS:
                return None
            return text
        if (
            isinstance(denom, ast.Call)
            and isinstance(denom.func, ast.Name)
            and denom.func.id == "len"
            and len(denom.args) == 1
        ):
            return ctx.segment(denom.args[0])
        return None


@register
class RoutingMissingInvarianceFlag(Rule):
    """RL003 — a direct ``RoutingAlgorithm`` subclass with no explicit
    ``translation_invariant`` declaration.

    The displacement-class cache dispatches on this flag; inheriting the
    base default silently (PR 1's missing declaration) either forfeits
    the cache or — worse, if the default ever changed — corrupts loads
    for non-invariant routings.  Direct subclasses must state the flag;
    deeper subclasses inherit an explicit ancestor value.
    """

    code = "RL003"
    summary = "RoutingAlgorithm subclass missing translation_invariant"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._bases_routing_algorithm(node):
                continue
            if self._declares_flag(node):
                continue
            yield self.finding(
                ctx,
                node,
                f"routing class `{node.name}` subclasses RoutingAlgorithm "
                "directly but does not declare `translation_invariant` — "
                "state it explicitly (the displacement cache dispatches on "
                "this flag)",
            )

    @staticmethod
    def _bases_routing_algorithm(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else None
            if name is None and isinstance(base, ast.Attribute):
                name = base.attr
            if name == "RoutingAlgorithm":
                return True
        return False

    @staticmethod
    def _declares_flag(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "translation_invariant"
                    ):
                        return True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "translation_invariant"
                ):
                    return True
        return False


@register
class LoadFacadeBypass(Rule):
    """RL004 — load-engine internals referenced outside ``repro.load``.

    ``edge_loads_reference`` and the backend classes are implementation
    details of the :class:`repro.load.engine.LoadEngine` facade; code
    that imports them directly bypasses backend selection, the default
    engine, and future sharding/caching policy.  Tests are exempt — the
    cross-check suites *must* reach the oracle directly.

    Resolver-backed: a renamed import (``from repro.load.edge_loads
    import edge_loads_reference as oracle``) is seen through, and a
    local class that merely *shares* a backend's name no longer
    false-positives when its definition is resolvable elsewhere.
    """

    code = "RL004"
    summary = "direct use of load-engine internals outside repro.load"

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file:
            return False
        if ctx.in_package("load") or ctx.in_package("devtools"):
            return False
        return True

    @staticmethod
    def _internal_qname(qname: str) -> bool:
        leaf = qname.rsplit(".", 1)[-1]
        return qname.startswith("repro.load.") and leaf in _ENGINE_INTERNALS

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        reported: set[int] = set()

        def flag(node: ast.AST, name: str) -> Iterator[Finding]:
            if node.lineno not in reported:
                reported.add(node.lineno)
                yield self.finding(
                    ctx,
                    node,
                    f"`{name}` is a load-engine internal — go through "
                    "`repro.load.engine.LoadEngine` (e.g. "
                    "`LoadEngine('reference').edge_loads(...)`) instead",
                )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    origin = ctx.resolver.bindings.get(bound)
                    canonical = (
                        ctx.project.canonical(origin)
                        if origin is not None and ctx.project is not None
                        else origin
                    )
                    if canonical is not None and self._internal_qname(
                        canonical
                    ):
                        yield from flag(node, alias.name)
                    elif canonical is None and alias.name in _ENGINE_INTERNALS:
                        yield from flag(node, alias.name)
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if isinstance(node, ast.Name) and not isinstance(
                    node.ctx, ast.Load
                ):
                    continue
                qname = ctx.resolve(node)
                leaf = node.attr if isinstance(node, ast.Attribute) else node.id
                if qname is not None:
                    if self._internal_qname(qname):
                        yield from flag(node, qname.rsplit(".", 1)[-1])
                elif leaf in _ENGINE_INTERNALS:
                    yield from flag(node, leaf)


@register
class ConstructorSkipsValidation(Rule):
    """RL005 — a public torus/mixedradix constructor with no
    ``repro.util.validation`` call.

    Parameter checks live in :mod:`repro.util.validation` so error
    messages stay uniform and tests pin one behaviour; inline ``raise``
    statements drift.  Any public class under ``repro.torus`` or
    ``repro.mixedradix`` that defines ``__init__`` must call a
    ``check_*`` helper (directly or via ``validation.check_*``).
    """

    code = "RL005"
    summary = "torus/mixedradix constructor skips repro.util.validation"

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file:
            return False
        return ctx.in_package("torus") or ctx.in_package("mixedradix")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            init = next(
                (
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            if self._calls_validator(init):
                continue
            yield self.finding(
                ctx,
                init,
                f"`{node.name}.__init__` never calls a "
                "`repro.util.validation` `check_*` helper — centralize its "
                "parameter checks there",
            )

    @staticmethod
    def _calls_validator(init: ast.FunctionDef) -> bool:
        for node in ast.walk(init):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name is not None and name.startswith("check_"):
                return True
        return False


@register
class UnusedImport(Rule):
    """RL006 — an imported name never used in the module.

    ``__future__`` imports, ``__init__.py`` re-exports, and ``conftest``
    fixture plumbing are exempt; a string constant equal to the name
    (``__all__`` entries) counts as a use.  Flake8-style ``# noqa`` on
    the import line is honored too, so side-effect imports marked for
    ecosystem tools don't need a second pragma.
    """

    code = "RL006"
    summary = "unused import"

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_init_file and ctx.path.name != "conftest.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imported: list[tuple[str, ast.stmt]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    imported.append((bound, node))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imported.append((alias.asname or alias.name, node))
        if not imported:
            return
        used: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
                # forward-reference strings ("np.ndarray | Iterable[int]")
                # keep their imports alive; prose docstrings don't match.
                if re.fullmatch(r"[\w.\[\], |']+", node.value):
                    used.update(re.findall(r"[A-Za-z_]\w*", node.value))
        for name, node in imported:
            line = ctx.lines[node.lineno - 1] if node.lineno <= len(ctx.lines) else ""
            if "noqa" in line:
                continue
            if name not in used:
                yield self.finding(
                    ctx,
                    node,
                    f"`{name}` is imported but never used — remove it (or "
                    "re-export via `__all__` if it is public API)",
                )


@register
class MutableDefaultArgument(Rule):
    """RL007 — a mutable default argument (shared across calls).

    Beyond literal ``[]``/``{}`` and the ``list``/``dict``/``set``
    builtins, the attribute-form stdlib factories
    (``collections.defaultdict(list)``, ``collections.deque()``, …) and
    tuples *containing* mutable literals (``([], {})`` — the tuple is
    immutable, its elements are not) are mutable too; all were blind
    spots of the original builtin-name check.
    """

    code = "RL007"
    summary = "mutable default argument"

    _MUTABLE_FACTORIES = ("list", "dict", "set")
    #: canonical qualified names of stdlib mutable-container factories.
    _MUTABLE_FACTORY_QNAMES = frozenset(
        {
            "collections.defaultdict",
            "collections.deque",
            "collections.OrderedDict",
            "collections.Counter",
            "collections.ChainMap",
        }
    )
    #: leaf-name fallback when the import is not visible to the resolver.
    _MUTABLE_FACTORY_LEAVES = frozenset(
        {"defaultdict", "deque", "OrderedDict", "Counter", "ChainMap"}
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: list[ast.expr] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(ctx, default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default `{ctx.segment(default)}` in "
                        f"`{node.name}` is shared across calls — default to "
                        "None and build inside the body",
                    )

    def _is_mutable(self, ctx: FileContext, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Tuple):
            return any(self._is_mutable(ctx, elt) for elt in node.elts)
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._MUTABLE_FACTORIES:
            return True
        qname = ctx.resolve(func)
        if qname is not None:
            return qname in self._MUTABLE_FACTORY_QNAMES
        leaf = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return leaf in self._MUTABLE_FACTORY_LEAVES


@register
class FullLoadEvalInLoop(Rule):
    """RL008 — ``odr_edge_loads`` called inside a loop in ``placements/``.

    A full evaluation is :math:`O(|P|^2)` pair work; search and
    enumeration code in :mod:`repro.placements` that re-evaluates inside
    a loop almost always wants the :math:`O(|P|)` incremental kernels
    (:func:`repro.load.odr_loads.odr_edge_loads_add_delta` /
    ``_swap_delta``) instead — the difference is the entire speed-up of
    the exact-search engine.  Sites that *are* the brute-force oracle
    (e.g. the catalog sweep) certify themselves with
    ``# repro: noqa(RL008)``.
    """

    code = "RL008"
    summary = "full odr_edge_loads evaluation inside a loop in placements/"

    _LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
              ast.DictComp, ast.GeneratorExp)

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file:
            return False
        return ctx.in_package("placements")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        reported: set[tuple[int, int]] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, self._LOOPS):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if name != "odr_edge_loads":
                    continue
                key = (node.lineno, node.col_offset)
                if key in reported:  # nested loops see the same call twice
                    continue
                reported.add(key)
                yield self.finding(
                    ctx,
                    node,
                    "full O(|P|^2) `odr_edge_loads` evaluation inside a "
                    "loop — use the incremental kernels "
                    "(`odr_edge_loads_add_delta`/`_swap_delta`), or "
                    "suppress with `# repro: noqa(RL008)` if this site is "
                    "deliberately the brute-force oracle",
                )


@register
class DirectPoolConstruction(Rule):
    """RL009 — a process pool constructed outside ``repro.exec``.

    Bare ``ProcessPoolExecutor``/``multiprocessing.Pool`` fan-out has no
    retry budget, no deadline watchdog, no checkpoint journal, and no
    serial fallback — exactly the failure modes the resilient execution
    layer exists to absorb.  All pool call sites go through
    :class:`repro.exec.ResilientExecutor`; the one legitimate raw
    constructor (inside the executor itself) certifies with
    ``# repro: noqa(RL009)``.  Tests are exempt — harness cross-checks
    may drive bare pools on purpose.
    """

    code = "RL009"
    summary = "direct process-pool construction outside repro/exec"

    #: canonical qualified names that construct a process pool.
    _POOL_QNAMES = frozenset(
        {
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.process.ProcessPoolExecutor",
            "multiprocessing.Pool",
            "multiprocessing.pool.Pool",
            "multiprocessing.dummy.Pool",
        }
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file:
            return False
        return not ctx.in_package("exec")

    def _is_pool_qname(self, qname: str) -> bool:
        return qname in self._POOL_QNAMES or (
            qname.startswith("multiprocessing.") and qname.endswith(".Pool")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged: str | None = None
            qname = ctx.resolve(func)
            if qname is not None:
                if self._is_pool_qname(qname):
                    flagged = ctx.segment(func) or qname
            elif isinstance(func, ast.Attribute):
                if func.attr == "ProcessPoolExecutor":
                    flagged = ctx.segment(func)
                elif func.attr == "Pool" and isinstance(func.value, ast.Call):
                    # `mp.get_context("spawn").Pool()` — resolve the
                    # inner call's target instead of the unresolvable
                    # call result.
                    inner = ctx.resolve(func.value.func)
                    if inner is not None and inner.startswith(
                        "multiprocessing."
                    ):
                        flagged = ctx.segment(func)
            if flagged is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"`{flagged}` constructs a raw process pool — fan out "
                    "through `repro.exec.ResilientExecutor` (retries, "
                    "deadlines, checkpointing, serial fallback), or certify "
                    "an exempt site with `# repro: noqa(RL009)`",
                )


@register
class WallClockOrPrintInLibrary(Rule):
    """RL010 — wall-clock reads or bare ``print`` in library code.

    ``time.time()`` is NTP-steppable: durations derived from it can jump
    backwards or skew (the ``ExecutionReport.started_at`` bug class) —
    measure with ``time.perf_counter()``/``time.monotonic()`` and take
    the one informational wall-clock stamp via
    :func:`repro.obs.console.wall_clock`.  Bare ``print`` in library
    code pollutes machine-parsed stdout and ignores ``--quiet`` —
    results return to the caller; diagnostics go through
    :mod:`repro.obs.console`.  The CLI (stdout *is* its contract),
    ``devtools``, and the console module itself are exempt.
    """

    code = "RL010"
    summary = "wall-clock time.time()/bare print() in library code"

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file or not ctx.in_package():
            return False
        if ctx.path.name == "cli.py" or ctx.in_package("devtools"):
            return False
        return not ctx.posix_path.endswith("repro/obs/console.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Names appearing as a call's func are handled in the Call
        # branch; everything else resolving to `time.time` is a bare
        # reference (`default_factory=time.time`, `clock = now`).
        call_funcs = {
            id(node.func)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and id(node) not in call_funcs:
                if ctx.resolve(node) == "time.time":
                    # flag the reference itself, so
                    # `default_factory=time.time` is caught without a call
                    yield self.finding(
                        ctx,
                        node,
                        "`time.time` is wall-clock (NTP-steppable) — measure "
                        "with `time.perf_counter()`, and take informational "
                        "timestamps via `repro.obs.console.wall_clock()`, or "
                        "certify with `# repro: noqa(RL010)`",
                    )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in call_funcs
            ):
                if ctx.resolve(node) == "time.time":
                    yield self.finding(
                        ctx,
                        node,
                        f"`{node.id}` is bound to wall-clock `time.time` — "
                        "measure with `time.perf_counter()` or use "
                        "`repro.obs.console.wall_clock()`, or certify with "
                        "`# repro: noqa(RL010)`",
                    )
            elif isinstance(node, ast.Call):
                qname = ctx.resolve(node.func)
                if qname == "time.time":
                    yield self.finding(
                        ctx,
                        node,
                        f"`{ctx.segment(node.func)}()` is wall-clock "
                        "(NTP-steppable) — measure with "
                        "`time.perf_counter()` or use "
                        "`repro.obs.console.wall_clock()`, or certify with "
                        "`# repro: noqa(RL010)`",
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "bare `print()` in library code — return results to "
                        "the caller and route diagnostics through "
                        "`repro.obs.console` (quiet-aware stderr), or "
                        "certify with `# repro: noqa(RL010)`",
                    )


@register
class AmbientRNG(Rule):
    """RL011 — ambient RNG call in library code.

    Every stochastic path in this repository threads an explicit,
    seeded generator through :func:`repro.util.rng.resolve_rng` /
    :func:`~repro.util.rng.spawn_rngs`; that is what makes annealing and
    randomized-search results replayable from a manifest seed.  A
    ``random.random()`` / ``np.random.shuffle(...)`` global-state call —
    or a private ``np.random.default_rng(...)`` that bypasses the shared
    entry point — reintroduces ambient state the manifest cannot
    capture.  Resolver-backed, so ``import numpy.random as npr`` and
    ``from random import shuffle`` are both seen.  Explicit generator
    *classes* (``random.Random(seed)``, ``np.random.PCG64(seed)``) are
    exempt: constructing one with a pinned seed is deterministic.
    """

    code = "RL011"
    summary = "ambient/unseeded RNG call outside repro.util.rng"

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file or not ctx.in_package():
            return False
        return not ctx.posix_path.endswith("repro/util/rng.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = ctx.resolve(node.func)
            if qname is None:
                continue
            in_random = qname.startswith("random.")
            in_np_random = qname.startswith("numpy.random.")
            if not (in_random or in_np_random):
                continue
            leaf = qname.rsplit(".", 1)[-1]
            if leaf[:1].isupper():
                continue  # explicit generator classes are deterministic
            if leaf == "default_rng":
                detail = (
                    f"`{qname}` bypasses the shared RNG entry point — "
                    "accept a `seed_or_rng` and call "
                    "`repro.util.rng.resolve_rng(seed_or_rng)` instead"
                )
            else:
                detail = (
                    f"`{qname}` mutates/reads ambient RNG state — thread "
                    "an explicit generator from "
                    "`repro.util.rng.resolve_rng(seed)` through the call "
                    "chain"
                )
            yield self.finding(
                ctx,
                node,
                detail + ", or certify with `# repro: noqa(RL011)`",
            )


@register
class NondetIterationIntoSink(Rule):
    """RL012 — unordered iteration flowing into a deterministic sink.

    ``set`` iteration order is salted per process; ``os.listdir`` /
    ``glob`` / ``Path.iterdir`` order is filesystem-dependent.  Content
    built from them is fine to *aggregate* (sums, counts) but must not
    reach order-sensitive sinks — checkpoint-journal writes, fingerprint
    computations, ``Metrics`` merges, trace emission — without an
    intervening ``sorted(...)``: two runs of the same experiment would
    journal different byte streams and resume would refuse the mismatch.
    Dataflow-based: the taint engine follows the unordered value through
    assignments, loop variables, comprehensions, and container mutation
    to the sink argument.  Plain ``dict`` iteration is deliberately not
    a source — insertion order is deterministic since Python 3.7.
    """

    code = "RL012"
    summary = "unordered iteration reaches a deterministic sink unsorted"

    _FS_QNAMES = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )
    _PATH_METHODS = frozenset({"iterdir", "glob", "rglob"})
    _SINK_METHODS = {
        "record": "a checkpoint-journal/metrics write",
        "merge": "a metrics merge",
        "emit": "a trace sink",
        "event": "a trace sink",
    }
    _ORDER_INSENSITIVE = frozenset(
        {"sorted", "len", "sum", "min", "max", "any", "all"}
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test_file and ctx.in_package()

    # ------------------------------------------------------ TaintSpec

    def source(self, node: ast.expr, resolve) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        qname = resolve(func)
        if qname in self._FS_QNAMES:
            return True
        return (
            qname is None
            and isinstance(func, ast.Attribute)
            and func.attr in self._PATH_METHODS
        )

    def sanitizer(self, call: ast.Call, resolve) -> bool:
        return (
            isinstance(call.func, ast.Name)
            and call.func.id in self._ORDER_INSENSITIVE
        )

    def sink(self, call: ast.Call, resolve) -> str | None:
        func = call.func
        leaf = None
        if isinstance(func, ast.Attribute):
            leaf = func.attr
        elif isinstance(func, ast.Name):
            leaf = func.id
        if leaf is not None and "fingerprint" in leaf.lower():
            return "a fingerprint computation"
        if isinstance(func, ast.Attribute) and func.attr in self._SINK_METHODS:
            return self._SINK_METHODS[func.attr]
        if any(kw.arg == "fingerprint" for kw in call.keywords):
            return "a fingerprint argument"
        return None

    # ----------------------------------------------------------- check

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for hit in run_taint(func, self, ctx.resolve):
                src = hit.sources[0]
                src_text = ctx.segment(src) or type(src).__name__
                yield self.finding(
                    ctx,
                    hit.sink,
                    f"value derived from unordered `{src_text}` (line "
                    f"{src.lineno}) reaches {hit.label} — iteration order "
                    "is nondeterministic; wrap the iteration in "
                    "`sorted(...)`, or certify with `# repro: noqa(RL012)`",
                )


@register
class ExactnessTaint(Rule):
    """RL013 — float-introducing ops reaching an ``edge_loads`` return.

    Paper loads are rationals with denominator ``routing_load_quantum``;
    the engine contract (PR 6) is that every backend snaps its float
    accumulation back to that lattice with
    :func:`repro.load.quantize.snap_loads` before returning.  This pass
    taints float-introducing expressions (true division, ``float()``,
    ``np.fft``/``mean`` results) inside any ``repro.load`` function
    whose name contains ``edge_loads`` and reports returns the taint can
    reach without passing through ``snap_loads`` (or an integral
    rounding).  The reference oracle, whose raw float accumulation *is*
    the definition under test, certifies itself with a noqa.
    """

    code = "RL013"
    summary = "unsnapped float arithmetic reaches an edge_loads return"

    _SANITIZER_QNAMES = frozenset(
        {"repro.load.quantize.snap_loads", "numpy.rint"}
    )
    _SANITIZER_LEAVES = frozenset({"snap_loads", "rint", "round", "int"})
    _FLOAT_QNAMES = frozenset(
        {"numpy.true_divide", "numpy.divide", "numpy.mean", "numpy.average"}
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file:
            return False
        return ctx.in_package("load")

    # ------------------------------------------------------ TaintSpec

    def source(self, node: ast.expr, resolve) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            return True
        qname = resolve(func)
        if qname is not None:
            return qname in self._FLOAT_QNAMES or qname.startswith(
                "numpy.fft."
            )
        return isinstance(func, ast.Attribute) and func.attr == "mean"

    def sanitizer(self, call: ast.Call, resolve) -> bool:
        func = call.func
        qname = resolve(func)
        if qname in self._SANITIZER_QNAMES:
            return True
        leaf = None
        if isinstance(func, ast.Attribute):
            leaf = func.attr
        elif isinstance(func, ast.Name):
            leaf = func.id
        return leaf in self._SANITIZER_LEAVES

    def sink(self, call: ast.Call, resolve) -> str | None:
        return None  # the sink is the return statement, handled below

    # ----------------------------------------------------------- check

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "edge_loads" in func.name:
                yield from self._check_function(ctx, func)

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        analysis = TaintAnalysis(func, self, ctx.resolve)
        for _block, unit in analysis.iter_units():
            if not isinstance(unit, ast.Return) or unit.value is None:
                continue
            sources = analysis.taint_of(unit, unit.value)
            if not sources:
                continue
            src = sources[0]
            src_text = ctx.segment(src) or type(src).__name__
            yield self.finding(
                ctx,
                unit,
                f"`{func.name}` returns loads that float-introducing "
                f"`{src_text}` (line {src.lineno}) can reach without "
                "`repro.load.quantize.snap_loads` — snap to the routing "
                "quantum before returning, or certify with "
                "`# repro: noqa(RL013)`",
            )


@register
class ExecutorWorkerPurity(Rule):
    """RL014 — an unpicklable or impure worker handed to the executor.

    :class:`repro.exec.ResilientExecutor` ships its worker across a
    process boundary: lambdas and nested functions fail to pickle at
    submit time (or worse, only on the fallback path), and a worker that
    reads a module global some *other* function mutates sees whatever
    the fork copied — not the parent's later writes — which is silent
    nondeterminism under retries.  The sanctioned worker-state pattern
    (globals written by the very ``initializer=`` passed alongside the
    worker) is exempt.
    """

    code = "RL014"
    summary = "lambda/closure or mutated-global worker given to ResilientExecutor"

    _EXECUTOR_QNAMES = frozenset(
        {
            "repro.exec.ResilientExecutor",
            "repro.exec.executor.ResilientExecutor",
        }
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test_file

    def _is_executor_call(self, ctx: FileContext, node: ast.Call) -> bool:
        qname = ctx.resolve(node.func)
        if qname is not None:
            return qname in self._EXECUTOR_QNAMES
        func = node.func
        leaf = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return leaf == "ResilientExecutor"

    @staticmethod
    def _worker_expr(node: ast.Call) -> ast.expr | None:
        for kw in node.keywords:
            if kw.arg == "worker_fn":
                return kw.value
        return node.args[0] if node.args else None

    @staticmethod
    def _initializer_name(node: ast.Call) -> str | None:
        for kw in node.keywords:
            if kw.arg == "initializer" and isinstance(kw.value, ast.Name):
                return kw.value.id
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes = FunctionScopes(ctx.tree)
        usage = GlobalUsage(ctx.tree)
        defs_by_name: dict[str, list[ast.AST]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs_by_name.setdefault(node.name, []).append(node)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_executor_call(ctx, node):
                continue
            worker = self._worker_expr(node)
            if worker is None:
                continue
            if isinstance(worker, ast.Lambda):
                yield self.finding(
                    ctx,
                    worker,
                    "lambda worker given to ResilientExecutor — workers "
                    "cross a process boundary and must be importable "
                    "module-level functions",
                )
                continue
            if not isinstance(worker, ast.Name):
                continue
            name = worker.id
            if name in scopes.module_functions:
                impure = usage.reads(name) & usage.mutated_globals()
                init_name = self._initializer_name(node)
                if init_name is not None:
                    impure -= usage.writes(init_name)
                if impure:
                    listed = ", ".join(
                        f"`{g}` (mutated by "
                        + "/".join(usage.mutators_of(g))
                        + ")"
                        for g in sorted(impure)
                    )
                    yield self.finding(
                        ctx,
                        worker,
                        f"worker `{name}` reads mutated module globals: "
                        f"{listed} — forked workers see a stale copy; pass "
                        "the state through `initializer=`/payloads, or "
                        "certify with `# repro: noqa(RL014)`",
                    )
            elif any(
                scopes.is_nested(d) for d in defs_by_name.get(name, [])
            ):
                yield self.finding(
                    ctx,
                    worker,
                    f"worker `{name}` is a nested function (closure) — it "
                    "cannot pickle across the process boundary; hoist it "
                    "to module level",
                )


@register
class SpanOutsideWith(Rule):
    """RL015 — ``tracer.span(...)`` used outside a ``with`` statement.

    A :class:`repro.obs.tracer.Span` only records on ``__exit__``; a
    span created outside a ``with`` (stored, returned, or discarded)
    silently drops its timing and, with an active tracer, corrupts span
    nesting for everything recorded while it dangles.  Chained
    annotations inside the with-item (``with tracer.span("x").annotate(
    ...)``) are recognized.  The tracer module itself and tests are
    exempt.
    """

    code = "RL015"
    summary = "tracer.span(...) outside a `with` statement"

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file or not ctx.in_package():
            return False
        return not ctx.posix_path.endswith("repro/obs/tracer.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr: ast.expr | None = item.context_expr
                    while isinstance(expr, ast.Call):
                        allowed.add(id(expr))
                        func = expr.func
                        expr = (
                            func.value
                            if isinstance(func, ast.Attribute)
                            else None
                        )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in allowed
                and self._tracer_like(ctx, node.func.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"`{ctx.segment(node.func)}(...)` outside a `with` — "
                    "spans record on __exit__; write "
                    "`with tracer.span(...):`, or certify a deliberate "
                    "handle with `# repro: noqa(RL015)`",
                )

    @staticmethod
    def _tracer_like(ctx: FileContext, receiver: ast.expr) -> bool:
        segment = ctx.segment(receiver).lower()
        return "tracer" in segment


@register
class PerPlacementLoopEval(Rule):
    """RL016 — per-placement load evaluation loop that should batch.

    A loop in :mod:`repro.placements` or :mod:`repro.experiments` that
    calls a full load evaluator (``edge_loads`` / ``emax`` / the
    module-level ``*_edge_loads`` functions) once per placement pays the
    spectral-plan setup once per call; the batched facade
    (:meth:`repro.load.engine.LoadEngine.edge_loads_many` /
    ``emax_many``) amortizes one stacked transform over the whole block
    and is bit-identical after the integer snap-back.  Loops that build
    a :class:`~repro.torus.topology.Torus` in their body are per-torus
    sweeps — a batch cannot span tori, so they are exempt.  Reference
    oracles certify themselves with ``# repro: noqa(RL016)``.
    """

    code = "RL016"
    summary = "per-placement load-evaluation loop in placements/experiments"

    _LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
              ast.DictComp, ast.GeneratorExp)

    #: leaf callable names that evaluate one placement from scratch.
    _EVAL_LEAVES = frozenset({
        "edge_loads",
        "emax",
        "odr_edge_loads",
        "udr_edge_loads",
        "edge_loads_reference",
        "fft_edge_loads",
        "displacement_edge_loads",
    })

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file:
            return False
        return ctx.in_package("placements") or ctx.in_package("experiments")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # a loop nest that constructs a Torus is a per-torus sweep: no
        # single batch can span its iterations, so the whole nest —
        # inner per-placement loops included — is exempt.
        exempt: set[int] = set()
        for loop in ast.walk(ctx.tree):
            if isinstance(loop, self._LOOPS) and self._builds_torus(loop):
                for sub in ast.walk(loop):
                    if isinstance(sub, self._LOOPS):
                        exempt.add(id(sub))
        reported: set[tuple[int, int]] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, self._LOOPS) or id(loop) in exempt:
                continue
            for node in self._per_iteration_nodes(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if name not in self._EVAL_LEAVES:
                    continue
                key = (node.lineno, node.col_offset)
                if key in reported:  # nested loops see the same call twice
                    continue
                reported.add(key)
                yield self.finding(
                    ctx,
                    node,
                    f"per-placement `{name}` call inside a loop — batch "
                    "the placements and route through "
                    "`LoadEngine.edge_loads_many`/`emax_many` (one stacked "
                    "spectral transform per block, bit-identical after "
                    "snap-back), or suppress with `# repro: noqa(RL016)` "
                    "if this site is deliberately per-placement",
                )

    @staticmethod
    def _per_iteration_nodes(loop: ast.AST) -> Iterator[ast.AST]:
        """Nodes evaluated once per loop iteration.

        A ``for`` loop's iterable and a comprehension's outermost source
        expression run exactly once — calls there are not per-placement
        work and are excluded."""
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(loop, ast.While):
                yield from ast.walk(loop.test)
            for stmt in [*loop.body, *loop.orelse]:
                yield from ast.walk(stmt)
            return
        once = {id(n) for n in ast.walk(loop.generators[0].iter)}
        for node in ast.walk(loop):
            if id(node) not in once and node is not loop:
                yield node

    @staticmethod
    def _builds_torus(loop: ast.AST) -> bool:
        """Whether the loop constructs a ``Torus`` — a per-torus sweep,
        which batched evaluation cannot serve."""
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "Torus":
                return True
        return False


@register
class DynamicTelemetryName(Rule):
    """RL017 — dynamic span/metric name fed into the telemetry registry.

    Trace tooling — ``repro trace diff``, the stitcher's canonical form,
    the bench observatory's pinned metric names, Prometheus exposition —
    keys everything on span and metric *names*.  A name built at runtime
    (f-string, ``+``, ``.format``, a variable) fragments those keys into
    unbounded families that no dashboard, diff, or grep can enumerate,
    and silently bloats the metrics registry.  Names passed to
    ``tracer.span`` / ``tracer.event`` / ``tracer.record_span`` and to
    ``metrics.counter`` / ``gauge`` / ``histogram`` must therefore be
    dotted lowercase string literals (``"engine.fft.fast_path"``).
    Closed sets route through literal ``if``/``elif`` dispatch (see
    ``repro.load.engine.facade._count_backend_call``); a deliberately
    dynamic name certifies itself with ``# repro: noqa(RL017)``.  The
    observability package itself (which implements the registry) and
    tests are exempt.
    """

    code = "RL017"
    summary = "dynamic span/metric name fed to tracer/Metrics"

    #: tracer methods whose first argument is a span/event name.
    _TRACER_METHODS = frozenset({"span", "event", "record_span"})
    #: metrics-registry factories whose first argument is a metric name.
    _METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})

    #: dotted lowercase: at least two ``[a-z][a-z0-9_]*`` segments.
    _NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file or not ctx.in_package():
            return False
        return not ctx.in_package("obs")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
            ):
                continue
            method = node.func.attr
            receiver = ctx.segment(node.func.value).lower()
            if method in self._TRACER_METHODS:
                if "tracer" not in receiver:
                    continue
            elif method in self._METRIC_METHODS:
                if "metrics" not in receiver:
                    continue
            else:
                continue
            name_arg = node.args[0]
            if (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
                and self._NAME_RE.match(name_arg.value)
            ):
                continue
            rendered = ctx.segment(name_arg)
            if len(rendered) > 40:
                rendered = rendered[:37] + "..."
            yield self.finding(
                ctx,
                name_arg,
                f"`{ctx.segment(node.func)}({rendered}, ...)` — span/metric "
                "names must be dotted lowercase string literals (e.g. "
                '`"engine.fft.fast_path"`) so trace diffs, bench pins, and '
                "Prometheus exposition see a closed name set; dispatch "
                "closed families through literal if/elif, or certify with "
                "`# repro: noqa(RL017)`",
            )
