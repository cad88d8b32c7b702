"""The built-in rule set: repo-specific invariants RL004–RL017.

Each rule generalizes a bug class this repository has actually hit (see
``docs/STATIC_ANALYSIS.md`` for the catalogue).  Rules whose bug class
the tier-1 tests already catch, or that missed a mutation of it, were
retired.  Rules are heuristics, not proofs — the
``# repro: noqa(CODE)`` escape hatch exists precisely for the sites where
a human can certify the invariant holds.

Every rule reads only the file it checks.  RL004–RL010 and RL017 are
(mostly) pattern matchers; RL014 is built on
:mod:`repro.devtools.lint.semantics` — it resolves names through the
file's imports (``ctx.resolve``) and runs the scope analysis.  RL004,
RL009, and RL010 use the same resolver, so renamed imports
(``from repro.load.edge_loads import edge_loads_reference as oracle``)
do not slip past them.  No rule chases re-exports: RL004 matches any
``repro.load.*`` name by its last part, and RL014 lists both public
spellings of ``ResilientExecutor``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint import FileContext, Finding, Rule, register
from repro.devtools.lint.semantics import (
    FunctionScopes,
    GlobalUsage,
)

__all__ = [
    "LoadFacadeBypass",
    "ConstructorSkipsValidation",
    "UnusedImport",
    "MutableDefaultArgument",
    "FullLoadEvalInLoop",
    "DirectPoolConstruction",
    "WallClockOrPrintInLibrary",
    "ExecutorWorkerPurity",
    "DynamicTelemetryName",
]

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


@register
class LoadFacadeBypass(Rule):
    """RL004 — load-engine internals referenced outside ``repro.load``.

    ``edge_loads_reference`` and the backend classes are implementation
    details of the :class:`repro.load.engine.LoadEngine` facade; code
    that imports them directly bypasses ``auto``'s backend selection and
    the facade's span and call counters.  Tests are exempt — the
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
                    origin = ctx.resolver.bindings.get(alias.asname or alias.name)
                    if origin is not None and self._internal_qname(origin):
                        yield from flag(node, alias.name)
                    elif origin is None and alias.name in _ENGINE_INTERNALS:
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
    #: qualified names of stdlib mutable-container factories.
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

    #: qualified names that construct a process pool.
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
class DynamicTelemetryName(Rule):
    """RL017 — dynamic span/metric name fed into the telemetry registry.

    Trace tooling — ``repro trace diff``, ``canonical_form``,
    the bench observatory's pinned metric names — keys everything on
    span and metric *names*.  A name built at runtime
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
            # the method name first: slicing a receiver's source re-splits
            # the whole file, so only telemetry-shaped calls pay for it
            method = node.func.attr
            if method in self._TRACER_METHODS:
                needle = "tracer"
            elif method in self._METRIC_METHODS:
                needle = "metrics"
            else:
                continue
            if needle not in ctx.segment(node.func.value).lower():
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
                '`"engine.fft.fast_path"`) so trace diffs and bench pins '
                "see a closed name set; dispatch "
                "closed families through literal if/elif, or certify with "
                "`# repro: noqa(RL017)`",
            )
