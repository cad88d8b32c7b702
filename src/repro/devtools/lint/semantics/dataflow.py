"""A small taint/dataflow framework over the semantic CFG.

A rule describes its analysis as a :class:`TaintSpec` — three predicates
over AST nodes (each handed a ``resolve`` callable mapping
``Name``/``Attribute`` chains to canonical qualified names):

* ``source(node, resolve)`` — expressions that *introduce* the property
  being tracked (a ``set(...)`` call, an ``os.listdir(...)`` result, …);
* ``sanitizer(call, resolve)`` — calls that launder it away
  (``sorted(...)``, ``len(...)``);
* ``sink(call, resolve)`` — calls that must never receive it; returns a
  short label used in the finding message, or ``None``.

:func:`run_taint` builds the function's CFG, solves reaching
definitions, and iterates a transitive-taint fixpoint over definition
sites: a definition is tainted when its value expression contains a
source, or reads a name whose reaching definitions include a tainted
definition, with sanitizer calls cutting the chain.  Container mutation
(``acc[key] += tainted``) taints the container's reaching definitions
(a deliberate weak update — linters over-approximate mutation).  Every
sink call argument carrying taint yields a :class:`TaintHit` naming the
original source expression, so findings can point at both ends of the
flow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

from repro.devtools.lint.semantics.cfg import (
    ControlFlowGraph,
    ReachingDefinitions,
    unit_definitions,
)

__all__ = ["TaintSpec", "TaintHit", "run_taint"]

Resolver = Callable[[ast.AST], "str | None"]

#: nested scopes an intraprocedural walk must not descend into.
_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


class TaintSpec(Protocol):
    """The three predicates a taint-based rule supplies."""

    def source(self, node: ast.expr, resolve: Resolver) -> bool:
        """Whether ``node`` introduces taint."""
        ...  # pragma: no cover - protocol

    def sanitizer(self, call: ast.Call, resolve: Resolver) -> bool:
        """Whether a call removes taint from its arguments."""
        ...  # pragma: no cover - protocol

    def sink(self, call: ast.Call, resolve: Resolver) -> str | None:
        """A label when ``call`` is a protected sink, else ``None``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class TaintHit:
    """One unsanitized source→sink flow."""

    sink: ast.Call
    argument: ast.expr
    sources: tuple[ast.expr, ...]
    label: str


def _shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that refuses to enter nested function/class scopes."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _OPAQUE):
                continue
            stack.append(child)


class _Engine:
    def __init__(self, cfg: ControlFlowGraph, spec: TaintSpec, resolve: Resolver):
        self.cfg = cfg
        self.spec = spec
        self.resolve = resolve
        self.reaching = ReachingDefinitions(cfg)
        #: id(def-unit) → source expressions whose taint it carries.
        self.tainted: dict[int, set[ast.expr]] = {}

    # ------------------------------------------------------- expr taint

    def expr_taint(
        self,
        expr: ast.expr,
        before: dict[str, set[ast.AST]],
        env: dict[str, set[ast.expr]] | None = None,
    ) -> set[ast.expr]:
        """Sources whose taint reaches the value of ``expr``."""
        if isinstance(expr, _OPAQUE):
            return set()
        if isinstance(expr, ast.Call):
            if self.spec.sanitizer(expr, self.resolve):
                return set()
            out: set[ast.expr] = set()
            if self.spec.source(expr, self.resolve):
                out.add(expr)
            for child in list(expr.args) + [kw.value for kw in expr.keywords]:
                out |= self.expr_taint(child, before, env)
            # method calls on a tainted receiver keep its taint
            # (`tainted.copy()`, `tainted.union(x)`).
            if isinstance(expr.func, ast.Attribute):
                out |= self.expr_taint(expr.func.value, before, env)
            return out
        if isinstance(expr, ast.Name):
            out = set()
            if env and expr.id in env:
                out |= env[expr.id]
            for definition in before.get(expr.id, ()):
                out |= self.tainted.get(id(definition), set())
            if self.spec.source(expr, self.resolve):
                out.add(expr)
            return out
        if self.spec.source(expr, self.resolve):
            out = {expr}
        else:
            out = set()
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for comp in expr.generators:
                out |= self.expr_taint(comp.iter, before, env)
            return out
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self.expr_taint(child, before, env)
        return out

    # ---------------------------------------------------------- transfer

    def _unit_values(self, unit: ast.AST) -> list[ast.expr]:
        """The value expressions whose taint flows into the unit's defs."""
        if isinstance(unit, ast.Assign):
            return [unit.value]
        if isinstance(unit, ast.AugAssign):
            values: list[ast.expr] = [unit.value]
            if isinstance(unit.target, ast.Name):
                values.append(
                    ast.copy_location(
                        ast.Name(id=unit.target.id, ctx=ast.Load()), unit
                    )
                )
            return values
        if isinstance(unit, ast.AnnAssign) and unit.value is not None:
            return [unit.value]
        if isinstance(unit, (ast.For, ast.AsyncFor)):
            return [unit.iter]
        if isinstance(unit, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in unit.items]
        return []

    #: methods whose call mutates the receiver with their arguments.
    _MUTATORS = frozenset(
        {"append", "add", "extend", "update", "insert", "setdefault",
         "appendleft", "extendleft"}
    )

    def _mutated_containers(self, unit: ast.AST) -> Iterator[tuple[str, ast.expr]]:
        """``(name, value)`` pairs for subscript/attribute stores.

        Covers ``acc[k] = v`` / ``acc[k] += v`` store forms and mutator
        method calls (``acc.append(v)``, ``seen.update(v)``) — each
        yields the receiver name plus the expression flowing in.
        """
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(unit, ast.Assign):
            targets, value = list(unit.targets), unit.value
        elif isinstance(unit, ast.AugAssign):
            targets, value = [unit.target], unit.value
        if value is not None:
            for target in targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and base is not target:
                    yield base.id, value
        for node in _shallow_walk(unit):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
                and isinstance(node.func.value, ast.Name)
            ):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    yield node.func.value.id, arg

    def solve(self) -> None:
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            for _block, unit in self.cfg.iter_units():
                before = self.reaching.before(unit)
                names = unit_definitions(unit)
                if names:
                    taint: set[ast.expr] = set()
                    for value in self._unit_values(unit):
                        taint |= self.expr_taint(value, before)
                    if taint and not taint <= self.tainted.get(id(unit), set()):
                        self.tainted.setdefault(id(unit), set()).update(taint)
                        changed = True
                # container mutation: `acc[k] += tainted` taints every
                # reaching definition of `acc`.
                for name, value in self._mutated_containers(unit):
                    taint = self.expr_taint(value, before)
                    if not taint:
                        continue
                    for definition in before.get(name, ()):
                        key = id(definition)
                        if not taint <= self.tainted.get(key, set()):
                            self.tainted.setdefault(key, set()).update(taint)
                            changed = True

    # ------------------------------------------------------------- sinks

    def _comprehension_env(
        self, unit: ast.AST, before: dict[str, set[ast.AST]]
    ) -> dict[str, set[ast.expr]]:
        """Taint bindings for comprehension loop variables in the unit."""
        env: dict[str, set[ast.expr]] = {}
        for node in _shallow_walk(unit):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                for comp in node.generators:
                    taint = self.expr_taint(comp.iter, before, env)
                    if not taint:
                        continue
                    for name in _comp_target_names(comp.target):
                        env.setdefault(name, set()).update(taint)
        return env

    def hits(self) -> list[TaintHit]:
        found: list[TaintHit] = []
        seen: set[tuple[int, int]] = set()
        for _block, unit in self.cfg.iter_units():
            before = self.reaching.before(unit)
            env = self._comprehension_env(unit, before)
            for node in _shallow_walk(unit):
                if not isinstance(node, ast.Call):
                    continue
                label = self.spec.sink(node, self.resolve)
                if label is None:
                    continue
                arguments = list(node.args) + [kw.value for kw in node.keywords]
                for argument in arguments:
                    taint = self.expr_taint(argument, before, env)
                    if not taint:
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in seen:
                        break
                    seen.add(key)
                    found.append(
                        TaintHit(
                            sink=node,
                            argument=argument,
                            sources=tuple(
                                sorted(
                                    taint,
                                    key=lambda s: (
                                        getattr(s, "lineno", 0),
                                        getattr(s, "col_offset", 0),
                                    ),
                                )
                            ),
                            label=label,
                        )
                    )
                    break
        return found


def _comp_target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _comp_target_names(elt)


def run_taint(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    spec: TaintSpec,
    resolve: Resolver,
) -> list[TaintHit]:
    """Run ``spec`` over one function; return every source→sink flow.

    Loop-variable taint (``for x in tainted:``) is modelled by the CFG's
    ``for``-header unit; comprehension variables are handled at sink
    scan time.  The returned hits are ordered by sink position.
    """
    engine = _Engine(ControlFlowGraph.for_function(func), spec, resolve)
    engine.solve()
    hits = engine.hits()
    hits.sort(key=lambda h: (h.sink.lineno, h.sink.col_offset))
    return hits
