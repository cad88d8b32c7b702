"""Core of the repro lint framework.

The framework is deliberately small: a :class:`Rule` walks one parsed
file (:class:`FileContext`) and yields :class:`Finding` objects; the
registry maps rule codes to rule instances; :func:`lint_paths` lints each
file on its own with :func:`lint_file`, applies ``# repro: noqa(...)``
suppressions, and returns the surviving findings sorted for stable
output.  No rule looks beyond the file it checks.

Suppression syntax, on the offending line::

    stamp = time.time()     # repro: noqa(RL010)
    from repro.load.edge_loads import edge_loads_reference  # repro: noqa(RL004,RL006)
    z = risky()             # repro: noqa          (suppresses every rule)

Rules self-register via the :func:`register` decorator; adding a rule is
one class in :mod:`repro.devtools.lint.rules` (see
``docs/STATIC_ANALYSIS.md`` for the recipe).
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.devtools.lint.semantics import ImportResolver, module_name_for_path

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "parse_noqa",
]

#: code used for files the framework itself cannot parse.
SYNTAX_ERROR_CODE = "RL000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<codes>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)\s*\))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One lint diagnostic, anchored to a file position."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical one-line text form ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: one source line as the parser splits them, its break kept: ``\r\n``,
#: ``\r`` or ``\n`` only (``str.splitlines`` also breaks on ``\f``,
#: ``\v`` and more), then a last line without a break.
_PARSER_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")


class FileContext:
    """Everything a rule may inspect about one source file.

    ``nodes`` is every node of ``tree`` in ``ast.walk`` order, walked
    once and shared by the rules.  ``resolver`` is the file's own
    alias-aware import resolver, and :meth:`resolve` is the one call
    rules should use to name what an expression denotes.
    """

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.nodes = list(ast.walk(tree))
        self.lines = source.splitlines()
        self.noqa = parse_noqa(source)
        self._resolver: "ImportResolver | None" = None
        self._parser_lines: list[str] | None = None
        self._effective_noqa: dict[int, frozenset[str] | None] | None = None

    @property
    def resolver(self) -> "ImportResolver":
        """This file's alias-aware import resolver (built lazily)."""
        if self._resolver is None:
            self._resolver = ImportResolver(
                self.tree,
                module_name=module_name_for_path(self.path),
                is_package=self.path.name == "__init__.py",
            )
        return self._resolver

    def resolve(self, node: ast.AST) -> str | None:
        """Qualified name of a ``Name``/``Attribute`` chain.

        Aliases are seen through (``from repro.load.engine import fft as
        f`` makes ``f.FFTBackend`` resolve to
        ``repro.load.engine.fft.FFTBackend``); a name re-exported by a
        package resolves to the package's name, not its defining module.
        """
        return self.resolver.qualified_name(node)

    @property
    def effective_noqa(self) -> dict[int, frozenset[str] | None]:
        """Line suppressions with multiline statements expanded.

        A ``# repro: noqa(...)`` anywhere inside a parenthesized import
        or a def/class header (decorators included) suppresses findings
        anchored to *any* line of that statement — a finding on a
        decorated ``def`` anchors to the ``def`` line while the pragma
        often sits on the decorator or a wrapped argument line.
        """
        if self._effective_noqa is None:
            self._effective_noqa = _expand_noqa_spans(self.nodes, self.noqa)
        return self._effective_noqa

    @property
    def posix_path(self) -> str:
        return self.path.as_posix()

    @property
    def is_test_file(self) -> bool:
        """Whether this file belongs to the test suite (fixtures included)."""
        parts = self.path.parts
        if "tests" in parts:
            return True
        name = self.path.name
        return name.startswith(("test_", "bench_")) or name == "conftest.py"

    @property
    def is_init_file(self) -> bool:
        return self.path.name == "__init__.py"

    def in_package(self, *segments: str) -> bool:
        """Whether the file lives under ``repro/<seg1>/<seg2>/…``."""
        needle = "repro/" + "/".join(segments)
        return needle in self.posix_path

    def segment(self, node: ast.AST) -> str:
        """Source text of ``node`` (empty string when unavailable).

        The slice :func:`ast.get_source_segment` takes, cut at the UTF-8
        byte offsets of the node's positions, from the file's lines as
        the parser splits them, split once per file.
        """
        end_line = getattr(node, "end_lineno", None)
        end_col = getattr(node, "end_col_offset", None)
        if end_line is None or end_col is None:
            return ""
        if self._parser_lines is None:
            self._parser_lines = _PARSER_LINE.findall(self.source)
        lines = self._parser_lines
        first, last = node.lineno - 1, end_line - 1
        col = node.col_offset
        if first == last:
            return lines[first].encode()[col:end_col].decode()
        return "".join(
            [lines[first].encode()[col:].decode()]
            + lines[first + 1 : last]
            + [lines[last].encode()[:end_col].decode()]
        )


class Rule(abc.ABC):
    """One lint rule: a code, a one-line summary, and a ``check``."""

    #: unique rule code, e.g. ``RL004``.
    code: str = "RL999"
    #: one-line human summary shown by ``--list-rules``.
    summary: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (path-based scoping)."""
        return True

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=ctx.posix_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by its ``code``) to the registry."""
    rule = cls()
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate lint rule code {rule.code!r}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    _ensure_rules_loaded()
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule(code: str) -> Rule:
    """Look up one rule by code."""
    _ensure_rules_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {code!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def _ensure_rules_loaded() -> None:
    # The built-in rule set registers on import; keep the import lazy so
    # the framework core has no rule dependencies.
    from repro.devtools.lint import rules as _rules  # noqa: F401  (side effect)


def parse_noqa(source: str) -> dict[int, frozenset[str] | None]:
    """Map 1-based line numbers to suppressed codes.

    ``None`` means "suppress every rule on this line" (bare
    ``# repro: noqa``); a frozenset suppresses just the listed codes.
    """
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "noqa" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(c.strip() for c in codes.split(","))
    return out


def _expand_noqa_spans(
    nodes: Sequence[ast.AST], noqa: dict[int, frozenset[str] | None]
) -> dict[int, frozenset[str] | None]:
    """Spread suppressions across multiline statement spans.

    Import statements get their full node span (parenthesized imports
    wrap); def/class statements get their *header* span — first
    decorator line through the line before the body — so a pragma on a
    decorator suppresses a finding anchored on the ``def`` line without
    blanketing the whole function body.
    """
    effective: dict[int, frozenset[str] | None] = dict(noqa)
    spans: list[tuple[int, int]] = []
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            spans.append((node.lineno, node.end_lineno or node.lineno))
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            start = min(
                [node.lineno] + [d.lineno for d in node.decorator_list]
            )
            body_start = node.body[0].lineno if node.body else node.lineno + 1
            spans.append((start, max(start, body_start - 1)))
    for start, end in spans:
        entries = [noqa[line] for line in range(start, end + 1) if line in noqa]
        if not entries:
            continue
        merged: frozenset[str] | None
        if any(entry is None for entry in entries):
            merged = None
        else:
            merged = frozenset().union(
                *[entry for entry in entries if entry is not None]
            )
        for line in range(start, end + 1):
            existing = effective.get(line, frozenset())
            if line in effective and existing is None:
                continue
            if merged is None:
                effective[line] = None
            else:
                assert existing is not None
                effective[line] = existing | merged
    return effective


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a deduplicated, sorted ``.py`` walk."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return iter(collected)


def lint_file(path: Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint one file, applying noqa; a syntax error yields one RL000 finding."""
    if rules is None:
        rules = all_rules()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as err:
        return [
            Finding(
                path=path.as_posix(),
                line=err.lineno or 1,
                col=(err.offset or 1) - 1,
                code=SYNTAX_ERROR_CODE,
                message=f"syntax error: {err.msg}",
            )
        ]
    ctx = FileContext(path, source, tree)
    findings: list[Finding] = []
    noqa = ctx.effective_noqa
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            suppressed = noqa.get(finding.line)
            if suppressed is None and finding.line in noqa:
                continue  # bare noqa
            if suppressed is not None and finding.code in suppressed:
                continue
            findings.append(finding)
    return findings


@dataclass
class LintReport:
    """Aggregate result of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return dict(sorted(out.items()))


def lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``select`` restricts the run to the given codes; ``ignore`` drops
    codes after the fact.  Unknown codes in either raise ``KeyError``.
    """
    rules: Sequence[Rule] = all_rules()
    if select is not None:
        rules = tuple(get_rule(code) for code in select)
    if ignore is not None:
        dropped = {get_rule(code).code for code in ignore}
        rules = tuple(rule for rule in rules if rule.code not in dropped)
    report = LintReport()
    for path in iter_python_files(paths):
        report.files_scanned += 1
        report.findings.extend(lint_file(path, rules))
    report.findings.sort()
    return report
