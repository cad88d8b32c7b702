"""Alias-aware name resolution for one file.

:class:`ImportResolver` answers, for one file, "what fully qualified
name does this expression denote?" using nothing but the file's import
statements (plus simple module-level aliasing assignments).  It never
imports anything — resolution is purely syntactic, so ``import numpy as
np`` makes ``np.random.rand`` resolve to ``numpy.random.rand`` whether
or not numpy is installed.  Re-exports are not chased: a rule that must
match a re-exported name lists each public spelling of it.
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = ["ImportResolver", "module_name_for_path"]

#: roots recognized as "this repository's code" when deriving module
#: names from paths (fixture snippets live under ``repro/...`` too).
_PACKAGE_ROOTS = ("repro",)


def module_name_for_path(path: Path) -> str:
    """Derive a dotted module name from a file path.

    ``.../src/repro/load/engine/fft.py`` → ``repro.load.engine.fft``;
    ``__init__.py`` names its package.  Files outside a recognized
    package root (tests, benchmarks, scripts) get a best-effort name
    from their path stem, which keeps them resolvable without colliding
    with library modules.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for root in _PACKAGE_ROOTS:
        if root in parts:
            start = len(parts) - 1 - parts[::-1].index(root)
            return ".".join(parts[start:])
    return ".".join(p for p in parts[-2:] if p not in ("/", "")) or "<anon>"


class ImportResolver:
    """Per-file resolution of local names to fully qualified names.

    Parameters
    ----------
    tree:
        The parsed module.
    module_name:
        Dotted name of the module being resolved (needed for relative
        imports; ``""`` disables them).
    is_package:
        Whether ``module_name`` names a package (``__init__.py``) — a
        package's own name is the base for its level-1 relative imports.
    """

    def __init__(
        self,
        tree: ast.Module,
        module_name: str = "",
        is_package: bool = False,
    ):
        self.module_name = module_name
        self.is_package = is_package
        #: local name → fully qualified origin (``np`` → ``numpy``).
        self.bindings: dict[str, str] = {}
        self._collect(tree)

    # ------------------------------------------------------------ building

    def _relative_base(self, level: int) -> str | None:
        """The package that a ``level``-dot relative import is rooted at."""
        if level == 0:
            return ""
        if not self.module_name:
            return None
        parts = self.module_name.split(".")
        # a module's level-1 base is its parent package; a package's is
        # itself, so drop one segment less for __init__ files.
        drop = level if not self.is_package else level - 1
        if drop >= len(parts):
            return None
        return ".".join(parts[: len(parts) - drop])

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.bindings[alias.asname] = alias.name
                    else:
                        # `import a.b.c` binds the top-level name `a`.
                        top = alias.name.split(".")[0]
                        self.bindings.setdefault(top, top)
            elif isinstance(node, ast.ImportFrom):
                base = self._relative_base(node.level)
                if base is None:
                    continue
                module = node.module or ""
                absolute = ".".join(p for p in (base, module) if p)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    origin = (
                        f"{absolute}.{alias.name}" if absolute else alias.name
                    )
                    self.bindings[bound] = origin
        # Simple module-level aliasing assignments (`rand = np.random.rand`)
        # extend the binding map; processed in source order so chains work.
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                origin = self.qualified_name(stmt.value)
                if origin is not None:
                    self.bindings.setdefault(stmt.targets[0].id, origin)

    # ----------------------------------------------------------- resolving

    def qualified_name(self, node: ast.AST) -> str | None:
        """Resolve a ``Name``/``Attribute`` chain to a qualified name.

        Returns ``None`` for anything not rooted in an imported (or
        aliased) name — locals, call results, subscripts.
        """
        if isinstance(node, ast.Name):
            return self.bindings.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.qualified_name(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

