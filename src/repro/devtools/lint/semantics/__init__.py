"""File-local semantic analysis for the repro lint framework.

Beyond plain AST pattern matching, this package gives the rules two
capabilities, each computed from the one file being checked:

* **alias-aware symbol resolution**
  (:mod:`~repro.devtools.lint.semantics.resolver`) — every local name is
  mapped through the file's imports to a fully qualified name
  (``from repro.load.engine import fft as f`` makes ``f.FFTBackend``
  resolve to ``repro.load.engine.fft.FFTBackend``);

* **scope and global-mutation analysis**
  (:mod:`~repro.devtools.lint.semantics.scopes`) — module-level
  functions versus closures, and the globals each function reads,
  writes or mutates (RL014's evidence).

Rules reach the resolver through :attr:`FileContext.resolver` and
:meth:`FileContext.resolve`.

Everything here is pure stdlib ``ast`` work: no module is ever imported,
so linting cannot execute repository code.
"""

from __future__ import annotations

from repro.devtools.lint.semantics.resolver import (
    ImportResolver,
    module_name_for_path,
)
from repro.devtools.lint.semantics.scopes import (
    FunctionScopes,
    GlobalUsage,
)

__all__ = [
    "ImportResolver",
    "module_name_for_path",
    "FunctionScopes",
    "GlobalUsage",
]
