"""Whole-program semantic analysis for the repro lint framework.

The original lint rules were single-file AST pattern matchers; this
package gives them two capabilities they could not express:

* **project-wide symbol resolution**
  (:mod:`~repro.devtools.lint.semantics.resolver`) — every local name is
  mapped through the file's imports to a fully qualified name
  (``from repro.load.engine import fft as f`` makes ``f.FFTBackend``
  resolve to ``repro.load.engine.fft.FFTBackend``), and a
  :class:`~repro.devtools.lint.semantics.resolver.Project` built over all
  linted files chases re-export chains (``repro.load.engine.LoadEngine``
  canonicalizes to ``repro.load.engine.facade.LoadEngine``);

* **scope and global-mutation analysis**
  (:mod:`~repro.devtools.lint.semantics.scopes`) — module-level
  functions versus closures, and the globals each function reads,
  writes or mutates (RL014's evidence).

Rules access all of this through :class:`FileContext.resolver` (always
available, built from the file's own imports) and ``FileContext.project``
(populated by :func:`repro.devtools.lint.lint_paths` when a whole
directory is linted; single-file runs get a one-module project).

Everything here is pure stdlib ``ast`` work: no module is ever imported,
so linting cannot execute repository code.
"""

from __future__ import annotations

from repro.devtools.lint.semantics.resolver import (
    ImportResolver,
    ModuleInfo,
    Project,
    module_name_for_path,
)
from repro.devtools.lint.semantics.scopes import (
    FunctionScopes,
    GlobalUsage,
)

__all__ = [
    "ImportResolver",
    "ModuleInfo",
    "Project",
    "module_name_for_path",
    "FunctionScopes",
    "GlobalUsage",
]
