"""Developer tooling for the repro codebase.

The package ships one subsystem: :mod:`repro.devtools.lint`, an AST-based
lint framework whose rules encode repo-specific invariants the search and
its instrumentation depend on (facade discipline around the load engine,
centralized constructor validation, no from-scratch load evaluation in
the search's loops, process pools only through the resilient executor,
picklable executor workers, literal trace and metric names).  Run it as::

    python -m repro.devtools.lint src tests
    repro lint src tests

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue.
"""

from repro.devtools.lint import Finding, Rule, all_rules, lint_paths

__all__ = ["Finding", "Rule", "all_rules", "lint_paths"]
