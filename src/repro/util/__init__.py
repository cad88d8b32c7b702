"""Shared utilities: modular arithmetic, validation, tables, RNG helpers."""

from repro.util.modular import (
    cyclic_distance,
    cyclic_distance_array,
    lee_distance,
    lee_distance_array,
    minimal_correction,
    minimal_correction_array,
)
from repro.util.validation import (
    check_dimension,
    check_radix,
    check_torus_params,
)
from repro.util.tables import Table, format_table
from repro.util.rng import resolve_rng

__all__ = [
    "cyclic_distance",
    "cyclic_distance_array",
    "lee_distance",
    "lee_distance_array",
    "minimal_correction",
    "minimal_correction_array",
    "check_dimension",
    "check_radix",
    "check_torus_params",
    "Table",
    "format_table",
    "resolve_rng",
]
