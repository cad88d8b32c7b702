"""EXP-21 and EXP-22 — ablation and exhaustive-certification experiments.

EXP-21 (tie-break ablation): §6 notes that for even ``k`` the unrestricted
ODR has multiple minimal paths (both directions of a half-ring tie).  The
paper *restricts* to the ``+`` direction for analysis; this experiment
measures what the restriction costs: splitting tie traffic lowers
:math:`E_{max}` (and can only lower it), while totals are conserved and
odd ``k`` is untouched (no ties exist).

EXP-22 (global optimality, exact certification): certify the global
minimum ODR :math:`E_{max}` over *every* placement of size :math:`k^{d-1}`
on small tori — upgrading EXP-19's "local search never beat it" to
"nothing beats it".  The sweep runs on the symmetry-reduced
branch-and-bound engine (:mod:`repro.placements.exact_search`), which
reaches :math:`T_5^2` and :math:`T_6^2`, cross-checked against the
brute-force catalog where the latter is feasible.  The extended range
pays off scientifically: the linear placement is exactly optimal for
``k = 3, 4, 5`` but **not** for ``k = 6``, where non-uniform placements
on the even sublattice achieve :math:`E_{max} = 2` against the linear
placement's 3 (and even the unrestricted-ODR linear value of 2.5).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult, register
from repro.load.engine import LoadEngine
from repro.load.odr_loads import odr_edge_loads
from repro.placements.catalog import global_minimum_emax
from repro.placements.exact_search import exact_global_minimum
from repro.placements.linear import linear_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.odr_unrestricted import UnrestrictedODR
from repro.torus.topology import Torus
from repro.util.tables import Table

__all__ = ["run_tie_ablation", "run_global_optimality"]


@register(
    "EXP-21",
    "Tie-break ablation: restricted vs unrestricted ODR on even k",
    "Section 6 (the restricted-ODR convention)",
)
def run_tie_ablation(quick: bool = False) -> ExperimentResult:
    """EXP-21: Tie-break ablation: restricted vs unrestricted ODR (see module docstring)."""
    result = ExperimentResult(
        "EXP-21", "Tie-break ablation: restricted vs unrestricted ODR on even k"
    )
    configs = [(4, 2), (6, 2)] if quick else [(4, 2), (6, 2), (8, 2), (4, 3)]
    configs += [(5, 2)]  # odd-k control
    table = Table(
        ["d", "k", "restricted E_max", "unrestricted E_max",
         "unrestricted <= restricted", "totals equal"],
        title="EXP-21: the + tie-break's cost on linear placements",
    )
    unrestricted_helps_even = True
    odd_untouched = True
    for k, d in configs:
        placement = linear_placement(Torus(k, d))
        restricted = odr_edge_loads(placement)
        unrestricted = LoadEngine("reference").edge_loads(
            placement, UnrestrictedODR()
        )
        r_max, u_max = float(restricted.max()), float(unrestricted.max())
        totals_equal = abs(restricted.sum() - unrestricted.sum()) < 1e-9
        table.add_row([d, k, r_max, u_max, u_max <= r_max + 1e-9, totals_equal])
        result.check(
            u_max <= r_max + 1e-9,
            f"d={d} k={k}: splitting tie traffic never increases E_max "
            f"({u_max:g} <= {r_max:g})",
        )
        result.check(
            totals_equal,
            f"d={d} k={k}: both conventions carry the same total traffic",
        )
        if k % 2 == 0:
            unrestricted_helps_even &= u_max < r_max
        else:
            odd_untouched &= bool(np.allclose(restricted, unrestricted))
    result.tables.append(table)
    result.check(
        unrestricted_helps_even,
        "for every even-k configuration the unrestricted version strictly "
        "lowers E_max (tie traffic dominated the busiest link)",
    )
    result.check(
        odd_untouched,
        "for odd k the two conventions produce identical loads (no ties "
        "exist — matching the paper's |C| = 1 remark)",
    )
    return result


@register(
    "EXP-22",
    "Global optimality, exactly certified: where the linear placement stands",
    "Sections 4-6 (exhaustive certification extension)",
)
def run_global_optimality(quick: bool = False) -> ExperimentResult:
    """EXP-22: Exact global-optimality certification (see module docstring)."""
    result = ExperimentResult(
        "EXP-22",
        "Global optimality, exactly certified: where the linear placement stands",
    )
    ks = [3] if quick else [3, 4, 5, 6]
    table = Table(
        ["k", "|P|", "placements evaluated", "global min E_max",
         "linear E_max", "optimal placements", "linear optimal"],
        title="EXP-22: exact certification of all size-k placements on T_k^2 (ODR)",
    )
    for k in ks:
        torus = Torus(k, 2)
        linear_emax = LoadEngine("fft").emax(
            linear_placement(torus), OrderedDimensionalRouting(2)
        )
        certified = exact_global_minimum(
            torus, k, mode="bound", initial_upper_bound=linear_emax
        )
        linear_optimal = abs(certified.minimum_emax - linear_emax) < 1e-9
        table.add_row(
            [k, k, certified.num_placements, certified.minimum_emax,
             linear_emax, certified.num_optimal, linear_optimal]
        )
        # the witness is re-verified with an independent full evaluation
        witness_emax = float(odr_edge_loads(certified.example_optimal).max())
        result.check(
            abs(witness_emax - certified.minimum_emax) < 1e-9,
            f"T_{k}^2: the optimality witness re-evaluates to the certified "
            f"minimum E_max = {certified.minimum_emax:g}",
        )
        if k <= 4:
            catalog = global_minimum_emax(torus, k)
            result.check(
                catalog.minimum_emax == certified.minimum_emax
                and catalog.num_optimal == certified.num_optimal,
                f"T_{k}^2: symmetry-reduced search matches the brute-force "
                f"catalog bit-for-bit (min {certified.minimum_emax:g}, "
                f"{certified.num_optimal} optimal)",
            )
        if k <= 5:
            result.check(
                linear_optimal,
                f"T_{k}^2: the linear placement achieves the global minimum "
                f"E_max = {certified.minimum_emax:g} over all "
                f"{certified.num_placements} size-{k} placements",
            )
        else:
            result.check(
                certified.minimum_emax < linear_emax - 1e-9,
                f"T_{k}^2: the linear placement (E_max = {linear_emax:g}) is "
                f"NOT globally optimal — {certified.num_optimal} placements "
                f"achieve E_max = {certified.minimum_emax:g}",
            )
            result.check(
                certified.minimum_emax == 2.0 and certified.num_optimal == 24,
                f"T_6^2: exactly 24 optimal placements at E_max = 2 "
                "(non-uniform even-sublattice patterns, e.g. "
                f"{sorted(map(tuple, certified.example_optimal.coords().tolist()))})",
            )
    result.tables.append(table)
    result.note(
        "certification is exact and exhaustive: orbit enumeration under the "
        "full automorphism group with orbit-stabilizer counting covers all "
        "C(k^2, k) placements; branch-and-bound pruning never discards an "
        "achiever of the minimum"
    )
    if not quick:
        result.note(
            "k = 6 is a genuine boundary of the optimality claim: the "
            "restricted-ODR linear placement is beaten by E_max = 2 "
            "even-sublattice placements, which also undercut the "
            "unrestricted-ODR linear value of 2.5 — the paper's optimality "
            "statement is asymptotic/lower-bound-based, not a per-instance "
            "guarantee for every k"
        )
    return result
