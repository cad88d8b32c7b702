#!/usr/bin/env python3
"""Capacity planning: how many processors can a torus support?

The paper's headline: a fully populated k-torus saturates — its busiest
link carries Θ(|P|^(1+1/d)) messages under complete exchange — while a
linear placement of k^(d-1) processors keeps the busiest link at Θ(|P|).
This example sweeps k for both families, fits the growth exponents, and
evaluates Eq. 9's ceiling on optimal placement size.

Run:  python examples/capacity_planning.py
"""

from repro.core.scaling import fit_power_law, scaling_rows
from repro.load import formulas
from repro.placements.fully import FullyPopulatedFamily
from repro.placements.linear import LinearPlacementFamily
from repro.routing.odr import OrderedDimensionalRouting
from repro.util.tables import Table

D = 2
KS_LINEAR = [4, 6, 8, 12, 16, 20]
KS_FULL = [4, 6, 8, 10, 12]


def main() -> None:
    table = Table(
        ["k", "family", "|P|", "E_max", "E_max/|P|"],
        title=f"busiest-link load under complete exchange (d={D}, ODR)",
    )
    rows_lin = scaling_rows(
        LinearPlacementFamily(), OrderedDimensionalRouting, D, KS_LINEAR
    )
    rows_full = scaling_rows(
        FullyPopulatedFamily(), OrderedDimensionalRouting, D, KS_FULL
    )
    for k, size, emax, ratio in rows_lin:
        table.add_row([k, "linear", size, emax, ratio])
    for k, size, emax, ratio in rows_full:
        table.add_row([k, "fully populated", size, emax, ratio])
    print(table.render())
    print()

    fit_lin = fit_power_law([r[1] for r in rows_lin], [r[2] for r in rows_lin])
    fit_full = fit_power_law([r[1] for r in rows_full], [r[2] for r in rows_full])
    print(f"growth exponents (E_max ~ C * |P|^alpha):")
    print(f"  linear placement : alpha = {fit_lin.exponent:.3f}  (paper: 1)")
    print(f"  fully populated  : alpha = {fit_full.exponent:.3f}  "
          f"(paper: 1 + 1/d = {1 + 1 / D:.3f} asymptotically)")
    print()

    print("Eq. 9 capacity ceiling (|P| <= 12*d*c1*k^(d-1), with the measured "
          "c1 = E_max/|P|):")
    c1 = rows_lin[-1][3]
    for k in KS_LINEAR:
        ceiling = formulas.max_placement_size_bound(c1, k, D)
        print(f"  k={k:3d}: linear placement uses {k ** (D - 1):4d} of "
              f"<= {ceiling:g} admissible processors")


if __name__ == "__main__":
    main()
