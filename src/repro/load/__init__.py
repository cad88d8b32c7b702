"""Communication-load analysis (Definitions 4–5 and all the paper's bounds).

Given a placement ``P`` and a routing algorithm ``A``, the load of a link
``l`` under complete exchange is

.. math::

    \\mathcal{E}(l) = \\sum_{p \\ne q \\in P}
        \\frac{|C^A_{p→l→q}|}{|C^A_{p→q}|}

and :math:`\\mathcal{E}_{max}` is its maximum over links.  This subpackage
computes it from two representations:

* :mod:`repro.load.edge_loads` — a generic reference implementation that
  enumerates every path of any routing algorithm (slow; test oracle);
* :mod:`repro.load.path_table` — one row of paths per displacement of a
  translation-invariant routing, in closed form for ODR, any dimension
  order and UDR (the permutation-counting identity), enumerated through
  ``routing.paths`` otherwise; cached per configuration in the plans of
  :mod:`repro.load.plancache`, and read by every fast consumer:
  :mod:`repro.load.odr_loads` (exact ODR loads and the incremental
  kernels of the searches), :mod:`repro.load.udr_loads` (exact UDR
  loads) and the backends of
  :mod:`repro.load.engine` — the :class:`~repro.load.engine.LoadEngine`
  facade, whose ``fft`` backend serves cosets and multiple linear
  placements by shifting the memoized loads of their translate through
  the origin; exact rational loads are canonicalized by
  :mod:`repro.load.quantize`;

and provides every closed form and lower bound the paper states
(:mod:`repro.load.formulas`, :mod:`repro.load.bounds`), traffic patterns
(:mod:`repro.load.traffic`), and result containers
(:mod:`repro.load.report`).
"""

from repro.load.edge_loads import edge_loads_reference
from repro.load.odr_loads import odr_edge_loads
from repro.load.udr_loads import udr_edge_loads
from repro.load import engine
from repro.load.engine import LoadEngine
from repro.load.report import LoadReport, load_report
from repro.load import formulas, bounds, quantize, plancache
from repro.load.plancache import PlanCache, current_plan_cache, using_plan_cache
from repro.load.traffic import (
    complete_exchange_weights,
    permutation_traffic_weights,
    hotspot_traffic_weights,
)

__all__ = [
    "edge_loads_reference",
    "engine",
    "LoadEngine",
    "odr_edge_loads",
    "udr_edge_loads",
    "LoadReport",
    "load_report",
    "formulas",
    "bounds",
    "quantize",
    "plancache",
    "PlanCache",
    "current_plan_cache",
    "using_plan_cache",
    "complete_exchange_weights",
    "permutation_traffic_weights",
    "hotspot_traffic_weights",
]
