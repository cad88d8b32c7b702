"""Property-based consistency between the optimality machinery layers.

The catalog (exhaustive), the local search (heuristic), and the bounds
must tell one coherent story: no search result beats the catalog minimum,
no catalog minimum beats the best lower bound, and the per-dimension
decomposition agrees with the global maximum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.bounds import best_known_lower_bound
from repro.load.distribution import per_dimension_max
from repro.load.odr_loads import odr_edge_loads
from repro.placements.base import Placement
from repro.placements.catalog import global_minimum_emax
from repro.placements.search import local_search_placement
from repro.torus.topology import Torus


class TestLayersAgree:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_search_never_beats_catalog(self, seed):
        torus = Torus(3, 2)
        catalog = global_minimum_emax(torus, 3)
        rng = np.random.default_rng(seed)
        ids = rng.choice(torus.num_nodes, size=3, replace=False)
        start = Placement(torus, ids)
        res = local_search_placement(start, max_moves=10, seed=seed)
        assert res.best_emax >= catalog.minimum_emax - 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_bounds_below_any_placement(self, seed):
        torus = Torus(4, 2)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 8))
        ids = rng.choice(torus.num_nodes, size=size, replace=False)
        placement = Placement(torus, ids)
        emax = float(odr_edge_loads(placement).max())
        report = best_known_lower_bound(placement)
        assert emax >= report.best - 1e-9


class TestDistributionConsistency:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_global_max_is_max_of_dim_maxima(self, k, d, seed):
        torus = Torus(k, d)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, min(7, torus.num_nodes) + 1))
        ids = rng.choice(torus.num_nodes, size=size, replace=False)
        placement = Placement(torus, ids)
        loads = odr_edge_loads(placement)
        assert per_dimension_max(torus, loads).max() == loads.max()
