"""Property: batched evaluation is indistinguishable from sequential.

Hypothesis drives random batches — linear, random, and subtorus
placements mixed freely on tori up to :math:`T_5^3`, under ODR, UDR, and
all-minimal routing — and checks that every row of
``LoadEngine.edge_loads_many`` is *bit*-identical (``np.array_equal``,
not allclose) to the corresponding sequential ``edge_loads`` call, for
any block size, including blocks smaller than the batch.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.engine import LoadEngine, facade
from repro.load.plancache import PlanCache, using_plan_cache
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


@st.composite
def batch_case(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=3))
    torus = Torus(k, d)

    def one_placement():
        family = draw(st.sampled_from(["linear", "random", "subtorus"]))
        if family == "linear":
            # Definition 10 needs one coefficient coprime to k — pin the
            # last to 1 and let the rest roam.
            coeffs = draw(
                st.lists(
                    st.integers(min_value=0, max_value=k - 1),
                    min_size=d - 1,
                    max_size=d - 1,
                )
            ) + [1]
            offset = draw(st.integers(min_value=0, max_value=k - 1))
            return linear_placement(torus, coefficients=coeffs, offset=offset)
        if family == "random":
            size = draw(
                st.integers(min_value=2, max_value=min(8, torus.num_nodes))
            )
            seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
            return random_placement(torus, size, seed=seed)
        dim = draw(st.integers(min_value=0, max_value=d - 1))
        value = draw(st.integers(min_value=0, max_value=k - 1))
        return single_subtorus_placement(torus, dim=dim, value=value)

    batch_len = draw(st.integers(min_value=1, max_value=6))
    placements = [one_placement() for _ in range(batch_len)]
    routing = draw(
        st.sampled_from(
            [
                OrderedDimensionalRouting(d),
                UnorderedDimensionalRouting(),
                AllMinimalPaths(),
            ]
        )
    )
    block = draw(st.integers(min_value=1, max_value=batch_len))
    return placements, routing, block


@given(batch_case())
@settings(max_examples=50, deadline=None)
def test_batched_rows_bit_identical_to_sequential(case):
    placements, routing, block = case
    with using_plan_cache(PlanCache()), mock.patch.object(
        facade, "_BLOCK", block
    ):
        engine = LoadEngine("fft")
        batched = engine.edge_loads_many(placements, routing)
        sequential = np.stack(
            [engine.edge_loads(p, routing) for p in placements]
        )
    assert batched.shape == sequential.shape
    assert np.array_equal(batched, sequential)


@given(batch_case())
@settings(max_examples=25, deadline=None)
def test_emax_many_bit_identical_to_sequential_emax(case):
    placements, routing, block = case
    with using_plan_cache(PlanCache()), mock.patch.object(
        facade, "_BLOCK", block
    ):
        engine = LoadEngine("fft")
        batched = engine.emax_many(placements, routing)
        single = [engine.emax(p, routing) for p in placements]
    assert batched.tolist() == single
