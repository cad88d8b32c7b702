"""Properties: the FFT backend's verdict is the stabilizer test, and its
shifted loads are the path table's.

:meth:`FFTBackend.supports` accepts a complete-exchange placement ``P``
whose translation stabilizer ``H = {h : P + h = P}`` is nontrivial, and
records ``H`` and the ``D = |P - P| / |H|`` difference classes.
Hypothesis drives random placements, linear cosets, principal subtori,
unions of two, of several and of two opposite classes of one linear
form, and unions of two cosets of a spanned subgroup on tori up to
:math:`T_6^3`.  The verdict is checked against a brute-force stabilizer
over all :math:`k^d` translations — on a fresh plan cache, on the same
cache once ``compute`` has remembered the placement, and on a cache
whose plan already holds the loads of a translate of ``P``.  On the
smaller tori the loads of every kind must equal the reference oracle's
after ``snap_loads`` under ODR, UDR and all-minimal routing.

Unions of cosets of a spanned subgroup and their translates, on
:math:`T_2^1` to :math:`T_9^4`, must take the shift and come out
``np.array_equal`` to ``vectorized``'s loads, dtype included, under
ODR, a drawn dimension order and UDR; on the smallest tori
``cross_check`` holds under all-minimal routing too.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import FFTBackend, VectorizedBackend, cross_check
from repro.load.plancache import PlanCache, using_plan_cache
from repro.load.quantize import snap_loads
from repro.placements.base import Placement
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

#: every torus up to T_6^3.
ALL_TORI = [(k, d) for k in range(2, 7) for d in range(1, 4)]
#: tori small enough for the reference oracle under all-minimal routing.
ORACLE_TORI = [(k, d) for k, d in ALL_TORI if k**d <= 36]
#: every torus of the shift property: d = 1-4, k = 2-9.
SHIFT_TORI = [(k, d) for k in range(2, 10) for d in range(1, 5)]


@st.composite
def placement_case(draw, tori):
    """A placement of one of the kinds above on one of ``tori``."""
    k, d = draw(st.sampled_from(tori))
    torus = Torus(k, d)
    # a linear form with a unit coefficient, so every class is nonempty
    coefficients = draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=d - 1,
            max_size=d - 1,
        )
    ) + [1]
    c = draw(st.integers(min_value=0, max_value=k - 1))

    def form_classes(offsets):
        return np.concatenate(
            [
                linear_placement(
                    torus, coefficients=coefficients, offset=offset % k
                ).node_ids
                for offset in offsets
            ]
        )

    kinds = ["random", "linear", "adjacent-classes", "two-cosets"]
    if d >= 2:
        kinds.append("subtorus")
    if k >= 3:
        kinds.append("several-classes")
    if k % 2 == 0:
        kinds.append("opposite-classes")
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        size = draw(st.integers(min_value=2, max_value=torus.num_nodes))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        placement = random_placement(torus, size, seed=seed)
    elif kind == "linear":
        placement = Placement(torus, form_classes([c]))
    elif kind == "subtorus":
        placement = single_subtorus_placement(
            torus,
            dim=draw(st.integers(min_value=0, max_value=d - 1)),
            value=c,
        )
    elif kind == "adjacent-classes":
        # classes c and c+1: D = 3 for k >= 3
        placement = Placement(torus, form_classes([c, c + 1]))
    elif kind == "several-classes":
        # t >= 3 consecutive classes: D = 2t - 1 while that is below k
        t = draw(st.integers(min_value=3, max_value=k))
        placement = Placement(torus, form_classes(range(c, c + t)))
    elif kind == "two-cosets":
        # r + (S ∪ (S + t)) for the subgroup S spanned by a and b
        a, b, t, r = (
            np.array(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=k - 1),
                        min_size=d,
                        max_size=d,
                    )
                )
            )
            for _ in range(4)
        )
        span = np.arange(k)
        subgroup = np.mod(
            span[:, None, None] * a + span[None, :, None] * b, k
        ).reshape(-1, d)
        points = np.mod(np.concatenate([subgroup, subgroup + t]) + r, k)
        placement = Placement(torus, np.unique(torus.node_ids(points)))
    else:
        # classes c and c+k/2: a coset of an index-k/2 subgroup
        placement = Placement(torus, form_classes([c, c + k // 2]))
    return placement


def _brute_force(placement) -> tuple[np.ndarray, int]:
    """``(sorted ids of H, D)`` from all ``k^d`` translations."""
    torus = placement.torus
    k = torus.k
    coords = placement.coords()
    translations = torus.coords(np.arange(torus.num_nodes))
    moved = np.mod(translations[:, None, :] + coords[None, :, :], k)
    inside = placement.mask()[torus.node_ids(moved.reshape(-1, torus.d))]
    stabilizer = np.flatnonzero(inside.reshape(torus.num_nodes, -1).all(1))
    differences = np.mod(coords[:, None, :] - coords[None, :, :], k)
    count = np.unique(torus.node_ids(differences.reshape(-1, torus.d))).size
    return stabilizer, count // stabilizer.size


_ROUTINGS = [
    lambda d: OrderedDimensionalRouting(d),
    lambda d: UnorderedDimensionalRouting(),
]


@given(placement_case(ALL_TORI), st.sampled_from(_ROUTINGS))
@settings(max_examples=150, deadline=None)
def test_verdict_is_the_difference_set_test(placement, make_routing):
    """Accepted iff ``H`` is nontrivial, recording ``H`` and its ``D`` classes."""
    routing = make_routing(placement.torus.d)
    stabilizer, classes = _brute_force(placement)
    expected = stabilizer.size > 1
    key = (placement.torus.k, placement.torus.d, placement.node_ids.tobytes())
    with using_plan_cache(PlanCache()) as cache:
        fresh = FFTBackend().supports(placement, routing)
        cover = cache.verdict(key)
        # compute remembers an accepted placement's verdict
        FFTBackend().compute(placement, routing)
        warm = FFTBackend().supports(placement, routing)
    # a plan that already holds the loads of a translate of P
    torus = placement.torus
    shifted = Placement(
        torus,
        torus.node_ids(np.mod(placement.coords() + 1, torus.k)),
    )
    with using_plan_cache(PlanCache()):
        FFTBackend().compute(shifted, routing)
        via_subgroup = FFTBackend().supports(placement, routing)
    assert fresh == warm == via_subgroup == expected
    if expected:
        assert np.array_equal(
            np.frombuffer(cover.subgroup, dtype=np.int64), stabilizer[1:]
        )
        assert len(cover.classes) == classes
        # each class is named by the smallest node id of its coset of H
        for label in cover.classes:
            coset = torus.node_ids(
                np.mod(torus.coords(label) + torus.coords(stabilizer), torus.k)
            )
            assert label == coset.min()


@given(
    placement_case(ORACLE_TORI),
    st.sampled_from(_ROUTINGS + [lambda d: AllMinimalPaths()]),
)
@settings(max_examples=40, deadline=None)
def test_fft_loads_equal_the_reference(placement, make_routing):
    torus = placement.torus
    routing = make_routing(torus.d)
    with using_plan_cache(PlanCache()):
        got = FFTBackend().compute(placement, routing)
    oracle = edge_loads_reference(placement, routing)
    # every load is a multiple of 1 / (the LCM of the path-set sizes)
    origin = np.zeros(torus.d, dtype=np.int64)
    quantum = math.lcm(
        *(
            routing.num_paths(torus, origin, delta)
            for delta in torus.coords(np.arange(1, torus.num_nodes))
        )
    )
    assert np.array_equal(
        snap_loads(got, quantum), snap_loads(oracle, quantum)
    )


@st.composite
def stabilized_case(draw, tori):
    """A union of cosets of a nontrivial subgroup, and a translate of it.

    The subgroup is spanned by a nonzero vector ``a`` and a vector ``b``;
    one to three cosets are drawn, then a translation ``r``.
    """
    k, d = draw(st.sampled_from(tori))
    torus = Torus(k, d)
    vector = st.lists(
        st.integers(min_value=0, max_value=k - 1), min_size=d, max_size=d
    )
    a = np.array(draw(vector))
    a[draw(st.integers(min_value=0, max_value=d - 1))] = draw(
        st.integers(min_value=1, max_value=k - 1)
    )
    b = np.array(draw(vector))
    span = np.arange(k)
    subgroup = np.mod(
        span[:, None, None] * a + span[None, :, None] * b, k
    ).reshape(-1, d)
    offsets = np.array(draw(st.lists(vector, min_size=1, max_size=3)))
    points = np.mod(subgroup[None] + offsets[:, None], k).reshape(-1, d)
    r = np.array(draw(vector))
    return (
        Placement(torus, torus.node_ids(points), name="cosets"),
        Placement(torus, torus.node_ids(np.mod(points + r, k)), name="moved"),
    )


@given(stabilized_case(SHIFT_TORI), st.data())
@settings(max_examples=60, deadline=None)
def test_translates_equal_vectorized(case, data):
    base, moved = case
    d = base.torus.d
    order = data.draw(st.permutations(range(d)))
    routings = [
        OrderedDimensionalRouting(d),
        DimensionOrderRouting(tuple(order)),
        UnorderedDimensionalRouting(),
    ]
    with using_plan_cache(PlanCache()) as cache:
        for routing in routings:
            for placement in (base, moved):
                assert FFTBackend().supports(placement, routing)
                got = FFTBackend().compute(placement, routing)
                expected = VectorizedBackend().compute(placement, routing)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), routing.name
            # the memo holds translates through the origin only
            memo = cache.get(base.torus, routing).spectra
            assert memo
            assert all(np.frombuffer(key, dtype=np.int64)[0] == 0 for key in memo)


@given(stabilized_case(ORACLE_TORI))
@settings(max_examples=30, deadline=None)
def test_translates_cross_check_under_all_minimal_paths(case):
    with using_plan_cache(PlanCache()):
        for placement in case:
            diffs = cross_check(placement, AllMinimalPaths(), backends=["fft"])
            assert "fft" in diffs
