"""Property: the FFT backend's coset test is ``|P - P| = |P|``.

:meth:`FFTBackend.supports` classifies a complete-exchange placement
with a remembered verdict, a constant-cost probe, a lookup of subgroups
the spectral plan has already verified, and a closure check only for
new ones.  Hypothesis drives random placements, linear cosets,
principal subtori, unions of two classes of one linear form and unions
of two cosets of a spanned subgroup on tori up to :math:`T_6^3`, and
checks the verdict against the difference-set definition — on a fresh
plan cache, on the same cache once ``compute`` has remembered the
placement, and on a cache whose plan verified the subgroup through
another coset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.engine import FFTBackend
from repro.load.plancache import PlanCache, using_plan_cache
from repro.placements.base import Placement
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


@st.composite
def coset_case(draw):
    """``(placement, routing)`` on tori up to T_6^3."""
    k = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=3))
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

    def form_class(offset):
        return linear_placement(
            torus, coefficients=coefficients, offset=offset % k
        ).node_ids

    kinds = ["random", "linear", "adjacent-classes", "two-cosets"]
    if d >= 2:
        kinds.append("subtorus")
    if k % 2 == 0:
        kinds.append("opposite-classes")
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        size = draw(st.integers(min_value=2, max_value=torus.num_nodes))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        placement = random_placement(torus, size, seed=seed)
    elif kind == "linear":
        placement = Placement(torus, form_class(c))
    elif kind == "subtorus":
        placement = single_subtorus_placement(
            torus,
            dim=draw(st.integers(min_value=0, max_value=d - 1)),
            value=c,
        )
    elif kind == "adjacent-classes":
        # classes c and c+1: not a coset for k >= 3
        placement = Placement(
            torus, np.concatenate([form_class(c), form_class(c + 1)])
        )
    elif kind == "two-cosets":
        # r + (S ∪ (S + t)) for the subgroup S spanned by a and b: a
        # coset exactly when 2t ∈ S
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
        placement = Placement(
            torus, np.concatenate([form_class(c), form_class(c + k // 2)])
        )
    routing = draw(
        st.sampled_from(
            [OrderedDimensionalRouting(d), UnorderedDimensionalRouting()]
        )
    )
    return placement, routing


def _difference_set_size(placement) -> int:
    coords = placement.coords()
    k = placement.torus.k
    strides = k ** np.arange(placement.torus.d - 1, -1, -1)
    diffs = np.mod(coords[:, None, :] - coords[None, :, :], k) @ strides
    return int(np.unique(diffs).size)


@given(coset_case())
@settings(max_examples=150, deadline=None)
def test_verdict_is_the_difference_set_test(case):
    placement, routing = case
    # a lone processor has no pairs and never takes the spectral path
    expected = len(placement) >= 2 and (
        _difference_set_size(placement) == len(placement)
    )
    with using_plan_cache(PlanCache()):
        fresh = FFTBackend().supports(placement, routing)
        # compute remembers a coset's verdict
        FFTBackend().compute(placement, routing)
        warm = FFTBackend().supports(placement, routing)
    # a plan that verified the subgroup through a translate of P
    torus = placement.torus
    shifted = Placement(
        torus,
        torus.node_ids(np.mod(placement.coords() + 1, torus.k)),
    )
    with using_plan_cache(PlanCache()):
        FFTBackend().compute(shifted, routing)
        via_subgroup = FFTBackend().supports(placement, routing)
    assert fresh == warm == via_subgroup == expected
