"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.placements.linear import linear_placement
from repro.torus.topology import Torus


@pytest.fixture
def torus_4_2() -> Torus:
    """A small even-radix 2-D torus."""
    return Torus(4, 2)


@pytest.fixture
def torus_5_2() -> Torus:
    """A small odd-radix 2-D torus (no half-ring ties)."""
    return Torus(5, 2)


@pytest.fixture
def torus_4_3() -> Torus:
    """A small 3-D torus."""
    return Torus(4, 3)


@pytest.fixture
def torus_6_3() -> Torus:
    """A mid-size 3-D torus for uniformity/bisection checks."""
    return Torus(6, 3)


@pytest.fixture
def linear_4_2(torus_4_2: Torus):
    """Linear placement on T_4^2."""
    return linear_placement(torus_4_2)


@pytest.fixture
def linear_5_2(torus_5_2: Torus):
    """Linear placement on T_5^2."""
    return linear_placement(torus_5_2)


@pytest.fixture
def linear_4_3(torus_4_3: Torus):
    """Linear placement on T_4^3."""
    return linear_placement(torus_4_3)


@pytest.fixture
def sim_exchange():
    """Build a seeded complete exchange for the simulator pins.

    ``sim_exchange(kind, k, d, routing, seed, rounds, stagger, scrambled)``
    returns ``(placement, packets)``.  ``kind`` is ``"linear"``,
    ``"twoclass"`` (two linear classes) or ``"random"`` (``2k`` nodes);
    ``routing`` is ``"odr"``, ``"udr"`` or ``"rev"`` (dimension order
    reversed).  ``scrambled`` shuffles the packets, gives them sparse ids
    ``7i + 3`` and release cycles in ``[0, 6)``, and inserts a zero-hop
    packet with id 1.
    """
    import numpy as np

    from repro.placements.multiple import multiple_linear_placement
    from repro.placements.random_placement import random_placement
    from repro.routing.dimension_order import DimensionOrderRouting
    from repro.routing.odr import OrderedDimensionalRouting
    from repro.routing.udr import UnorderedDimensionalRouting
    from repro.sim.packet import Packet
    from repro.sim.workloads import complete_exchange_packets

    def build(kind, k, d, routing, seed, rounds, stagger, scrambled):
        torus = Torus(k, d)
        placement = {
            "linear": lambda: linear_placement(torus),
            "twoclass": lambda: multiple_linear_placement(torus, 2),
            "random": lambda: random_placement(torus, 2 * k, seed=10 * k + d),
        }[kind]()
        routing = {
            "odr": lambda: OrderedDimensionalRouting(d),
            "udr": UnorderedDimensionalRouting,
            "rev": lambda: DimensionOrderRouting(tuple(reversed(range(d)))),
        }[routing]()
        packets = complete_exchange_packets(
            placement, routing, seed=seed, rounds=rounds, stagger=stagger
        )
        if scrambled:
            rng = np.random.default_rng(seed)
            packets = [
                Packet(
                    7 * int(i) + 3,
                    packets[i].src,
                    packets[i].dst,
                    packets[i].edge_ids,
                    release_cycle=int(rng.integers(6)),
                )
                for i in rng.permutation(len(packets))
            ]
            src = packets[0].src
            packets.insert(len(packets) // 2, Packet(1, src, src, (), release_cycle=2))
        return placement, packets

    return build
