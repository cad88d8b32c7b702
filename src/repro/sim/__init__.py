"""Cycle-accurate store-and-forward packet simulator.

This is the reproduction's substitute for physical torus hardware (see
DESIGN.md §2): messages are injected by processor nodes, follow a path
sampled uniformly from the routing relation (Definition 3's random path
choice), and contend for links — each directed link transmits one packet
per cycle, with FIFO output queues.

The simulator produces per-link traversal counters (whose expectation is
exactly Definition 4's load :math:`\\mathcal{E}(l)`), packet latencies, and
completion time, and supports link-fault injection for the Section 7
fault-tolerance experiments.
"""

from repro.sim.packet import Packet
from repro.sim.network import SimNetwork
from repro.sim.engine import CycleEngine, SimulationResult
from repro.sim.workloads import complete_exchange_packets, build_packets
from repro.sim.metrics import summarize_link_counts
from repro.sim.fault_injection import (
    random_link_failures,
    pair_connectivity_under_faults,
    FaultToleranceStats,
)
from repro.sim.validate import compare_sim_to_analytic, ValidationReport
from repro.sim.wormhole import (
    WormholeConfig,
    WormholeEngine,
    WormholeResult,
    assign_virtual_channels,
)

__all__ = [
    "Packet",
    "SimNetwork",
    "CycleEngine",
    "SimulationResult",
    "complete_exchange_packets",
    "build_packets",
    "summarize_link_counts",
    "random_link_failures",
    "pair_connectivity_under_faults",
    "FaultToleranceStats",
    "compare_sim_to_analytic",
    "ValidationReport",
    "WormholeConfig",
    "WormholeEngine",
    "WormholeResult",
    "assign_virtual_channels",
]
