"""The synchronous cycle engine.

Model (store-and-forward, unit link bandwidth):

* every directed link transmits **at most one packet per cycle**;
* each link has an unbounded FIFO output queue at its tail node;
* a packet released at cycle ``c`` joins its first link's queue at ``c``;
  when a link serves it at cycle ``c'``, it joins the next link's queue at
  ``c' + 1`` (or is delivered);
* paths are fixed at injection, so there is no routing-induced deadlock.

The per-link traversal counters this produces are the simulator's estimate
of Definition 4's load; for deterministic routing (ODR) they equal the
analytic loads exactly, for UDR they match in expectation (EXP-12 checks
both).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import SimulationError
from repro.obs.tracer import current_tracer
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet

__all__ = ["CycleEngine", "SimulationResult"]

#: per-cycle `sim.cycle` spans are emitted only for the first N cycles of
#: a traced run — enough to see the warm-up/drain shape without letting a
#: pathological million-cycle run flood the trace file.
MAX_CYCLE_SPANS = 512


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run reports.

    Attributes
    ----------
    cycles:
        Total cycles until the last delivery (the makespan).
    link_counts:
        Per-link traversal totals, length ``num_edges``.
    latencies:
        Per-packet delivery latency, aligned with the packet list.
    max_queue_length:
        Peak backlog observed on any single link queue.
    delivered:
        Number of packets delivered (always all of them — queues are
        unbounded and paths fixed).
    """

    cycles: int
    link_counts: np.ndarray
    latencies: np.ndarray
    max_queue_length: int
    delivered: int

    @property
    def max_link_count(self) -> int:
        """The busiest link's traversal count — compare to :math:`E_{max}`."""
        return int(self.link_counts.max())

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    @property
    def throughput(self) -> float:
        """Delivered packets per cycle."""
        return self.delivered / self.cycles if self.cycles else 0.0


class CycleEngine:
    """Run a packet list over a :class:`SimNetwork` to completion."""

    def __init__(self, network: SimNetwork, max_cycles: int = 1_000_000):
        self.network = network
        self.max_cycles = int(max_cycles)

    def run(self, packets: list[Packet]) -> SimulationResult:
        """Simulate until every packet is delivered.

        Raises
        ------
        SimulationError
            If a packet's path uses a failed link, or ``max_cycles`` is
            exceeded (which would indicate an engine bug — the model
            cannot deadlock).
        """
        net = self.network
        tracer = current_tracer()
        with tracer.span(
            "sim.run", engine="cycle", packets=len(packets)
        ) as run_span:
            result = self._run(packets, net, tracer)
            run_span.annotate(cycles=result.cycles, delivered=result.delivered)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("sim.packets_routed").add(result.delivered)
            metrics.counter("sim.cycles").add(result.cycles)
        return result

    def _run(
        self, packets: list[Packet], net: SimNetwork, tracer
    ) -> SimulationResult:
        traced = tracer.enabled
        contention = tracer.metrics.histogram("sim.contention")
        paths = [p.edge_ids for p in packets]
        hops = np.fromiter(
            chain.from_iterable(paths),
            dtype=np.int64,
            count=sum(map(len, paths)),
        )
        if not net.alive[hops].all():
            bad = next(p for p in packets if not net.check_path_alive(p.edge_ids))
            raise SimulationError(
                f"packet {bad.packet_id} routed over a failed link; "
                "use FaultMaskedRouting when building the workload"
            )
        for p in packets:
            p.hop = 0
            p.delivered_cycle = None
        release = [p.release_cycle for p in packets]
        lengths = [len(path) for path in paths]

        # release schedule: cycle -> packet indices entering their next queue
        pending: dict[int, list[int]] = {}
        delivered_at: list[int | None] = [None] * len(packets)
        zero_hop = 0
        for i, length in enumerate(lengths):
            if length == 0:
                # src == dst message: delivered instantly, no link used
                delivered_at[i] = packets[i].delivered_cycle = release[i]
                zero_hop += 1
                continue
            pending.setdefault(release[i], []).append(i)

        hop = [0] * len(packets)
        queues: dict[int, deque[int]] = {}
        served_edges: list[int] = []
        depths: list[int] = []
        max_queue = 0
        delivered = zero_hop
        total = len(packets)
        cycle = 0
        last_delivery = 0

        while delivered < total:
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles} with "
                    f"{total - delivered} packets in flight"
                )
            # deliberate manual handle: the span is conditional (capped
            # at MAX_CYCLE_SPANS) and closed at two exit points below.
            cycle_span = (
                tracer.span("sim.cycle", cycle=cycle)
                if traced and cycle < MAX_CYCLE_SPANS
                else None
            )
            if cycle_span is not None:
                cycle_span.__enter__()
            # arrivals scheduled for this cycle
            for i in pending.pop(cycle, ()):  # packets join queues
                edge = paths[i][hop[i]]
                q = queues.get(edge)
                if q is None:
                    q = queues[edge] = deque()
                q.append(i)
                depth = len(q)
                if depth > max_queue:
                    max_queue = depth
                if traced:
                    # queue depth at arrival = instantaneous contention
                    depths.append(depth)
            # each live link serves one head-of-line packet
            served = len(queues)
            arrivals = pending.setdefault(cycle + 1, [])
            for edge, q in list(queues.items()):
                i = q.popleft()
                if not q:
                    del queues[edge]
                served_edges.append(edge)
                hop[i] += 1
                if hop[i] == lengths[i]:
                    delivered_at[i] = packets[i].delivered_cycle = cycle + 1
                    delivered += 1
                    last_delivery = cycle + 1
                else:
                    arrivals.append(i)
            if cycle_span is not None:
                cycle_span.annotate(served=served)
                cycle_span.__exit__(None, None, None)
            cycle += 1

        for depth, count in Counter(depths).items():
            contention.observe(depth, count=count)
        for p, h in zip(packets, hop):
            p.hop = h
        net.link_counts += np.bincount(
            np.asarray(served_edges, dtype=np.int64), minlength=net.link_counts.size
        )
        latencies = np.array(
            [at - r for at, r in zip(delivered_at, release)], dtype=np.int64
        )
        return SimulationResult(
            cycles=last_delivery,
            link_counts=net.link_counts.copy(),
            latencies=latencies,
            max_queue_length=max_queue,
            delivered=delivered,
        )
