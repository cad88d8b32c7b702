"""Flit-level wormhole-switched simulator (extension).

The paper's load model (Definition 4) counts paths; its references ([7],
[11] — Tseng et al., Ni & McKinley) study the same networks under
*wormhole* switching, where a packet is a worm of flits pipelining through
the network and holding its channels from head to tail.  This module adds
that substrate so users can see how the paper's static loads translate
into dynamic latency under a realistic flow-control model:

* each directed link carries **two virtual channels** (VC0/VC1) with
  private flit buffers; the physical link transfers at most one flit per
  cycle;
* routes are the paths of :mod:`repro.routing`; within each dimension a
  packet starts on VC0 and switches to VC1 after crossing that ring's
  **dateline** (the wraparound boundary) — the classical scheme that
  breaks the torus's cyclic channel dependences, so routing every packet
  in *one* dimension order (ODR, or any fixed order) is deadlock-free.
  UDR samples several orders in one run, and the dependences between
  them can close a cycle: such a run stops with a
  :class:`~repro.errors.SimulationError` at the first cycle in which no
  flit can move;
* a channel is owned by one packet from the moment its head flit enters
  until its tail flit leaves (wormhole allocation).

The observable outputs mirror the store-and-forward engine: per-link flit
counters (each packet contributes ``flits_per_packet`` per traversed link,
so counters normalize to Definition 4 loads), per-packet latency
(≈ hops + flits under no contention — the pipelining effect), and
completion time.

Each cycle does work in proportion to what moves: its candidate flit
crossings come from the occupied channels and the injecting packets, not
from a scan of every hop of every packet.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import InvalidParameterError, SimulationError
from repro.obs.tracer import current_tracer
from repro.sim.packet import Packet
from repro.torus.topology import Torus

__all__ = ["WormholeConfig", "WormholeResult", "WormholeEngine", "assign_virtual_channels"]

#: number of virtual channels per physical link (dateline scheme needs 2)
NUM_VCS = 2


@dataclass(frozen=True)
class WormholeConfig:
    """Flow-control parameters.

    Attributes
    ----------
    flits_per_packet:
        Worm length (head + body + tail); ``1`` degenerates to
        virtual-cut-through of single-flit packets.
    buffer_flits:
        Per-virtual-channel buffer capacity in flits.
    """

    flits_per_packet: int = 4
    buffer_flits: int = 2

    def __post_init__(self):
        if self.flits_per_packet < 1:
            raise SimulationError(
                f"flits_per_packet must be >= 1, got {self.flits_per_packet}"
            )
        if self.buffer_flits < 1:
            raise SimulationError(
                f"buffer_flits must be >= 1, got {self.buffer_flits}"
            )


def assign_virtual_channels(torus: Torus, edge_ids) -> list[int]:
    """Dateline VC assignment along a dimension-order route.

    Within every dimension the packet starts on VC0; the hop that crosses
    the ring's wraparound boundary (coordinate ``k-1 → 0`` travelling
    ``+``, or ``0 → k-1`` travelling ``−``) and every later hop *in that
    dimension* use VC1.  Entering a new dimension resets to VC0.
    """
    hops = np.asarray(edge_ids, dtype=np.int64).reshape(-1)
    first = np.zeros(hops.size, dtype=bool)
    first[:1] = True
    return _dateline_vcs(torus, hops, first).tolist()


def _dateline_vcs(torus: Torus, hops: np.ndarray, first: np.ndarray) -> np.ndarray:
    """VC of every hop of concatenated routes; ``first`` marks route starts."""
    if hops.size and (hops.min() < 0 or hops.max() >= torus.num_edges):
        bad = int(hops[(hops < 0) | (hops >= torus.num_edges)][0])
        raise InvalidParameterError(
            f"edge id {bad} outside [0, {torus.num_edges})"
        )
    tails, rem = np.divmod(hops, 2 * torus.d)
    dims, minus = np.divmod(rem, 2)
    coord = tails // torus.k ** (torus.d - 1 - dims) % torus.k
    crosses = np.where(minus == 1, coord == 0, coord == torus.k - 1)
    # a dimension segment starts at a route's first hop or a change of dim
    starts = first.copy()
    starts[1:] |= dims[1:] != dims[:-1]
    crossed = np.cumsum(crosses)
    before = (crossed - crosses)[np.flatnonzero(starts)]
    return (crossed - before[np.cumsum(starts) - 1] > 0).astype(np.int64)


@dataclass(frozen=True)
class WormholeResult:
    """Outcome of a wormhole run.

    ``link_flit_counts[l] / flits_per_packet`` is the per-link packet
    count — directly comparable to the store-and-forward counters and to
    the analytic loads.
    """

    cycles: int
    link_flit_counts: np.ndarray
    latencies: np.ndarray
    delivered: int
    flits_per_packet: int

    @property
    def link_packet_counts(self) -> np.ndarray:
        if self.flits_per_packet < 1:
            raise SimulationError(
                f"flits_per_packet must be >= 1, got {self.flits_per_packet}"
            )
        return self.link_flit_counts / self.flits_per_packet

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0


class WormholeEngine:
    """Synchronous flit-level wormhole simulator.

    Parameters
    ----------
    torus:
        Topology.
    config:
        Flow-control parameters.
    max_cycles:
        Safety bound on the makespan.  A run in which nothing can move
        any more stops earlier, at the first stalled cycle.
    """

    def __init__(
        self,
        torus: Torus,
        config: WormholeConfig | None = None,
        max_cycles: int = 1_000_000,
    ):
        self.torus = torus
        self.config = config or WormholeConfig()
        self.max_cycles = int(max_cycles)

    # ------------------------------------------------------------------ run

    def run(self, packets: list[Packet]) -> WormholeResult:
        """Simulate until every packet's tail flit is ejected.

        Raises
        ------
        SimulationError
            If a route revisits a link, if the worms deadlock (no flit
            can move and no packet awaits its release), or if
            ``max_cycles`` is exceeded.
        """
        tracer = current_tracer()
        with tracer.span(
            "sim.run",
            engine="wormhole",
            packets=len(packets),
            flits_per_packet=self.config.flits_per_packet,
        ) as run_span:
            result = self._run(packets, tracer)
            run_span.annotate(cycles=result.cycles, delivered=result.delivered)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("sim.packets_routed").add(result.delivered)
            metrics.counter("sim.cycles").add(result.cycles)
        return result

    def _routes(self, packets: list[Packet]) -> list[list[int]]:
        """Each packet's channel ids ``edge·NUM_VCS + vc``, checked edge-simple."""
        torus = self.torus
        lengths = np.array([len(p.edge_ids) for p in packets], dtype=np.int64)
        hops = np.fromiter(
            chain.from_iterable(p.edge_ids for p in packets),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        ends = np.cumsum(lengths)
        first = np.zeros(hops.size, dtype=bool)
        first[(ends - lengths)[lengths > 0]] = True
        vcs = _dateline_vcs(torus, hops, first)
        owner = np.repeat(np.arange(len(packets)), lengths)
        order = np.lexsort((hops, owner))
        owner, sorted_hops = owner[order], hops[order]
        repeats = (owner[1:] == owner[:-1]) & (sorted_hops[1:] == sorted_hops[:-1])
        if repeats.any():
            p = packets[int(owner[1:][repeats].min())]
            raise SimulationError(
                f"packet {p.packet_id} revisits a link; wormhole routes "
                "must be edge-simple"
            )
        channels = (hops * NUM_VCS + vcs).tolist()
        return [channels[a:b] for a, b in zip((ends - lengths).tolist(), ends.tolist())]

    def _run(self, packets: list[Packet], tracer) -> WormholeResult:
        flits = self.config.flits_per_packet
        capacity = self.config.buffer_flits
        traced = tracer.enabled
        contention = tracer.metrics.histogram("sim.contention")
        blocked_counter = tracer.metrics.counter("sim.flits_blocked")
        routes = self._routes(packets)
        links = [p.edge_ids for p in packets]
        last = [len(route) - 1 for route in routes]
        release = [p.release_cycle for p in packets]
        total = len(packets)
        for p in packets:
            p.delivered_cycle = None

        # channel state, by channel id; a buffer holds flits of its owner
        # only (the tail leaves before the channel is released), so it is
        # the run [head, head + size) of the owner's flit indices.
        num_channels = self.torus.num_edges * NUM_VCS
        owner = [-1] * num_channels  # packet index, -1 when free
        at_hop = [0] * num_channels  # the channel's hop on its owner's route
        head = [0] * num_channels
        size = [0] * num_channels
        occupied: set[int] = set()

        delivered_at: list[int | None] = [None] * total
        injected = [0] * total
        delivered = 0
        # zero-hop packets deliver immediately (flits never enter the net)
        for i, route in enumerate(routes):
            if not route:
                delivered_at[i] = packets[i].delivered_cycle = release[i]
                delivered += 1
        waiting = sorted(
            (i for i in range(total) if routes[i]), key=release.__getitem__
        )
        waiting.reverse()  # pop() releases in (cycle, index) order
        injecting: list[int] = []

        served: list[int] = []  # the link of every flit crossing
        candidates = 0
        contended: list[int] = []  # candidates per link, where above one
        # candidate key: link, packet index and destination hop as bit
        # fields, so sorting the keys orders candidates by (link, packet)
        hshift = max(last, default=0).bit_length()
        hmask = (1 << hshift) - 1
        pbits = max(total - 1, 0).bit_length()
        pmask = (1 << pbits) - 1
        lshift = hshift + pbits
        cycle = 0
        last_delivery = 0
        rr_offset = 0  # rotates candidate priority for fairness

        while delivered < total:
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"wormhole run exceeded {self.max_cycles} cycles with "
                    f"packets {self._stuck(packets, delivered_at)} in flight"
                )

            while waiting and release[waiting[-1]] <= cycle:
                injecting.append(waiting.pop())

            # ---- phase 1: eject flits at destinations (no link bandwidth);
            # every other occupied channel offers its head flit a hop
            moved = False
            keys = []
            for c in list(occupied):
                p = owner[c]
                hop = at_hop[c]
                if hop == last[p]:
                    f = head[c]
                    head[c] = f + 1
                    size[c] -= 1
                    if not size[c]:
                        occupied.discard(c)
                    moved = True
                    if f == flits - 1:  # tail flit ejected
                        owner[c] = -1
                        delivered_at[p] = packets[p].delivered_cycle = cycle
                        delivered += 1
                        last_delivery = cycle
                else:
                    keys.append(links[p][hop + 1] << lshift | p << hshift | hop + 1)
            if delivered >= total:
                break

            # ---- phase 2: one flit crossing per physical link, candidates
            # in (link, packet index) order; a packet's route crosses a
            # link at most once, so it offers at most one per link
            for p in injecting:
                keys.append(links[p][0] << lshift | p << hshift)
            keys.sort()
            injected_all = False
            n = len(keys)
            candidates += n
            lo = 0
            while lo < n:
                link = keys[lo] >> lshift
                hi = lo + 1
                while hi < n and keys[hi] >> lshift == link:
                    hi += 1
                width = hi - lo
                if width == 1:
                    order = (keys[lo],)
                else:
                    contended.append(width)
                    start = lo + rr_offset % width
                    order = keys[start:hi] + keys[lo:start]
                for key in order:
                    hop = key & hmask
                    p = key >> hshift & pmask
                    route = routes[p]
                    dst = route[hop]
                    if hop == 0:  # injection of the next flit
                        f = injected[p]
                        if f == 0:
                            # head flit allocates the first channel
                            if owner[dst] != -1 or size[dst] >= capacity:
                                continue
                            owner[dst] = p
                            at_hop[dst] = 0
                        elif owner[dst] != p or size[dst] >= capacity:
                            continue
                        injected[p] = f + 1
                        injected_all |= f + 1 == flits
                    else:  # head-of-buffer flit advancing one hop
                        src = route[hop - 1]
                        f = head[src]
                        if owner[dst] == -1:
                            if f != 0 or size[dst] >= capacity:
                                continue  # body flits may not allocate
                            owner[dst] = p
                            at_hop[dst] = hop
                        elif owner[dst] != p or size[dst] >= capacity:
                            continue
                        head[src] = f + 1
                        size[src] -= 1
                        if not size[src]:
                            occupied.discard(src)
                        if f == flits - 1:
                            owner[src] = -1  # tail left: release the channel
                    if not size[dst]:
                        head[dst] = f
                        occupied.add(dst)
                    size[dst] += 1
                    served.append(link)
                    moved = True
                    break
                lo = hi
            if injected_all:
                injecting = [p for p in injecting if injected[p] < flits]
            rr_offset += 1
            if not moved and not waiting:
                # nothing moved and no release is due: the state is a
                # fixed point, so every later cycle would stall too
                raise SimulationError(
                    f"wormhole run deadlocked at cycle {cycle}: no flit can "
                    f"move, {total - delivered} packets undelivered "
                    f"(first {self._stuck(packets, delivered_at)}); dateline "
                    "VCs rule this out only when every route uses one "
                    "dimension order"
                )
            cycle += 1

        if traced:
            # candidates competing for one physical link in one cycle; a
            # link moves at most one flit, every other candidate stalled
            depths = Counter(contended)
            depths[1] = candidates - sum(contended)
            for width, count in depths.items():
                if count:
                    contention.observe(width, count=count)
            blocked_counter.add(candidates - len(served))
        latencies = np.array(
            [at - r for at, r in zip(delivered_at, release)], dtype=np.int64
        )
        link_counts = np.bincount(
            np.asarray(served, dtype=np.int64), minlength=self.torus.num_edges
        )
        return WormholeResult(
            cycles=last_delivery,
            link_flit_counts=link_counts.astype(np.int64, copy=False),
            latencies=latencies,
            delivered=delivered,
            flits_per_packet=flits,
        )

    @staticmethod
    def _stuck(packets: list[Packet], delivered_at) -> list[int]:
        """Ids of the first eight undelivered packets."""
        return [
            p.packet_id for p, at in zip(packets, delivered_at) if at is None
        ][:8]
