"""Benchmark `repro simulate`'s layers: packet building and both engines.

The cases are the complete exchanges of the end-to-end ``simulate``
workload, on linear placements at a fixed seed:

* ``T8x3_udr``: T_8^3 under UDR, one round, through the cycle engine;
* ``T16x2_odr``: T_16^2 under ODR, four rounds, through both engines;
* ``T12x2_odr``: T_12^2 under ODR, two rounds, through both engines.

Packets are gathered from the plan cache's path tables, and the wormhole
engine works from its occupied channels, so the wall times below are set
by how many flits move, not by how many hops the packets have.

Pinned in ``benchmarks/BENCH_sim.json``:

* each exchange's packets delivered, cycle-engine cycles and max queue,
  and wormhole cycles (exact);
* ``T8x3_udr_build_cycle``: building the T_8^3 UDR packets and running
  them through the cycle engine, at most ``max_seconds`` (asserted live);
* ``T16x2_odr_wormhole``: the T_16^2 ODR ×4 wormhole run, at most
  ``max_seconds`` (asserted live).

The limits leave 3–4× headroom over the best times measured when they
were set (0.024 s and 0.075 s).  Building packets pair by pair through
``routing.paths`` and a wormhole engine that scanned every hop of every
packet each cycle took about 1.5 s and 1.15 s.

Run with::

    pytest benchmarks/bench_sim.py -q
    python benchmarks/bench_sim.py     # re-measure and rewrite the baseline
"""

import json
import pathlib

from _timing import best_of

from repro.placements.linear import linear_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.workloads import complete_exchange_packets
from repro.sim.wormhole import WormholeEngine
from repro.torus.topology import Torus

BASELINE = pathlib.Path(__file__).with_name("BENCH_sim.json")

SEED = 1

#: case -> (k, d, routing, rounds, also run through the wormhole engine)
EXCHANGES = {
    "T8x3_udr": (8, 3, "udr", 1, False),
    "T16x2_odr": (16, 2, "odr", 4, True),
    "T12x2_odr": (12, 2, "odr", 2, True),
}

#: live wall-time pins (seconds, best of ``ROUNDS`` warm runs).
MAX_SECONDS = {"T8x3_udr_build_cycle": 0.1, "T16x2_odr_wormhole": 0.3}

ROUNDS = 5


def _exchange(case: str):
    k, d, routing, rounds, _ = EXCHANGES[case]
    torus = Torus(k, d)
    routing = (
        UnorderedDimensionalRouting()
        if routing == "udr"
        else OrderedDimensionalRouting(d)
    )
    return torus, linear_placement(torus), routing, rounds


def packets_for(case: str):
    _, placement, routing, rounds = _exchange(case)
    return complete_exchange_packets(placement, routing, seed=SEED, rounds=rounds)


def run_case(case: str) -> dict:
    """The pinned outcome of one exchange."""
    torus = _exchange(case)[0]
    packets = packets_for(case)
    cycle = CycleEngine(SimNetwork(torus)).run(packets)
    record = {
        "delivered": cycle.delivered,
        "cycles": cycle.cycles,
        "max_queue": cycle.max_queue_length,
    }
    if EXCHANGES[case][4]:
        record["wormhole_cycles"] = WormholeEngine(torus).run(packets).cycles
    return record


def build_and_cycle():
    """The T_8^3 UDR exchange: build its packets, run the cycle engine."""
    torus = _exchange("T8x3_udr")[0]
    return CycleEngine(SimNetwork(torus)).run(packets_for("T8x3_udr"))


def wormhole_t16(packets):
    """The T_16^2 ODR ×4 exchange through the wormhole engine."""
    return WormholeEngine(_exchange("T16x2_odr")[0]).run(packets)


def timed_cases() -> dict:
    """Best warm wall time of each gated layer run."""
    packets = packets_for("T16x2_odr")
    build_and_cycle()  # warm: the path tables of the plan cache
    wormhole_t16(packets)
    return {
        "T8x3_udr_build_cycle": best_of(build_and_cycle, rounds=ROUNDS),
        "T16x2_odr_wormhole": best_of(lambda: wormhole_t16(packets), rounds=ROUNDS),
    }


def test_exchange_counts_match_baseline():
    recorded = json.loads(BASELINE.read_text())["cases"]
    assert sorted(recorded) == sorted(EXCHANGES)
    for case in EXCHANGES:
        assert run_case(case) == recorded[case], case


def test_layers_within_budget(capsys):
    for name, (seconds, result) in timed_cases().items():
        with capsys.disabled():
            print(f"\n{name}: {seconds:.3f}s (pin <= {MAX_SECONDS[name]}s)")
        assert result.delivered == len(result.latencies)
        assert seconds <= MAX_SECONDS[name], (
            f"{name} took {seconds:.3f}s, over the {MAX_SECONDS[name]}s pin"
        )


def test_baseline_pins():
    recorded = json.loads(BASELINE.read_text())
    assert recorded["max_seconds"] == MAX_SECONDS
    for name, limit in MAX_SECONDS.items():
        assert recorded["seconds"][name] <= limit


def write_baseline() -> dict:
    """Measure every case and rewrite the committed baseline."""
    baseline = {
        "description": (
            "Complete exchanges of the end-to-end simulate workload on "
            f"linear placements, seed {SEED}. Per-case counts are exact "
            "pins; seconds are the best of warm runs, gated by max_seconds."
        ),
        "max_seconds": MAX_SECONDS,
        "seconds": {
            name: round(seconds, 3)
            for name, (seconds, _) in timed_cases().items()
        },
        "cases": {case: run_case(case) for case in EXCHANGES},
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
