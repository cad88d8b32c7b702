"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro design    --k 8 --d 3 --t 1 --routing odr
    python -m repro analyze   --k 8 --d 3 --t 2 --routing udr
    python -m repro experiments --quick            # run the full suite
    python -m repro experiments --only EXP-7
    python -m repro figure1
    python -m repro simulate  --k 6 --d 2 --routing udr --rounds 10
    python -m repro sweep     --d 2 --ks 4,6,8,10 --family linear
    python -m repro certify   --k 5 --d 2                # exact optimality
    python -m repro certify   --k 4 --d 2 --mode full --jobs 4
    python -m repro certify   --k 6 --d 2 --jobs 4 --checkpoint run.jsonl
    python -m repro certify   --k 6 --d 2 --jobs 4 --checkpoint run.jsonl --resume
    python -m repro certify   --k 6 --d 2 --jobs 4 --retries 3 --task-timeout 300
    python -m repro certify   --k 5 --d 2 --trace out.jsonl --progress
    python -m repro trace summarize out.jsonl
    python -m repro trace critical-path out.jsonl
    python -m repro trace waterfall out.jsonl
    python -m repro trace diff before.jsonl after.jsonl
    python -m repro bench report                       # BENCH_trajectory.json
    python -m cProfile -o exp.prof -m repro experiments --quick
    python -m repro --quiet analyze --k 8 --d 2

Every subcommand prints plain text (markdown-compatible tables) to stdout
and exits non-zero if a reproduction check fails.  ``certify``, the one
subcommand that fans work out over processes (``--jobs``), accepts
resilience flags (``--retries``, ``--task-timeout``) and deterministic
fault injection (``--chaos-*``), which it passes to the search as one
:class:`repro.exec.ExecPolicy`; it prints the search's degraded
execution reports to stderr and journals completed work
(``--checkpoint``/``--resume``).  Long-running subcommands take
``--trace``, which writes a JSONL trace through :mod:`repro.obs`; a
function-level profile comes from running the whole process under
``python -m cProfile``.  Diagnostics go to stderr via
:mod:`repro.obs.console`; the top-level ``--quiet`` silences everything
but errors, keeping machine-parsed stdout clean.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import TYPE_CHECKING, Iterator, Sequence

from repro._version import __version__

if TYPE_CHECKING:
    from repro.exec import ExecPolicy, ExecutionReport

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Lower Bounds on Communication Loads and "
            "Optimal Placements in Torus Networks'"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress stderr diagnostics (errors still print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser(
        "design", help="build an optimal placement and print its figures"
    )
    _add_torus_args(p_design)

    p_analyze = sub.add_parser(
        "analyze", help="measure loads, bounds, and bisections"
    )
    _add_torus_args(p_analyze)
    _add_obs_args(p_analyze)
    p_analyze.add_argument(
        "--markdown",
        action="store_true",
        help="emit a full markdown report instead of the plain summary",
    )

    p_exp = sub.add_parser("experiments", help="run the reproduction suite")
    _add_obs_args(p_exp)
    p_exp.add_argument(
        "--quick", action="store_true", help="use the reduced sweeps"
    )
    p_exp.add_argument(
        "--only", metavar="EXP-N", help="run a single experiment by id"
    )
    p_exp.add_argument(
        "--write",
        metavar="PATH",
        help="also write the rendered report to this file",
    )

    sub.add_parser("figure1", help="render the paper's Fig. 1 in ASCII")

    p_sim = sub.add_parser(
        "simulate", help="run a complete exchange through the packet simulator"
    )
    _add_torus_args(p_sim)
    p_sim.add_argument(
        "--rounds", type=int, default=1, help="number of exchanges (default 1)"
    )
    p_sim.add_argument(
        "--seed", type=int, default=0, help="RNG seed for path sampling"
    )
    p_sim.add_argument(
        "--fail-links",
        type=int,
        default=0,
        metavar="N",
        help="inject N random link failures and route around them",
    )

    p_sweep = sub.add_parser(
        "sweep", help="sweep k and report E_max scaling for a family"
    )
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument(
        "--ks", type=str, required=True, help="comma-separated radii, e.g. 4,6,8"
    )
    p_sweep.add_argument(
        "--family",
        choices=["linear", "multilinear-t2", "multilinear-t3", "fully-populated"],
        default="linear",
    )
    p_sweep.add_argument("--routing", choices=["odr", "udr"], default="odr")
    _add_obs_args(p_sweep)

    p_certify = sub.add_parser(
        "certify",
        help="exactly certify the global minimum E_max over all placements",
    )
    p_certify.add_argument("--k", type=int, required=True, help="radix (>= 2)")
    p_certify.add_argument(
        "--d", type=int, required=True, help="dimensions (>= 1)"
    )
    p_certify.add_argument(
        "--size",
        type=int,
        default=None,
        metavar="N",
        help="placement size to certify (default: k^(d-1), the linear size)",
    )
    p_certify.add_argument(
        "--mode",
        choices=["bound", "full"],
        default="bound",
        help=(
            "bound: branch-and-bound (exact minimum + count, fastest); "
            "full: no pruning, also reports the complete E_max histogram"
        ),
    )
    p_certify.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard subtree roots over N worker processes",
    )
    p_certify.add_argument(
        "--ub",
        type=float,
        default=None,
        metavar="EMAX",
        help=(
            "cap the bound-mode ladder at a known-achievable E_max (default: "
            "the best screened structured placement's, when --size is the "
            "linear size)"
        ),
    )
    p_certify.add_argument(
        "--progress",
        action="store_true",
        help="emit search heartbeat lines to stderr while certifying",
    )
    _add_exec_args(p_certify)
    _add_checkpoint_args(p_certify)
    _add_obs_args(p_certify)

    p_trace = sub.add_parser(
        "trace", help="inspect JSONL traces written with --trace"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_sum = trace_sub.add_parser(
        "summarize", help="render span/event/metric summary tables"
    )
    p_trace_sum.add_argument("path", help="the trace JSONL file to summarize")
    p_trace_cp = trace_sub.add_parser(
        "critical-path",
        help="extract the last-finishing root-to-leaf chain",
    )
    p_trace_cp.add_argument("path", help="the trace JSONL file")
    p_trace_wf = trace_sub.add_parser(
        "waterfall",
        help="render start-offset span bars plus the busy-worker timeline",
    )
    p_trace_wf.add_argument("path", help="the trace JSONL file")
    p_trace_wf.add_argument(
        "--width", type=int, default=48, help="bar width in columns (default 48)"
    )
    p_trace_wf.add_argument(
        "--max-spans",
        type=int,
        default=200,
        help="truncate the waterfall after N spans (default 200)",
    )
    p_trace_diff = trace_sub.add_parser(
        "diff", help="span-by-span-name comparison of two traces"
    )
    p_trace_diff.add_argument("before", help="baseline trace file")
    p_trace_diff.add_argument("after", help="comparison trace file")
    p_trace_diff.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative per-name duration change to ignore (default 0.10)",
    )

    p_bench = sub.add_parser(
        "bench", help="benchmark baselines and their trajectory over time"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_report = bench_sub.add_parser(
        "report",
        help="aggregate committed BENCH_*.json baselines into "
        "BENCH_trajectory.json and check for regressions",
    )
    p_bench_report.add_argument(
        "--benchmarks-dir",
        default="benchmarks",
        help="directory holding BENCH_*.json baselines (default benchmarks)",
    )
    p_bench_report.add_argument(
        "--output",
        default=None,
        help="trajectory path (default <benchmarks-dir>/BENCH_trajectory.json)",
    )
    p_bench_report.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if any pinned metric regressed beyond tolerance "
        "instead of appending a new trajectory point",
    )

    # `repro lint` declares no options of its own: main() forwards every
    # argument after the command to the lint runner, which parses them.
    sub.add_parser(
        "lint",
        add_help=False,
        help="run the repo's semantic static-analysis rules (RL004-RL017); "
        "see `repro lint --help`",
    )
    return parser


def _add_torus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, required=True, help="radix (>= 2)")
    parser.add_argument("--d", type=int, required=True, help="dimensions (>= 1)")
    parser.add_argument(
        "--t", type=int, default=1, help="placement multiplicity (default 1)"
    )
    parser.add_argument(
        "--routing", choices=["odr", "udr"], default="odr", help="routing algorithm"
    )


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry budget per task before serial fallback (default 2)",
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task deadline enforced by the watchdog (default: none)",
    )
    group.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "inject deterministic worker faults seeded by SEED "
            "(resilience drill; results must still be exact)"
        ),
    )
    group.add_argument(
        "--chaos-crash",
        type=float,
        default=0.2,
        metavar="FRAC",
        help="fraction of chaos tasks that crash their worker (default 0.2)",
    )
    group.add_argument(
        "--chaos-hang",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fraction of chaos tasks that hang past the deadline (default 0)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL trace of spans/events/metrics to this file",
    )


@contextlib.contextmanager
def _obs_context(args: argparse.Namespace) -> Iterator[None]:
    """For ``--trace``, install a JSONL tracer around the block."""
    from repro.obs import JsonlTraceSink, Tracer, console, using_tracer

    if args.trace is None:
        yield
        return
    label = str(args.command)
    tracer = Tracer(sink=JsonlTraceSink(args.trace, label=label), label=label)
    try:
        with using_tracer(tracer):
            yield
    finally:
        tracer.finish()
        console.info(f"trace written to {args.trace}")


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("checkpointing")
    group.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal completed work units to this JSONL file",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint, skipping journaled work units",
    )


def _exec_policy(args: argparse.Namespace) -> ExecPolicy:
    """The :class:`repro.exec.ExecPolicy` that the resilience flags ask for."""
    from repro.exec import ChaosPolicy, ExecPolicy

    updates: dict = {}
    if args.retries is not None:
        updates["retries"] = args.retries
    if args.task_timeout is not None:
        updates["task_timeout"] = args.task_timeout
    if args.chaos_seed is not None:
        updates["chaos"] = ChaosPolicy(
            seed=args.chaos_seed,
            crash_fraction=args.chaos_crash,
            hang_fraction=args.chaos_hang,
        )
        if "task_timeout" not in updates:
            # hung chaos workers need a deadline to be reaped at all
            updates["task_timeout"] = 5.0
    return ExecPolicy(**updates)


def _warn_degraded(reports: Sequence[ExecutionReport]) -> None:
    """Name the faults a certify's fan-outs absorbed, on stderr.

    A run that absorbed faults stays visible though its answer is exact,
    and so does one that failed.
    """
    from repro.obs import console

    for report in reports:
        if report.degraded:
            console.warn(f"resilience: {report.summary()}")


# --------------------------------------------------------------- commands


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core.designer import design_placement

    design = design_placement(args.k, args.d, t=args.t, routing=args.routing)
    print(f"torus              : T_{args.k}^{args.d}")
    print(f"placement          : {design.placement.name}")
    print(f"|P|                : {design.size}")
    print(f"routing            : {design.routing.name}")
    print(f"paths per far pair : {design.paths_per_pair_max}")
    print(f"predicted E_max <= : {design.predicted_emax_upper:g}")
    print(f"lower bound     >= : {design.lower_bound:g}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.analysis import analyze
    from repro.core.designer import design_placement

    design = design_placement(args.k, args.d, t=args.t, routing=args.routing)
    with _obs_context(args):
        report = analyze(design.placement, design.routing)
    if getattr(args, "markdown", False):
        from repro.core.report_md import analysis_report_md

        print(analysis_report_md(design, report))
        return 0 if report.emax >= report.bounds.best - 1e-9 else 1
    print(f"configuration   : {design.placement.name} + {design.routing.name} "
          f"on T_{args.k}^{args.d}")
    print(f"E_max           : {report.emax:g}")
    print(f"E_max/|P|       : {report.linearity_ratio:g}")
    print(f"eq6 bound       : {report.bounds.eq6:g}")
    if report.bounds.section4 is not None:
        print(f"sec4 bound      : {report.bounds.section4:g}")
    if report.bounds.eq8 is not None:
        print(f"eq8 bound       : {report.bounds.eq8:g}")
    print(f"optimality ratio: {report.optimality_ratio:.4f}")
    print(f"dimension cut   : {report.dimension_cut_width} edges "
          f"(balanced: {report.dimension_cut_balanced})")
    print(f"hyperplane cut  : {report.hyperplane_cut_width} edges "
          f"({report.hyperplane_array_crossings} array crossings)")
    ok = report.emax >= report.bounds.best - 1e-9
    print(f"bounds hold     : {ok}")
    return 0 if ok else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import get_experiment, run_all
    from repro.experiments.runner import render_results

    if args.only:
        with _obs_context(args):
            result = get_experiment(args.only).run(quick=args.quick)
        text = result.render()
        passed = result.passed
    else:
        with _obs_context(args):
            results = run_all(quick=args.quick)
        text = render_results(results, quick=args.quick)
        passed = all(r.passed for r in results.values())
    print(text)
    if args.write:
        from pathlib import Path

        target = Path(args.write)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        print(f"report written to {args.write}")
    return 0 if passed else 1


def _cmd_figure1(_args: argparse.Namespace) -> int:
    from repro.viz.ascii_art import render_figure1

    print(render_figure1())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.designer import design_placement
    from repro.routing.faults import FaultMaskedRouting
    from repro.sim.engine import CycleEngine
    from repro.sim.fault_injection import random_link_failures
    from repro.sim.metrics import summarize_link_counts
    from repro.sim.network import SimNetwork
    from repro.sim.workloads import build_packets, complete_exchange_packets

    design = design_placement(args.k, args.d, t=args.t, routing=args.routing)
    torus = design.torus
    placement = design.placement
    routing = design.routing

    if args.fail_links:
        failures = random_link_failures(torus, args.fail_links, seed=args.seed)
        masked = FaultMaskedRouting(routing, failures)
        coords = placement.coords()
        pairs = [
            (i, j)
            for i in range(len(placement))
            for j in range(len(placement))
            if i != j and masked.is_connected(torus, coords[i], coords[j])
        ]
        lost = placement.ordered_pairs_count() - len(pairs)
        packets = build_packets(placement, masked, pairs, seed=args.seed)
        net = SimNetwork(torus, failed_edge_ids=failures)
        print(f"injected {args.fail_links} link failures; "
              f"{lost} pairs unreachable under {routing.name}")
    else:
        packets = complete_exchange_packets(
            placement, routing, seed=args.seed, rounds=args.rounds
        )
        net = SimNetwork(torus)

    result = CycleEngine(net).run(packets)
    summary = summarize_link_counts(result.link_counts)
    print(f"packets delivered : {result.delivered}")
    print(f"completion        : {result.cycles} cycles")
    print(f"mean latency      : {result.mean_latency:.2f} cycles")
    print(f"max queue         : {result.max_queue_length}")
    print(f"busiest link      : {summary.max_count} traversals")
    print(f"links used        : {summary.used_links}/{torus.num_edges}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.scaling import fit_power_law, scaling_rows
    from repro.placements.registry import get_family
    from repro.routing.odr import OrderedDimensionalRouting
    from repro.routing.udr import UnorderedDimensionalRouting
    from repro.util.tables import Table

    ks = [int(x) for x in args.ks.split(",")]
    family = get_family(args.family)
    routing_factory = (
        OrderedDimensionalRouting
        if args.routing == "odr"
        else lambda d: UnorderedDimensionalRouting()
    )
    with _obs_context(args):
        rows = scaling_rows(family, routing_factory, args.d, ks)
    table = Table(["k", "|P|", "E_max", "E_max/|P|"],
                  title=f"{args.family} + {args.routing.upper()} on d={args.d}")
    for row in rows:
        table.add_row(list(row))
    print(table.render())
    if len(rows) >= 2:
        fit = fit_power_law([r[1] for r in rows], [r[2] for r in rows])
        print(f"\ngrowth exponent: E_max ~ |P|^{fit.exponent:.3f} "
              f"(R^2 = {fit.r_squared:.5f})")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.errors import InvalidParameterError, SearchError
    from repro.placements.exact_search import (
        exact_global_minimum,
        screen_initial_upper_bound,
    )
    from repro.torus.topology import Torus

    if args.resume and args.checkpoint is None:
        raise InvalidParameterError("--resume requires --checkpoint PATH")
    torus = Torus(args.k, args.d)
    size = args.size if args.size is not None else args.k ** (args.d - 1)
    upper = args.ub
    policy = _exec_policy(args)
    with _obs_context(args):
        if upper is None and args.mode == "bound":
            screened = screen_initial_upper_bound(torus, size)
            if screened is not None:
                upper, seed = screened
                print(
                    f"incumbent seed  : {seed.name} E_max = {upper:g} "
                    "(path-table candidate screen; the ladder's cap)"
                )
        try:
            result = exact_global_minimum(
                torus, size, mode=args.mode, processes=args.jobs,
                initial_upper_bound=upper,
                checkpoint=args.checkpoint, resume=args.resume,
                progress=True if args.progress else None, policy=policy,
            )
        except SearchError as err:
            _warn_degraded(err.reports)
            raise
        _warn_degraded(result.reports)
    counters = result.counters
    witness = sorted(map(tuple, result.example_optimal.coords().tolist()))
    print(f"certified space : all C({torus.num_nodes}, {size}) = "
          f"{result.num_placements} placements on T_{args.k}^{args.d}")
    print(f"global min E_max: {result.minimum_emax:g}")
    print(f"optimal count   : {result.num_optimal}")
    print(f"witness         : {witness}")
    print(f"mode            : {result.mode} "
          f"(group order {result.group_order}, "
          f"{result.num_variants} ODR variants/orbit)")
    if result.num_orbits is not None:
        print(f"orbits          : {result.num_orbits}")
    if result.rungs:
        steps = [
            f"E_max <= {rung:g} refuted ({nodes} nodes)"
            for rung, nodes in result.rungs[:-1]
        ]
        rung, nodes = result.rungs[-1]
        steps.append(f"E_max <= {rung:g} certified ({nodes} nodes)")
        print(f"ladder          : {', '.join(steps)}")
    print(f"work            : {counters.leaf_orbits} leaf orbits, "
          f"{counters.variant_evaluations} leaf variants, "
          f"{counters.pair_updates} pair updates, "
          f"{counters.full_evaluations} full evaluations")
    print(f"pruning         : {counters.subtrees_pruned_emax} subtrees by "
          f"partial E_max, {counters.variants_dropped} variants dropped")
    if result.emax_histogram is not None:
        print("E_max histogram :")
        for value in sorted(result.emax_histogram):
            print(f"  {value:g}: {result.emax_histogram[value]}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import summarize_path

    if args.trace_command == "summarize":
        print(summarize_path(args.path), end="")
        return 0
    if args.trace_command == "critical-path":
        from repro.obs import critical_path, read_trace
        from repro.obs.analyze import render_critical_path

        path = critical_path(read_trace(args.path))
        print("\n".join(render_critical_path(path)))
        return 0
    if args.trace_command == "waterfall":
        from repro.obs import read_trace
        from repro.obs.analyze import render_waterfall

        lines = render_waterfall(
            read_trace(args.path),
            width=args.width,
            max_spans=args.max_spans,
        )
        print("\n".join(lines))
        return 0
    if args.trace_command == "diff":
        from repro.obs import diff_traces, read_trace
        from repro.obs.analyze import render_diff

        rows = diff_traces(
            read_trace(args.before),
            read_trace(args.after),
            tolerance=args.tolerance,
        )
        print("\n".join(render_diff(rows)))
        return 1 if rows else 0
    return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.devtools.benchreport import run_report

    if args.bench_command == "report":
        return run_report(
            benchmarks_dir=args.benchmarks_dir,
            output=args.output,
            check=args.check,
        )
    return 2


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint.__main__ import run

    return run(args.lint_argv)


_COMMANDS = {
    "design": _cmd_design,
    "analyze": _cmd_analyze,
    "experiments": _cmd_experiments,
    "figure1": _cmd_figure1,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.obs import console

    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        args.lint_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    previous_quiet = console.set_quiet(bool(getattr(args, "quiet", False)))
    try:
        return _COMMANDS[args.command](args)
    except Exception as err:  # surface library errors as clean CLI failures
        console.error(f"error: {err}")
        return 2
    finally:
        console.set_quiet(previous_quiet)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
