"""Command-line interface: regenerate any paper experiment.

Usage::

    repro list                  # what can be run
    repro fig1-left             # Fig. 1 (left)
    repro fig1-right            # Fig. 1 (right)
    repro fit                   # Eq. 1 model fit
    repro mape                  # Eq. 2 validation
    repro decision              # Eq. 3 deadline scenarios
    repro fabric                # E12 heterogeneous fabric selection
    repro traffic               # E13 admission under timestamped traffic
    repro ablation-features     # A1
    repro ablation-dispatch     # A2
    repro kernels               # A3
    repro ablation-poll         # A4
    repro ablation-dbuf         # A5
    repro ablation-tiling       # A6
    repro all                   # everything above, in order
    repro offload --kernel daxpy --n 1024 --clusters 8   # one job

Every experiment accepts ``--clusters`` to size the fabric and
``--stats`` to print what its measurement sweeps did.  The ``sweep``
command additionally caches measured points on disk (``--no-cache``
disables; ``REPRO_CACHE_DIR`` relocates).  Numbers are cycle counts at
the paper's 1 GHz (1 cycle = 1 ns).
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro import experiments
from repro.core.offload import offload
from repro.errors import ReproError
from repro.kernels.registry import kernel_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem

_EXPERIMENTS: typing.Dict[str, typing.Tuple[str, typing.Callable]] = {
    "fig1-left": ("Fig. 1 (left): DAXPY runtime vs cluster count",
                  experiments.fig1_left),
    "fig1-right": ("Fig. 1 (right): speedup grid over (N, M)",
                   experiments.fig1_right),
    "fit": ("Eq. 1: fitted runtime-model coefficients",
            experiments.fit_model),
    "mape": ("Eq. 2: per-N model error (MAPE)",
             experiments.mape_experiment),
    "decision": ("Eq. 3: minimum clusters under a deadline",
                 experiments.decision_experiment),
    "crossover": ("E7: smallest N where offloading beats the host",
                  experiments.crossover_experiment),
    "energy": ("E8: offload energy, baseline vs extended",
               experiments.energy_experiment),
    "fabric": ("E12: fabric selection — tile class and width under a "
               "deadline", experiments.fabric_experiment),
    "scheduler": ("E9: placement policies on a fine-grained job stream",
                  experiments.scheduler_experiment),
    "traffic": ("E13: admission policies under timestamped traffic",
                experiments.traffic_experiment),
    "concurrency": ("E10: space-shared concurrent jobs vs time sharing",
                    experiments.concurrency_experiment),
    "overlap": ("E11: host work overlapped with an offload",
                experiments.overlap_experiment),
    "ablation-features": ("A1: multicast vs sync-unit contributions",
                          experiments.ablation_features),
    "ablation-dispatch": ("A2: dispatch-cost sensitivity",
                          experiments.ablation_dispatch),
    "kernels": ("A3: model generality across kernels",
                experiments.kernel_generality),
    "ablation-poll": ("A4: poll-period sensitivity",
                      experiments.ablation_poll),
    "ablation-dbuf": ("A5: double-buffered vs phased device execution",
                      experiments.ablation_double_buffer),
    "ablation-tiling": ("A6: tiling vs double buffering for jobs larger "
                        "than the TCDM", experiments.ablation_tiling),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Optimizing Offload Performance in "
                    "Heterogeneous MPSoCs' (DATE 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stats_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--stats", action="store_true",
            help="print sweep execution statistics (throughput, cache/"
                 "pool reuse, batch-plan hit rate) after the command")

    sub.add_parser("list", help="list available experiments")

    for name, (help_text, _fn) in _EXPERIMENTS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--clusters", type=int, default=32,
                         help="fabric size (default 32)")
        add_stats_flag(cmd)
        if name == "traffic":
            cmd.add_argument("--num-jobs", type=int, default=160,
                             help="jobs per arrival scenario (default 160)")
            cmd.add_argument("--tenants", type=int, default=3,
                             help="tenants sharing the fabric (default 3)")
            cmd.add_argument("--slack", type=float, default=3.0,
                             help="deadline = slack x predicted host time "
                                  "(default 3.0)")
            cmd.add_argument("--seed", type=int, default=7,
                             help="scenario seed (default 7)")
            cmd.add_argument("--csv", metavar="PATH",
                             help="also write the metrics table to this "
                                  "file as CSV")

    run_all = sub.add_parser("all", help="run every experiment in order")
    run_all.add_argument("--clusters", type=int, default=32)
    add_stats_flag(run_all)

    sweep_cmd = sub.add_parser(
        "sweep", help="measure an (N, M) grid and export it as CSV")
    sweep_cmd.add_argument("--kernel", default="daxpy",
                           choices=kernel_names())
    sweep_cmd.add_argument("--n", type=int, nargs="+",
                           default=[256, 512, 768, 1024],
                           help="problem sizes")
    sweep_cmd.add_argument("--m", type=int, nargs="+",
                           default=[1, 2, 4, 8, 16, 32],
                           help="cluster counts")
    sweep_cmd.add_argument("--clusters", type=int, default=32,
                           help="fabric size")
    sweep_cmd.add_argument("--variant", default="auto",
                           choices=["auto", "baseline", "multicast_only",
                                    "hw_sync_only", "extended"])
    sweep_cmd.add_argument("--csv", metavar="PATH",
                           help="write the grid to this file "
                                "(default: stdout)")
    add_stats_flag(sweep_cmd)
    sweep_cmd.add_argument("--no-cache", action="store_true",
                           help="always re-simulate; do not read or "
                                "write the on-disk sweep cache")

    report_cmd = sub.add_parser(
        "report", help="run every experiment and write a markdown report")
    report_cmd.add_argument("--out", metavar="PATH", required=True)
    report_cmd.add_argument("--clusters", type=int, default=32)
    add_stats_flag(report_cmd)

    one = sub.add_parser("offload", help="run and time a single offload")
    one.add_argument("--kernel", default="daxpy", choices=kernel_names())
    one.add_argument("--n", type=int, default=1024, help="problem size")
    one.add_argument("--clusters", type=int, default=8,
                     help="offload width M")
    one.add_argument("--fabric", type=int, default=32, help="fabric size")
    one.add_argument("--variant", default="auto",
                     choices=["auto", "baseline", "multicast_only",
                              "hw_sync_only", "extended"])
    one.add_argument("--exec-mode", default="phased",
                     choices=["phased", "double_buffered"],
                     help="device execution protocol")
    one.add_argument("--report", action="store_true",
                     help="print resource utilization after the offload")
    one.add_argument("--vcd", metavar="PATH",
                     help="write the trace as a VCD waveform file")
    return parser


def _run_experiment(name: str, clusters: int, out: typing.TextIO) -> None:
    _help, fn = _EXPERIMENTS[name]
    out.write(fn(num_clusters=clusters).render() + "\n")


def _run_all(clusters: int, out: typing.TextIO) -> int:
    """Every experiment in turn; one that refuses its size prints its
    error under its own section and the rest still run.  Returns the
    exit code: 1 if any experiment failed."""
    status = 0
    for name in _EXPERIMENTS:
        out.write(f"\n=== {name} {'=' * max(0, 60 - len(name))}\n")
        try:
            _run_experiment(name, clusters, out)
        except ReproError as error:
            out.write(f"error: {error}\n")
            status = 1
    return status


def _run_sweep(args, out: typing.TextIO) -> None:
    from repro.analysis.export import sweep_to_csv
    from repro.core.cache import SweepCache, default_cache_dir
    from repro.core.executor import SweepExecutor

    config = SoCConfig.extended(num_clusters=args.clusters)
    if args.variant == "baseline":
        config = SoCConfig.baseline(num_clusters=args.clusters)
    cache = None if args.no_cache else SweepCache(default_cache_dir())
    executor = SweepExecutor(cache=cache)
    result = executor.run(config, args.kernel, args.n, args.m,
                          variant=args.variant)
    csv_text = sweep_to_csv(result)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(csv_text)
        out.write(f"{len(result)} points written to {args.csv}\n")
        if cache is not None:
            # Keep bare stdout pure CSV; stats only accompany --csv runs.
            stats = executor.stats
            measured = stats.simulated_points + stats.planned_points
            out.write(f"cache: {stats.cache_hits} hits, "
                      f"{measured} measured "
                      f"({cache.directory})\n")
    else:
        out.write(csv_text)


def _run_report(args, out: typing.TextIO) -> None:
    lines = [
        "# Reproduction report",
        "",
        "Generated by `repro report`; every section regenerated live on "
        "the simulator.  See EXPERIMENTS.md for the paper comparison.",
        "",
    ]
    for name, (help_text, fn) in _EXPERIMENTS.items():
        lines.append(f"## {name} — {help_text}")
        lines.append("")
        lines.append("```")
        lines.append(fn(num_clusters=args.clusters).render())
        lines.append("```")
        lines.append("")
    with open(args.out, "w") as handle:
        handle.write("\n".join(lines))
    out.write(f"report with {len(_EXPERIMENTS)} sections written to "
              f"{args.out}\n")


def _run_traffic(args, out: typing.TextIO) -> None:
    """E13 with its scenario knobs (and optional CSV artifact)."""
    result = experiments.traffic_experiment(
        num_jobs=args.num_jobs, tenants=args.tenants,
        num_clusters=args.clusters, seed=args.seed, slack=args.slack)
    out.write(result.render() + "\n")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(result.to_csv())
        out.write(f"\nmetrics written to {args.csv}\n")


def _run_offload(args, out: typing.TextIO) -> None:
    config = SoCConfig.extended(num_clusters=args.fabric)
    if args.variant == "baseline":
        config = SoCConfig.baseline(num_clusters=args.fabric)
    system = ManticoreSystem(config)
    result = offload(system, args.kernel, args.n, args.clusters,
                     variant=args.variant, exec_mode=args.exec_mode)
    out.write(f"{result}\n")
    for phase, cycles in result.trace.phase_summary().items():
        out.write(f"  {phase:16s} {cycles:8d} cycles\n")
    if args.report:
        from repro.analysis.utilization import utilization_report
        out.write("\n" + utilization_report(system) + "\n")
    if args.vcd:
        from repro.analysis.vcd import write_vcd
        write_vcd(system.trace, args.vcd)
        out.write(f"\ntrace written to {args.vcd}\n")


def _print_run_stats(out: typing.TextIO) -> None:
    """Sum and print the sweep records ``--stats`` collected."""
    from repro.core.executor import SweepStats, drain_run_stats

    runs = drain_run_stats()
    if not runs:
        out.write("\nsweep statistics: no sweeps executed\n")
        return
    total = SweepStats.total(runs)
    out.write(
        f"\nsweep statistics ({len(runs)} sweep"
        f"{'s' if len(runs) != 1 else ''}):\n"
        f"  points      {total.points} in "
        f"{total.elapsed_seconds:.2f}s "
        f"({total.points_per_second:.1f} points/s)\n"
        f"  cache       {total.cache_hits} hits, "
        f"{total.cache_misses} misses\n"
        f"  batch plan  {total.planned_points} planned, "
        f"{total.simulated_points} simulated, "
        f"{total.batch_fallback_points} fallbacks "
        f"(hit rate {100.0 * total.batch_plan_hit_rate:.1f}%)\n"
        f"  m-predict   {total.prefixes_predicted} prefixes predicted, "
        f"{total.prefixes_calibrated} calibrated, "
        f"{total.mmodels_fitted} models fitted, "
        f"{total.holdout_fallbacks} holdout fallbacks\n"
        f"  calib store {total.calibration_store_hits} hits, "
        f"{total.calibration_store_misses} misses, "
        f"{total.cache_evictions} disk evictions\n"
        f"  pool        {total.pool_hits} reused, "
        f"{total.pool_builds} built, {total.pool_dropped} dropped\n"
        f"  resumes     {total.sim_resumes} process wake-ups in the "
        f"event engine\n")
    by_class: typing.Dict[str, typing.List[SweepStats]] = {}
    for run in runs:
        by_class.setdefault(run.tile_class or "default", []).append(run)
    if len(by_class) > 1 or "default" not in by_class:
        out.write("  per tile class:\n")
        for label in sorted(by_class):
            group = SweepStats.total(by_class[label])
            out.write(
                f"    {label:12s} {len(by_class[label])} sweeps, "
                f"{group.points} points, "
                f"{group.planned_points} planned, "
                f"{group.batch_fallback_points} fallbacks, "
                f"{group.prefixes_calibrated} calibrated "
                f"(engagement {100.0 * group.batch_plan_hit_rate:.1f}%)\n")


def main(argv: typing.Optional[typing.Sequence[str]] = None,
         out: typing.TextIO = sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    want_stats = getattr(args, "stats", False)
    if want_stats:
        from repro.core.executor import collect_run_stats
        collect_run_stats()
    status = 0
    try:
        if args.command == "list":
            for name, (help_text, _fn) in _EXPERIMENTS.items():
                out.write(f"{name:20s} {help_text}\n")
        elif args.command == "all":
            status = _run_all(args.clusters, out)
        elif args.command == "traffic":
            _run_traffic(args, out)
        elif args.command == "offload":
            _run_offload(args, out)
        elif args.command == "sweep":
            _run_sweep(args, out)
        elif args.command == "report":
            _run_report(args, out)
        else:
            _run_experiment(args.command, args.clusters, out)
        if want_stats:
            _print_run_stats(out)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
