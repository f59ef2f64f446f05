#!/usr/bin/env python3
"""Profile a sweep and break down per-event interpreter cost.

Runs one sweep grid under :mod:`cProfile` — once through the reference
event engine (``REPRO_NAIVE_BATCH=1``) and once through the batched
planner — and reports where the interpreter time goes:

* points/sec and process-body resume counts for each side (a *resume*
  is one :meth:`repro.sim.process.Process._resume` call, i.e. one
  generator re-entry by the event kernel — the unit the batch engine
  exists to avoid);
* microseconds of inclusive interpreter time per resume;
* the top functions by total (self) time, per side.

With ``--markdown PATH`` the same breakdown is written as a Markdown
document (``docs/batching_profile.md`` in this repo was generated that
way; regenerate it after engine changes with::

    python tools/profile_sweep.py --markdown docs/batching_profile.md

). Pure stdlib on top of the repro package; importable for its
:func:`profile_run` helper.
"""

import argparse
import cProfile
import io
import os
import pathlib
import pstats
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import flags  # noqa: E402
from repro.core.executor import SweepExecutor  # noqa: E402
from repro.soc.config import SoCConfig  # noqa: E402

#: (path suffix, function name) pairs whose inclusive time anchors the
#: per-resume cost figure.
RESUME_FUNC = ("repro/sim/process.py", "_resume")
RUN_FUNC = ("repro/sim/kernel.py", "run")


def profile_run(config, kernel, n_values, m_values, variant, naive):
    """Run one sweep under cProfile; returns ``(run_stats, pstats.Stats)``.

    ``naive=True`` pins ``REPRO_NAIVE_BATCH`` for the duration so the
    whole grid goes through the event engine; otherwise the gate is
    cleared and the batch planner handles what it can prove.
    """
    saved = os.environ.get(flags.NAIVE_BATCH_ENV)
    if naive:
        os.environ[flags.NAIVE_BATCH_ENV] = "1"
    else:
        os.environ.pop(flags.NAIVE_BATCH_ENV, None)
    executor = SweepExecutor()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        executor.run(config, kernel, n_values, m_values, variant=variant)
        profiler.disable()
    finally:
        if saved is None:
            os.environ.pop(flags.NAIVE_BATCH_ENV, None)
        else:
            os.environ[flags.NAIVE_BATCH_ENV] = saved
    stats = pstats.Stats(profiler)
    stats.calc_callees()
    return executor.last_run_stats, stats


def _find(stats, path_suffix, func_name):
    """Locate ``(call_count, inclusive_seconds)`` for one function."""
    for (path, _lineno, name), row in stats.stats.items():
        if name == func_name and path.endswith(path_suffix):
            cc, _nc, _tt, ct, _callers = row
            return cc, ct
    return 0, 0.0


def _top_functions(stats, limit):
    """The ``limit`` hottest rows by self time, as aligned text lines."""
    rows = sorted(
        ((tt, ct, nc, path, lineno, name)
         for (path, lineno, name), (cc, nc, tt, ct, _callers)
         in stats.stats.items()),
        reverse=True)[:limit]
    lines = []
    for tt, ct, nc, path, lineno, name in rows:
        where = f"{pathlib.Path(path).name}:{lineno}({name})"
        lines.append(f"{tt:8.3f}s self {ct:8.3f}s incl {nc:>9} calls  "
                     f"{where}")
    return lines


def summarize(label, run_stats, stats, top):
    """Build the per-side breakdown as a list of text lines."""
    resumes = run_stats.get("sim_resumes", 0)
    resume_calls, resume_seconds = _find(stats, *RESUME_FUNC)
    run_calls, run_seconds = _find(stats, *RUN_FUNC)
    total = stats.total_tt
    lines = [
        f"== {label} ==",
        f"points               {run_stats['points']}",
        f"points/sec           {run_stats['points_per_second']:.1f} "
        "(under profiler overhead; see BENCH_sweep.json for clean rates)",
        f"simulated / planned  {run_stats['simulated_points']} / "
        f"{run_stats['planned_points']}",
        f"event resumes        {resumes}",
        f"event kernel runs    {run_calls} calls, "
        f"{run_seconds:.3f}s inclusive",
        f"resume interpreter   {resume_calls} calls, "
        f"{resume_seconds:.3f}s inclusive",
    ]
    if resume_calls:
        lines.append(
            f"cost per resume      "
            f"{resume_seconds / resume_calls * 1e6:.1f} us inclusive")
        lines.append(
            f"resume share         "
            f"{resume_seconds / total * 100.0:.1f}% of "
            f"{total:.3f}s profiled")
    else:
        lines.append("cost per resume      n/a (no event-engine resumes)")
    lines.append("")
    lines.append(f"top {top} functions by self time:")
    lines.extend("  " + row for row in _top_functions(stats, top))
    return lines


def _markdown(args, sides):
    """Render the breakdown document for ``--markdown``."""
    grid = (f"kernel `{args.kernel}`, N {args.n}, M {args.m}, "
            f"variant `{args.variant}`, {args.clusters} clusters")
    out = io.StringIO()
    out.write("# Sweep profile breakdown\n\n")
    out.write(f"Generated by `python tools/profile_sweep.py` on {grid}.\n"
              "Throughput figures here carry cProfile overhead; the\n"
              "committed benchmark snapshots (`BENCH_sweep.json`) are the\n"
              "clean numbers.  Regenerate after engine changes with\n"
              "`python tools/profile_sweep.py --markdown "
              "docs/batching_profile.md`.\n")
    for label, lines, _run_stats in sides:
        out.write(f"\n## {label}\n\n```text\n")
        out.write("\n".join(lines[1:]))
        out.write("\n```\n")
    naive_stats, fast_stats = (dict(s) for s in
                               (sides[0][2], sides[1][2]))
    speedup = (fast_stats["points_per_second"]
               / naive_stats["points_per_second"]
               if naive_stats["points_per_second"] else float("inf"))
    resume_cut = (1.0 - (fast_stats.get("sim_resumes", 0)
                         / naive_stats["sim_resumes"])
                  if naive_stats.get("sim_resumes") else 0.0)
    out.write(
        "\n## Reading the numbers\n\n"
        f"Under the profiler the batched path ran {speedup:.2f}x the\n"
        f"reference and eliminated {resume_cut:.0%} of event-engine\n"
        "resumes.  Each resume is one generator re-entry in\n"
        "`repro/sim/process.py:_resume`; its inclusive share above is\n"
        "the interpreter cost the `BatchPlanner` converts into NumPy\n"
        "array algebra.  A few calibration simulations still pay full\n"
        "price (each residual-checked against the closed form); every\n"
        "other point of the sweep call is timed by one `predict_grid`\n"
        "evaluation per tile class (see `docs/architecture.md`,\n"
        "sections 12 and 13).\n")
    return out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", default="daxpy",
                        help="registered kernel to sweep (default: daxpy)")
    parser.add_argument("--n", type=int, nargs="+",
                        default=[1024, 4096, 8192],
                        help="problem sizes (default: 1024 4096 8192)")
    parser.add_argument("--m", type=int, nargs="+",
                        default=list(range(1, 17)),
                        help="offload widths (default: 1..16)")
    parser.add_argument("--clusters", type=int, default=16,
                        help="fabric size (default: 16)")
    parser.add_argument("--variant", default="extended",
                        help="protocol variant (default: extended)")
    parser.add_argument("--top", type=int, default=12,
                        help="hot functions to list per side (default: 12)")
    parser.add_argument("--markdown", type=pathlib.Path, default=None,
                        help="also write the breakdown as Markdown")
    args = parser.parse_args(argv)
    bad = [m for m in args.m if m < 1 or m > args.clusters]
    if bad:
        parser.error(f"--m values out of 1..{args.clusters}: {bad}")

    config = SoCConfig.extended(num_clusters=args.clusters)
    sides = []
    for label, naive in (("reference event engine (REPRO_NAIVE_BATCH=1)",
                          True),
                         ("batched planner (default path)", False)):
        run_stats, stats = profile_run(
            config, args.kernel, args.n, args.m, args.variant, naive)
        lines = summarize(label, run_stats, stats, args.top)
        print("\n".join(lines))
        print()
        sides.append((label, lines, run_stats))

    if args.markdown is not None:
        args.markdown.write_text(_markdown(args, sides))
        print(f"wrote {args.markdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
