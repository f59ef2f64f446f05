"""Host-time benchmark of the offload simulator.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints the
per-layer metrics of a traced run instead, together with the tracing
overhead, and writes the spans to ``.perfbench/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    Ledger,
    Tracer,
    compare_reference,
    summarize,
    system_seconds,
    user_seconds,
)

#: The seed whose simulated outputs are pinned in ``reference.json``.
DEFAULT_SEED = 1
#: A seed no tuning used; a claimed gain must also hold on it.
HELD_OUT_SEED = 9973
#: Set-up is repeated this many times per run (once in this process,
#: the rest in fresh processes) and the median reported.
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("sweep_cold", "sweep_warm", "stream", "traffic")

#: End-to-end metrics: ``(name, unit)``.
END_TO_END = (("setup_s", "s"), ("throughput", "1/s"),
              ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
              ("peak_rss_mb", "MB"), ("model_mape_pct", "%"))

#: What one unit of throughput and one latency sample are, per workload.
UNITS = {"sweep_cold": ("points", "sweep call"),
         "sweep_warm": ("points", "sweep call"),
         "stream": ("jobs", "job"),
         "traffic": ("admissions", "admission")}


def _timed_setup(name: str, seed: int, scratch: str, layers_on: bool):
    """Import the simulator and set the workload up; returns
    ``(seconds, workload, layers)``.  ``layers`` is ``None`` unless
    ``layers_on``, in which case the set-up was traced.  Timed in user
    CPU seconds, like every end-to-end timing."""
    start = user_seconds()
    import workloads

    layers = None
    if layers_on:
        from layers import Layers
        layers = Layers(Tracer())
        layers.install()
        layers.tracer.active = True
    workload = workloads.make(name, seed, scratch)
    try:
        workload.setup()
    finally:
        if layers is not None:
            layers.tracer.active = False
            layers.uninstall()
            # Set-up keeps its spans (op id -1) but not its counts, which
            # are reported per traced pass.
            layers.counts.clear()
    return user_seconds() - start, workload, layers


def _setup_in_subprocess(name: str, seed: int, scratch: str) -> float:
    """One set-up in a fresh process; its files stay under ``scratch``,
    which this process deletes when the run ends."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only",
         tempfile.mkdtemp(prefix="setup-", dir=scratch)],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_reference(workload, ledger: Ledger, name: str, record: bool,
                    path: pathlib.Path = REFERENCE) -> None:
    """At the default seed, the simulated fingerprint must match the
    one stored in ``path`` (one failed operation if any entry differs)."""
    fingerprint = workload.fingerprint()
    stored = json.loads(path.read_text()) if path.exists() else {}
    if record:
        stored[name] = fingerprint
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    op = ledger.attempt()
    for key in compare_reference(fingerprint, stored.get(name, {})):
        ledger.fail(op, f"reference mismatch: {name}.{key}")


def _measure(workload, seconds: float, ledger: Ledger, layers
             ) -> typing.Dict[str, list]:
    """Timed passes until ``seconds`` have elapsed, or for a paced
    workload one pass per slot of ``seconds``; at least one either way.

    With ``layers``, every pass runs twice on the same inputs: untraced,
    then traced; the untraced runs give the overhead baseline.
    """
    plain: typing.List = []
    traced: typing.List = []
    tracer = layers.tracer if layers is not None else Tracer()
    start = time.perf_counter()
    slot = workload.pass_slot_s
    index = 0
    while True:
        if slot is None:
            if index and time.perf_counter() >= start + seconds:
                break
        else:
            if index and index >= seconds // slot:
                break
            time.sleep(max(0.0, start + index * slot - time.perf_counter()))
        workload.prepare(index)
        plain.append(workload.run_pass(index, ledger, tracer))
        if layers is not None:
            workload.prepare(index)
            layers.install()
            tracer.active = True
            kernel = system_seconds()
            try:
                traced.append(workload.run_pass(index, ledger, tracer))
            finally:
                layers.kernel_seconds += system_seconds() - kernel
                tracer.active = False
                layers.uninstall()
        index += 1
    return {"plain": plain, "traced": traced}


def _report_plain(name: str, passes: typing.List, setups: typing.List[float],
                  workload, ledger: Ledger) -> typing.Dict[str, float]:
    """End-to-end metrics: timings are medians over passes, so a slow
    stretch of the host shifts one pass, not the result.

    Latency percentiles are taken per pass and their median reported;
    when every pass runs the same operations, each operation's median
    over passes is taken first and the percentiles across operations.
    """
    unit, op = UNITS[name]
    if workload.same_ops_every_pass:
        latency = summarize([statistics.median(samples) for samples
                             in zip(*(p.latencies for p in passes))])
        p50, p99 = latency["p50"], latency["p99"]
        basis = (f"{latency['samples']} operations, each the median of "
                 f"{len(passes)} passes")
    else:
        summaries = [summarize(p.latencies) for p in passes]
        p50 = statistics.median(s["p50"] for s in summaries)
        p99 = statistics.median(s["p99"] for s in summaries)
        basis = (f"median over passes of {summaries[0]['samples']} samples "
                 f"each, at least {min(s['beyond_p99'] for s in summaries)}"
                 " beyond the p99")
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": statistics.median(p.units / p.seconds for p in passes),
        "op_p50_ms": p50 * 1e3,
        "op_p99_ms": p99 * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
        "model_mape_pct": workload.model_mape_pct(),
    }
    print(f"workload {name}: {len(passes)} passes, "
          f"{sum(p.units for p in passes)} {unit} in "
          f"{sum(p.seconds for p in passes):.3f} CPU s")
    print(f"  setup_s          {metrics['setup_s']:.4f} s "
          f"(median of {len(setups)} set-ups)")
    print(f"  throughput       {metrics['throughput']:.1f} {unit}/s "
          f"(median of {len(passes)} passes)")
    print(f"  op_p50_ms        {metrics['op_p50_ms']:.4f} ms per {op}")
    print(f"  op_p99_ms        {metrics['op_p99_ms']:.4f} ms per {op}")
    print(f"                   ({basis})")
    print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
    print(f"  model_mape_pct   {metrics['model_mape_pct']:.4f} % (simulated)")
    for line in workload.notes():
        print(f"  {line}")
    print(f"  fail_rate        {ledger.fail_rate:.4f} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    return metrics


def _report_traced(name: str, measured: dict, workload, layers
                   ) -> typing.Dict[str, float]:
    from layers import PER_LAYER

    plain, traced = measured["plain"], measured["traced"]

    def cost(passes):   # CPU seconds per unit of work
        return sum(p.seconds for p in passes) / sum(p.units for p in passes)

    overhead = 100.0 * (cost(traced) / cost(plain) - 1.0)
    with layers.tracer.paused():
        extras = workload.layer_extras()
    metrics = layers.metrics(len(traced), extras, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}-{workload.seed}.jsonl"
    layers.tracer.write(str(spans))
    print(f"workload {name}: {len(traced)} traced passes, "
          f"{len(layers.tracer.spans)} spans written to "
          f"{spans.relative_to(ROOT)}")
    for metric, unit in PER_LAYER:
        print(f"  {metric:34s} {metrics[metric]:.6g} {unit}")
    return metrics


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="internal: time one set-up, keeping its files "
                             "in DIR, and print the time")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's simulated outputs as the "
                             "reference (default seed only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"the reference is recorded at seed {DEFAULT_SEED}")
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        seconds = _timed_setup(args.workload, args.seed, args.setup_only,
                               layers_on=False)[0]
        print(json.dumps({"setup_s": seconds}))
        return 0
    scratch = tempfile.mkdtemp(prefix="run-", dir=str(OUT_DIR))
    try:
        seconds, workload, layers = _timed_setup(
            args.workload, args.seed, scratch, layers_on=bool(args.trace))
        setups = [seconds]
        if not args.trace:
            setups += [_setup_in_subprocess(args.workload, args.seed, scratch)
                       for _ in range(SETUP_SAMPLES - 1)]
        ledger = Ledger()
        measured = _measure(workload, args.seconds, ledger, layers)
        if args.seed == DEFAULT_SEED:
            check_reference(workload, ledger, args.workload,
                            args.record_reference)
        if args.trace:
            from layers import PER_LAYER

            metrics = _report_traced(args.workload, measured, workload,
                                     layers)
            units = dict(PER_LAYER)
        else:
            metrics = _report_plain(args.workload, measured["plain"],
                                    setups, workload, ledger)
            units = dict(END_TO_END)
        for reason in ledger.reasons:
            print(f"  FAILED: {reason}")
        print(json.dumps({
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

