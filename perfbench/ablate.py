"""Layer ablation: each fast-path gate flipped alone on the default path.

Runs every benchmark workload once with no gate, once per gate (the
``REPRO_NAIVE_*`` reference paths, ``REPRO_LINEAR_ROUTING`` and
``REPRO_FRESH_SYSTEMS`` from ``repro.flags.ALL_GATES``), and once more
with no gate so the table shows the run-to-run noise beside each
effect.  Every run is a fresh ``perfbench/run.py`` process at the
default seed, so the reference check also proves each gate leaves the
simulated results unchanged.  Not part of the per-change checks; run
from the repository root::

    python3 perfbench/ablate.py --seconds 6
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def gates() -> typing.List[str]:
    """The gates to ablate, in ``flags.ALL_GATES`` order."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import flags

    keep = {flags.LINEAR_ROUTING_ENV, flags.FRESH_SYSTEMS_ENV}
    return [gate for gate in flags.ALL_GATES
            if gate.startswith("REPRO_NAIVE_") or gate in keep]


def one_run(workload: str, gate: typing.Optional[str], seconds: float
            ) -> typing.Dict[str, typing.Any]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    if gate is not None:
        env[gate] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} under {gate}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def render(results: typing.Mapping[str, typing.Mapping[str, dict]],
           seconds: float) -> str:
    """One markdown table per workload: each metric as gated ÷ default."""
    lines = [
        "# Layer ablation",
        "",
        f"Generated by `python3 perfbench/ablate.py --seconds {seconds:g}`:"
        f" one {seconds:g}-second run per gate and workload at seed "
        f"{run.DEFAULT_SEED}.  Each cell is the gated run's value divided "
        "by the first ungated run's (so `throughput` below 1 and the "
        "other metrics above 1 mean the fast path the gate disables is "
        "worth keeping).  The `default (again)` row is a second ungated "
        "run: its distance from 1 is the noise floor.  `ok` is the "
        "run's own output check, including the reference fingerprint.",
        ""]
    names = [name for name, _unit in run.END_TO_END]
    for workload, rows in results.items():
        base = rows["default"]["metrics"]
        lines += [f"## {workload}", "",
                  "| gate | ok | " + " | ".join(names) + " |",
                  "|---|---|" + "---|" * len(names)]
        for label, result in rows.items():
            cells = []
            for name in names:
                value = result["metrics"][name]["value"]
                cells.append(f"{value:.4g} {base[name]['unit']}"
                             if label == "default"
                             else f"{value / base[name]['value']:.3f}")
            lines.append(f"| {label} | {'yes' if result['correct'] else 'NO'}"
                         f" | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--workloads", nargs="+",
                        default=list(run.WORKLOAD_NAMES),
                        choices=run.WORKLOAD_NAMES)
    parser.add_argument("--out", type=pathlib.Path,
                        default=HERE / "ablation.md")
    args = parser.parse_args()
    results: typing.Dict[str, typing.Dict[str, dict]] = {}
    for workload in args.workloads:
        rows = results.setdefault(workload, {})
        rows["default"] = one_run(workload, None, args.seconds)
        for gate in gates():
            print(f"{workload}: {gate}", flush=True)
            rows[gate] = one_run(workload, gate, args.seconds)
        rows["default (again)"] = one_run(workload, None, args.seconds)
    args.out.write_text(render(results, args.seconds))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
