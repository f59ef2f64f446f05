"""Sweep-point throughput: the simulator fast-forward layers, A/B'd.

Not a paper artifact: this tracks how many grid points per second the
sweep machinery measures, with every throughput mechanism — bisect +
hit-cache routing, pooled SoC reuse through ``reset()``, virtualized
host polling, bulk channel timing, closed-form
barrier/compute-phase crossings, and the batch planner that times most
grid points as array arithmetic seeded from a handful of calibration
runs (the M axis itself predicted via affine prefix models) — toggled
on and off via the A/B environment gates.  The toggles exist precisely
because the mechanisms are required to be bit-identical in measured
cycles — this module asserts that identity on the full grid while
timing both sides.

Snapshot with::

    pytest benchmarks/bench_sweep_throughput.py \
        --benchmark-json=BENCH_sweep.json -q
"""

import contextlib
import gc
import os
import time

from repro.core.sweep import sweep
from repro.flags import (
    FRESH_SYSTEMS_ENV,
    LINEAR_ROUTING_ENV,
    NAIVE_BARRIER_ENV,
    NAIVE_BATCH_ENV,
    NAIVE_CHANNEL_ENV,
    NAIVE_MPREDICT_ENV,
    NAIVE_POLL_ENV,
)
from repro.soc.config import SoCConfig

#: The acceptance grid: both paper variants over three problem sizes
#: and every fabric width.  384 simulations per A/B pass (192 a side).
N_VALUES = [1024, 4096, 8192]
M_VALUES = list(range(1, 33))
VARIANTS = ["baseline", "extended"]

_ALL_GATES = (NAIVE_POLL_ENV, FRESH_SYSTEMS_ENV, LINEAR_ROUTING_ENV,
              NAIVE_CHANNEL_ENV, NAIVE_BARRIER_ENV, NAIVE_BATCH_ENV,
              NAIVE_MPREDICT_ENV)


@contextlib.contextmanager
def _gates(enabled, names=_ALL_GATES):
    saved = {name: os.environ.get(name) for name in _ALL_GATES}
    for name in _ALL_GATES:
        if enabled and name in names:
            os.environ[name] = "1"
        else:
            os.environ.pop(name, None)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run_grid():
    """Measure the full grid; returns the flat list of sweep points."""
    config = SoCConfig.extended(num_clusters=32)
    points = []
    for variant in VARIANTS:
        variant_config = config.for_variant(variant)
        result = sweep(variant_config, "daxpy", N_VALUES, M_VALUES,
                       variant=variant)
        points.extend(result.points)
    return points


def test_sweep_point_throughput(benchmark):
    """Points/second with every fast-forward mechanism active.

    Five rounds, best-round statistics: the grid does identical work
    every round, so the fastest round is the least-perturbed one and
    ``points_per_sec`` is computed from it (a single-round figure is
    dominated by scheduler noise and CPU-frequency warm-up, which made
    earlier snapshots of this entry swing by >20%).
    """
    with _gates(enabled=False):
        points = benchmark.pedantic(_run_grid, rounds=5, iterations=1)
    assert len(points) == len(N_VALUES) * len(M_VALUES) * len(VARIANTS)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        best = benchmark.stats.stats.min
        benchmark.extra_info["grid_points"] = len(points)
        benchmark.extra_info["points_per_sec"] = round(len(points) / best, 1)


def test_optimizations_are_bit_identical_and_faster(benchmark):
    """A/B the full grid: gates off vs on; identical cycles, >=2x goal.

    Interleaved min-of-N, the same methodology as the engine-bench A/B
    in PR 1: alternate naive/optimized passes so warm-up and allocator
    state cannot favour one side, then compare each side's best pass.
    The benchmark-timed body is one *unoptimized* pass (naive poll
    loop, fresh system per point, linear-scan routing); both sides'
    throughput and the speedup land in ``extra_info``.  The hard
    assertion is deliberately looser than the 2x acceptance figure so a
    loaded CI runner cannot flake it; the committed BENCH_sweep.json
    demonstrates the real ratio.
    """
    rounds = 5
    naive_times = []
    fast_times = []
    naive_points = fast_points = None
    for index in range(rounds):
        with _gates(enabled=True):
            gc.collect()
            start = time.perf_counter()
            if index == 0:
                naive_points = benchmark.pedantic(_run_grid,
                                                  rounds=1, iterations=1)
            else:
                naive_points = _run_grid()
            naive_times.append(time.perf_counter() - start)
        with _gates(enabled=False):
            gc.collect()
            start = time.perf_counter()
            fast_points = _run_grid()
            fast_times.append(time.perf_counter() - start)
        # The whole point: not one measured cycle may move.
        assert fast_points == naive_points

    speedup = min(naive_times) / min(fast_times)
    benchmark.extra_info["naive_points_per_sec"] = round(
        len(naive_points) / min(naive_times), 1)
    benchmark.extra_info["optimized_points_per_sec"] = round(
        len(fast_points) / min(fast_times), 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup > 1.4, (
        f"sweep optimizations only {speedup:.2f}x faster than the "
        "naive path; expected ~2x")


def test_batch_planner_is_bit_identical_and_faster(benchmark):
    """Isolate the batch planner: every other mechanism on, batching
    A/B'd.

    ``REPRO_NAIVE_BATCH`` alone is toggled, so both sides enjoy pooled
    systems and bulk timing — the measured ratio is
    the planner's full contribution on the acceptance grid, affine
    M-axis prefix prediction included (a handful of anchor calibrations
    per variant, everything else timed closed-form).  Interleaved
    min-of-N as above; bit-identity of the full point stream is the
    hard gate, the speedup floor stays loose for loaded CI runners.
    """
    rounds = 5
    event_times = []
    batched_times = []
    event_points = batched_points = None
    for index in range(rounds):
        with _gates(enabled=True, names=(NAIVE_BATCH_ENV,)):
            gc.collect()
            start = time.perf_counter()
            if index == 0:
                event_points = benchmark.pedantic(_run_grid,
                                                  rounds=1, iterations=1)
            else:
                event_points = _run_grid()
            event_times.append(time.perf_counter() - start)
        with _gates(enabled=False):
            gc.collect()
            start = time.perf_counter()
            batched_points = _run_grid()
            batched_times.append(time.perf_counter() - start)
        assert batched_points == event_points

    speedup = min(event_times) / min(batched_times)
    benchmark.extra_info["event_points_per_sec"] = round(
        len(event_points) / min(event_times), 1)
    benchmark.extra_info["batched_points_per_sec"] = round(
        len(batched_points) / min(batched_times), 1)
    benchmark.extra_info["batch_speedup"] = round(speedup, 2)
    assert speedup > 1.3, (
        f"batch planner only {speedup:.2f}x faster than the event "
        "engine; expected ~2x")


def test_mpredict_layer_is_bit_identical_and_faster(benchmark):
    """Isolate the affine M-axis prediction layer (batch layer 3).

    ``REPRO_NAIVE_MPREDICT`` alone is toggled, so *both* sides run the
    batch planner with every other mechanism on — the measured ratio is
    what predicting dispatch prefixes as affine functions of M buys
    over PR 7's one-calibration-per-(variant, M) rule on the acceptance
    grid (64 calibration simulations a pass vs ~7: three anchors per
    variant plus multicast's off-domain M = 1 group).  No persistent
    store is involved (``sweep`` runs uncached here), so this is the
    cold-run figure.  Interleaved min-of-N; bit-identity of the full
    point stream is the hard gate, the speedup floor stays loose for
    loaded CI runners.
    """
    rounds = 5
    calibrated_times = []
    predicted_times = []
    calibrated_points = predicted_points = None
    for index in range(rounds):
        with _gates(enabled=True, names=(NAIVE_MPREDICT_ENV,)):
            gc.collect()
            start = time.perf_counter()
            if index == 0:
                calibrated_points = benchmark.pedantic(
                    _run_grid, rounds=1, iterations=1)
            else:
                calibrated_points = _run_grid()
            calibrated_times.append(time.perf_counter() - start)
        with _gates(enabled=False):
            gc.collect()
            start = time.perf_counter()
            predicted_points = _run_grid()
            predicted_times.append(time.perf_counter() - start)
        assert predicted_points == calibrated_points

    speedup = min(calibrated_times) / min(predicted_times)
    benchmark.extra_info["calibrated_points_per_sec"] = round(
        len(calibrated_points) / min(calibrated_times), 1)
    benchmark.extra_info["predicted_points_per_sec"] = round(
        len(predicted_points) / min(predicted_times), 1)
    benchmark.extra_info["mpredict_speedup"] = round(speedup, 2)
    assert speedup > 1.1, (
        f"M-axis prefix prediction only {speedup:.2f}x faster than "
        "per-group calibration; expected a measurable win")
