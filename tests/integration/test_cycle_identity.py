"""Golden A/B cycle-identity: the staging refactor must not move a cycle.

The job-lifecycle refactor (``repro.core.staging`` + the strategy and
phase-pipeline layers) promises *byte-identical* cycle counts against
the pre-refactor code.  ``tests/data/golden_cycles.json`` holds the
measurements recorded from the pre-refactor tree; these tests replay
the exact same launches and require equality — not bands, not
tolerances.  If one of these fails, the refactor changed the measured
machine (most likely the operand-allocation order in
:meth:`repro.core.staging.JobBinding.bind`), which invalidates every
number in the paper reproduction.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload
from repro.core.overlap import offload_overlapped
from repro.kernels import get_kernel, kernel_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "data" / "golden_cycles.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

GRID_N = (1024, 2048, 4096, 8192)
GRID_M = (1, 2, 4, 8, 16, 32)

_CONFIGS = {
    "baseline": SoCConfig.baseline,
    "extended": SoCConfig.extended,
}


def test_golden_covers_the_full_grid():
    for variant in ("baseline", "extended"):
        assert set(GOLDEN["grid"][variant]) == {
            f"{n}x{m}" for n in GRID_N for m in GRID_M}


@pytest.mark.parametrize("variant", ["baseline", "extended"])
@pytest.mark.parametrize("n", GRID_N)
def test_daxpy_grid_is_cycle_identical(variant, n):
    config = _CONFIGS[variant]()
    golden = GOLDEN["grid"][variant]
    measured = {
        m: offload(ManticoreSystem(config), "daxpy", n, m).runtime_cycles
        for m in GRID_M
    }
    assert measured == {m: golden[f"{n}x{m}"] for m in GRID_M}


#: The all-kernel grid: N = 5 leaves empty slices, odd N splits
#: unevenly, and N = 96 at M = 1 still fits gemv's whole matrix.
KERNEL_N = (5, 37, 96)
KERNEL_M = (1, 3, 8, 32)
#: Chunked double-buffered launches, for kernels that accept the mode.
DOUBLE_BUFFERED = ("96x1", "96x3")


def _markers(config, kernel, n, m, **kwargs):
    """Runtime plus per-cluster DMA-in/-out done cycles (start-relative)."""
    result = offload(ManticoreSystem(config), kernel, n, m, **kwargs)

    def since_start(cycle):
        return None if cycle is None else cycle - result.start_cycle

    return {"runtime_cycles": result.runtime_cycles,
            "dma_in_done": [since_start(c.dma_in_done)
                            for c in result.trace.clusters],
            "dma_out_done": [since_start(c.dma_out_done)
                             for c in result.trace.clusters]}


@pytest.mark.parametrize("variant", ["baseline", "extended"])
def test_golden_covers_every_kernel(variant):
    golden = GOLDEN["kernels"][variant]
    assert set(golden) == set(kernel_names())
    for name, entry in golden.items():
        kernel = get_kernel(name)
        assert set(entry["phased"]) == {
            f"{n}x{m}" for n in KERNEL_N for m in KERNEL_M}
        element_wise = all(kernel.output_length(out, 96, 3) == 96
                           for out in kernel.output_names)
        assert set(entry["double_buffered"]) == (
            set(DOUBLE_BUFFERED) if element_wise else set())


@pytest.mark.parametrize("variant", ["baseline", "extended"])
@pytest.mark.parametrize("kernel", kernel_names())
def test_every_kernel_is_cycle_identical(variant, kernel):
    """Every kernel's runtime and per-cluster DMA markers, phased and
    double-buffered, match the recorded numbers exactly."""
    config = _CONFIGS[variant]()
    golden = GOLDEN["kernels"][variant][kernel]
    measured = {f"{n}x{m}": _markers(config, kernel, n, m)
                for n in KERNEL_N for m in KERNEL_M}
    assert measured == golden["phased"]
    chunked = {}
    for shape in golden["double_buffered"]:
        n, m = map(int, shape.split("x"))
        chunked[shape] = _markers(config, kernel, n, m,
                                  exec_mode="double_buffered")
    assert chunked == golden["double_buffered"]


@pytest.mark.parametrize("variant, key", [
    ("extended", "overlapped"),
    ("baseline", "overlapped_baseline"),
])
def test_overlapped_launch_is_cycle_identical(variant, key):
    config = _CONFIGS[variant]()
    result = offload_overlapped(ManticoreSystem(config), "daxpy", 2048, 8,
                                "scale", 512)
    assert result.total_cycles == GOLDEN[key]["total_cycles"]
    assert result.exposed_wait_cycles == GOLDEN[key]["exposed_wait_cycles"]


@pytest.mark.parametrize("variant, key", [
    ("extended", "concurrent"),
    ("baseline", "concurrent_baseline"),
])
def test_concurrent_launch_is_cycle_identical(variant, key):
    config = _CONFIGS[variant]()
    result = offload_concurrent(ManticoreSystem(config), [
        ConcurrentJob("daxpy", 2048, 8, seed=1),
        ConcurrentJob("memcpy", 1024, 4, seed=2),
    ])
    assert result.makespan_cycles == GOLDEN[key]["makespan_cycles"]
    assert [job.completed_cycle for job in result.jobs] == \
        GOLDEN[key]["completed_cycles"]


# ----------------------------------------------------------------------
# Heterogeneity refactor A/B: fabrics of the default class must not
# move a cycle either — same golden numbers, three construction paths.
# ----------------------------------------------------------------------

def _default_class_fabric(variant):
    from repro.soc.tiles import SNITCH, TileGroup

    legacy = _CONFIGS[variant]()
    return SoCConfig.with_fabric(
        [TileGroup(name="all", tile=SNITCH, count=legacy.num_clusters)],
        multicast=legacy.multicast, hw_sync=legacy.hw_sync)


@pytest.mark.parametrize("variant", ["baseline", "extended"])
@pytest.mark.parametrize("n", GRID_N)
def test_default_class_fabric_is_cycle_identical(variant, n):
    """One explicit SNITCH group ≡ the legacy homogeneous config."""
    config = _default_class_fabric(variant)
    golden = GOLDEN["grid"][variant]
    measured = {
        m: offload(ManticoreSystem(config), "daxpy", n, m).runtime_cycles
        for m in GRID_M
    }
    assert measured == {m: golden[f"{n}x{m}"] for m in GRID_M}


@pytest.mark.parametrize("variant, key", [
    ("extended", "overlapped"),
    ("baseline", "overlapped_baseline"),
])
def test_default_class_fabric_overlapped_is_cycle_identical(variant, key):
    config = _default_class_fabric(variant)
    result = offload_overlapped(ManticoreSystem(config), "daxpy", 2048, 8,
                                "scale", 512)
    assert result.total_cycles == GOLDEN[key]["total_cycles"]
    assert result.exposed_wait_cycles == GOLDEN[key]["exposed_wait_cycles"]


@pytest.mark.parametrize("variant, key", [
    ("extended", "concurrent"),
    ("baseline", "concurrent_baseline"),
])
def test_default_class_fabric_concurrent_is_cycle_identical(variant, key):
    config = _default_class_fabric(variant)
    result = offload_concurrent(ManticoreSystem(config), [
        ConcurrentJob("daxpy", 2048, 8, seed=1),
        ConcurrentJob("memcpy", 1024, 4, seed=2),
    ])
    assert result.makespan_cycles == GOLDEN[key]["makespan_cycles"]
    assert [job.completed_cycle for job in result.jobs] == \
        GOLDEN[key]["completed_cycles"]


@pytest.mark.parametrize("variant", ["baseline", "extended"])
def test_explicit_fabric_gate_is_cycle_identical(variant):
    """Per-cluster single-tile groups ≡ the implicit homogeneous span."""
    from repro.soc.tiles import SNITCH, TileGroup

    legacy = _CONFIGS[variant]()
    config = SoCConfig.with_fabric(
        [TileGroup(f"tile{index}", SNITCH, 1)
         for index in range(legacy.num_clusters)],
        multicast=legacy.multicast, hw_sync=legacy.hw_sync)
    assert len(config.groups()) == config.num_clusters
    golden = GOLDEN["grid"][variant]
    measured = {
        m: offload(ManticoreSystem(config), "daxpy", 2048, m).runtime_cycles
        for m in GRID_M
    }
    assert measured == {m: golden[f"2048x{m}"] for m in GRID_M}


def test_snitch_group_of_mixed_fabric_matches_golden():
    """The snitch span of a heterogeneous fabric stays on the golden
    numbers: adding OTHER classes to the SoC must not perturb the
    classes that were already there."""
    from repro.soc.tiles import SNITCH, VECWIDE, TileGroup

    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=8),
         TileGroup(name="big", tile=VECWIDE, count=24)],
        multicast=True, hw_sync=True)
    golden = GOLDEN["grid"]["extended"]
    for m in (1, 2, 4, 8):
        result = offload(ManticoreSystem(config), "daxpy", 1024, m,
                         tile_group="little")
        assert result.runtime_cycles == golden[f"1024x{m}"]
