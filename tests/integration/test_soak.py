"""Soak test: random mixed operation sequences on one long-lived system.

Real applications interleave offloads of different kernels, widths,
variants and protocols with host executions and concurrent launches —
all on the *same* SoC instance.  This test drives randomized sequences
and checks that every operation verifies functionally and the system's
bookkeeping stays consistent throughout (no leaked barrier generations,
no stuck sync-unit state, no cross-job interference).
"""

import numpy
import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload, run_on_host
from repro.kernels.registry import get_kernel
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem

#: Kernels cheap enough to soak with (gemv's n-by-n A matrix makes a
#: step orders of magnitude larger than the rest).
SOAK_KERNELS = ("daxpy", "saxpy", "axpby", "memcpy", "scale", "relu",
                "stencil3", "vecsum", "dot")


def random_operation(rng, system):
    """Run one random operation; returns an identifying tag."""
    choice = rng.integers(0, 10)
    kernel = str(rng.choice(SOAK_KERNELS))
    n = int(rng.integers(1, 700))
    seed = int(rng.integers(0, 2**31 - 1))
    if choice < 5:
        m = int(rng.integers(1, system.config.num_clusters + 1))
        variant = str(rng.choice(["auto", "baseline", "multicast_only",
                                  "hw_sync_only", "extended"]))
        result = offload(system, kernel, n, m, variant=variant, seed=seed)
        assert result.verified is True
        return f"offload {kernel} n={n} m={m} {variant}"
    if choice < 7:
        tileable = get_kernel(kernel).tileable
        if tileable and n >= 64:
            m = int(rng.integers(1, system.config.num_clusters + 1))
            result = offload(system, kernel, n, m, seed=seed,
                             exec_mode="double_buffered")
            assert result.verified is True
            return f"dbuf {kernel} n={n} m={m}"
        result = run_on_host(system, kernel, n, seed=seed)
        assert result.verified is True
        return f"host {kernel} n={n}"
    if choice < 9:
        result = run_on_host(system, kernel, n, seed=seed)
        assert result.verified is True
        return f"host {kernel} n={n}"
    half = system.config.num_clusters // 2
    m_a = int(rng.integers(1, half + 1))
    m_b = int(rng.integers(1, system.config.num_clusters - m_a + 1))
    result = offload_concurrent(system, [
        ConcurrentJob(kernel, n, m_a, seed=seed),
        ConcurrentJob("memcpy", max(1, n // 2), m_b, seed=seed + 1),
    ])
    assert all(job.verified for job in result.jobs)
    return f"concurrent {kernel}+memcpy"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_soak_mixed_operations_on_one_system(seed):
    rng = numpy.random.default_rng(seed)
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    for _step in range(40):
        random_operation(rng, system)
        # Invariants that must hold between operations:
        assert system.memory.allocated_bytes == 0
        assert system.fabric_barrier.open_groups == ()
        assert not system.syncunit.armed
        assert all(cluster.barrier.waiting == 0
                   for cluster in system.clusters)
        assert system.sim.pending == 0 or system.sim.step() is not None


def test_soak_is_deterministic():
    def run(seed):
        rng = numpy.random.default_rng(seed)
        system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
        tags = [random_operation(rng, system) for _ in range(15)]
        return tags, system.sim.now

    first = run(42)
    second = run(42)
    assert first == second
