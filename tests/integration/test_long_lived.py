"""A long-lived system serves job after job at constant cost.

Every entry point frees the main memory its job staged once the outputs
are collected (pass or fail), and the system's trace and NoC log hold
only the latest run, so neither grows with the jobs served before.  Nor
does the process: no memo keyed on a job's shape outlives the job.
"""

import gc
import tracemalloc

import numpy
import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload, run_on_host
from repro.core.overlap import offload_overlapped
from repro.core.staging import JobBinding
from repro.core.tiling import offload_tiled
from repro.errors import OffloadError, ReproError
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.workload import (characterize_platform, generate_workload,
                            run_workload)

ENTRY_POINTS = {
    "offload": lambda system: offload(system, "daxpy", 256, 4),
    "run_on_host": lambda system: run_on_host(system, "dot", 64),
    "offload_concurrent": lambda system: offload_concurrent(system, [
        ConcurrentJob("daxpy", 128, 2), ConcurrentJob("memcpy", 96, 3)]),
    "offload_overlapped": lambda system: offload_overlapped(
        system, "daxpy", 128, 2, "scale", 32),
    "offload_tiled": lambda system: offload_tiled(
        system, "daxpy", 4096, 2, tile_elements=1024),
}


def used_system():
    """An 8-cluster system with one caller buffer already allocated."""
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    buffer = system.memory.alloc_f64(4)
    system.memory.write_f64(buffer, numpy.arange(1.0, 5.0))
    return system, buffer


def assert_freed(system, buffer, allocated):
    """The allocator is back at ``allocated``, everything above it
    reads zero, and the caller's buffer is intact."""
    memory = system.memory
    assert memory.allocated_bytes == allocated
    free = memory.read_bytes(memory.base + allocated,
                             memory.size_bytes - allocated)
    assert not free.any()
    assert list(memory.read_f64(buffer, 4)) == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_frees_its_job_memory(name):
    system, buffer = used_system()
    allocated = system.memory.allocated_bytes
    for _repeat in range(2):
        ENTRY_POINTS[name](system)
        assert_freed(system, buffer, allocated)


def test_memory_is_freed_when_verification_fails(monkeypatch):
    system, buffer = used_system()
    allocated = system.memory.allocated_bytes

    def mismatch(self, outputs):
        raise OffloadError("forced mismatch")

    monkeypatch.setattr(JobBinding, "verify", mismatch)
    with pytest.raises(OffloadError, match="forced mismatch"):
        offload(system, "daxpy", 256, 4)
    assert_freed(system, buffer, allocated)


def test_memory_is_freed_when_staging_runs_out():
    """The second job passes its checks (double buffering needs no TCDM
    fit) but its operands exceed main memory; the first job's staged
    operands must not leak."""
    system, buffer = used_system()
    allocated = system.memory.allocated_bytes
    huge = system.config.main_memory_bytes // 16
    with pytest.raises(ReproError, match="out of memory"):
        offload_concurrent(system, [
            ConcurrentJob("memcpy", 256, 2),
            ConcurrentJob("memcpy", huge, 6, exec_mode="double_buffered")])
    assert_freed(system, buffer, allocated)


def test_an_aborted_run_keeps_its_memory():
    """Callbacks still queued after a cycle-limit abort may write the
    job's buffers, so those stay allocated."""
    system, _buffer = used_system()
    allocated = system.memory.allocated_bytes
    with pytest.raises(OffloadError, match="exceeded 100 cycles"):
        offload(system, "daxpy", 256, 4, max_cycles=100)
    assert system.sim.pending
    assert system.memory.allocated_bytes > allocated


def test_logs_hold_only_the_latest_run():
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    offload(system, "daxpy", 512, 8)
    first_total = system.noc.transactions_logged
    second = offload(system, "memcpy", 256, 4)
    trace = system.trace
    assert [r.data for r in trace.filter(label="offload_start")] == [
        "memcpy"]
    assert min(r.cycle for r in trace) == second.start_cycle
    transactions = system.noc.transactions
    assert min(t.issued_at for t in transactions) >= second.start_cycle
    assert system.noc.transactions_logged == first_total + len(transactions)


#: Traced bytes 300 jobs of a stream may leave behind.  Memos keyed on
#: each new N (the block schedule's, the compute phase's, generated
#: inputs) held about 1.5 MB here.
STREAM_SLACK_BYTES = 400_000


def test_a_long_job_stream_holds_constant_memory():
    """After a 50-job warm-up, 300 more jobs over 248 distinct N leave
    the process's traced memory where it was."""
    config = SoCConfig.extended(num_clusters=32)
    kernels = ("daxpy", "memcpy", "scale", "dot")
    policy = characterize_platform(config, kernels)
    jobs = generate_workload(350, kernels=kernels, seed=7)
    assert len({job.n for job in jobs[50:]}) == 248
    system = ManticoreSystem(config)
    run_workload(system, jobs[:50], policy, verify=True)
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        run_workload(system, jobs[50:], policy, verify=True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert held < STREAM_SLACK_BYTES, f"300 jobs left {held} bytes behind"


def _arrays_in(value, depth=3):
    """The NumPy arrays ``value`` holds, through nested containers."""
    if isinstance(value, numpy.ndarray):
        return [value]
    if depth == 0:
        return []
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [array for item in value
                for array in _arrays_in(item, depth - 1)]
    return []


def test_parked_dm_cores_hold_no_job_data():
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    offload(system, "memcpy", 512, 8)
    dm_cores = system.sim.live_processes
    assert len(dm_cores) == 8
    for process in dm_cores:
        frame_locals = process.generator.gi_frame.f_locals
        assert not _arrays_in(list(frame_locals.values())), process.name
