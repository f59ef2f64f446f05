"""Unit tests for the ManticoreSystem builder and address helpers."""

import contextlib
import functools
import gc
import tracemalloc
import weakref

import pytest

from repro import (
    ConcurrentJob,
    offload,
    offload_concurrent,
    offload_overlapped,
    run_on_host,
)
from repro import flags
from repro.errors import (
    DeadlockError,
    MemoryError_,
    OffloadError,
    QuiescenceError,
    WorkloadError,
)
from repro.sim import IntegrityWarning
from repro.soc.config import SoCConfig
from repro.soc.manticore import (
    CLUSTER_PERIPH_BASE,
    CLUSTER_PERIPH_STRIDE,
    ManticoreSystem,
)
from repro.soc.pool import SystemPool
from repro.workload import AlwaysOffload, JobSpec, run_workload


def small_system(**overrides):
    return ManticoreSystem(SoCConfig.extended(num_clusters=4, **overrides))


def test_builds_requested_cluster_count():
    system = small_system()
    assert len(system.clusters) == 4
    assert all(c.num_workers == 8 for c in system.clusters)


def test_address_map_has_all_regions():
    system = small_system()
    names = {region.name for region in system.address_map.regions}
    assert "dram" in names
    assert "syncunit" in names
    for index in range(4):
        assert f"cluster{index}.periph" in names
        assert f"cluster{index}.tcdm" in names


def test_mailbox_addresses_are_strided():
    system = small_system()
    assert system.mailbox_addr(0) == CLUSTER_PERIPH_BASE
    assert system.mailbox_addr(3) == (CLUSTER_PERIPH_BASE
                                      + 3 * CLUSTER_PERIPH_STRIDE)
    with pytest.raises(IndexError):
        system.mailbox_addr(4)


def test_mailbox_addrs_for_multicast():
    system = small_system()
    addrs = system.mailbox_addrs(3)
    assert addrs == tuple(system.mailbox_addr(i) for i in range(3))
    with pytest.raises(IndexError):
        system.mailbox_addrs(5)
    with pytest.raises(IndexError):
        system.mailbox_addrs(0)


def test_mailbox_write_through_map_reaches_cluster():
    system = small_system()
    system.run()   # park the DM cores so the ring is not a lost doorbell
    system.address_map.write_word(system.mailbox_addr(2), 0xBEEF)
    assert system.clusters[2].mailbox.job_ptr == 0xBEEF


def test_syncunit_addresses_route_to_unit():
    system = small_system()
    system.address_map.write_word(system.syncunit_threshold_addr, 3)
    assert system.syncunit.threshold == 3
    system.address_map.write_word(system.syncunit_increment_addr, 1)
    assert system.address_map.read_word(system.syncunit_count_addr) == 1


def test_unmapped_address_rejected():
    system = small_system()
    with pytest.raises(MemoryError_):
        system.address_map.read_word(0x6000_0000)


def test_clusters_share_memory_channels():
    system = small_system()
    assert all(c.dma.read_channel is system.read_channel
               for c in system.clusters)
    assert all(c.dma.write_channel is system.write_channel
               for c in system.clusters)


def test_fresh_system_time_is_zero():
    assert small_system().sim.now == 0


def test_run_drains_idle_system():
    system = small_system()
    assert system.run() == 0  # only parked DM cores, no events


# ----------------------------------------------------------------------
# System lifetime: a dropped system frees itself by reference counting
# ----------------------------------------------------------------------
#: Traced memory a dropped system may leave behind.  Its main memory
#: alone is 32 MiB, so anything the system failed to free shows.
DROP_SLACK_BYTES = 1_000_000


def _abort(system, max_cycles=100):
    """A run cut short mid-flight: callbacks stay queued."""
    with pytest.raises(OffloadError, match=f"exceeded {max_cycles} cycles"):
        offload(system, "daxpy", 256, 4, max_cycles=max_cycles)
    assert system.sim.pending


def _refuse_reset(system):
    """``reset()`` refuses a system a run left mid-flight."""
    _abort(system)
    with pytest.raises(QuiescenceError):
        system.reset()


def _fail_workload_job(system):
    """A job stream whose first job times out."""
    with pytest.raises(WorkloadError):
        run_workload(system, [JobSpec("daxpy", 64)], AlwaysOffload(4),
                     max_cycles=50)


def _release_dirty(system):
    """The pool drops a system that fails its quiescence audit."""
    _abort(system)
    pool = SystemPool()
    if flags.fresh_systems():
        pool.release(system)   # fresh-systems mode drops without an audit
    elif flags.strict():
        with pytest.raises(QuiescenceError):
            pool.release(system)
    else:
        with pytest.warns(IntegrityWarning):
            pool.release(system)
    assert pool.idle_count == 0


DROPPED_AFTER = {
    "plain": lambda system: offload(system, "daxpy", 256, 4),
    "concurrent": lambda system: offload_concurrent(system, [
        ConcurrentJob("daxpy", 128, 2), ConcurrentJob("memcpy", 128, 2)]),
    "overlapped": lambda system: offload_overlapped(
        system, "daxpy", 256, 4, "daxpy", 64),
    "host": lambda system: run_on_host(system, "daxpy", 64),
    "aborted": _abort,
    # Cut short with the members' completion stores in flight.
    "aborted-in-store": functools.partial(_abort, max_cycles=180),
    "pool-dropped": _release_dirty,
    "reset-refused": _refuse_reset,
    "workload-failed": _fail_workload_job,
}


@contextlib.contextmanager
def traced_without_collection():
    """Trace allocations with the cycle collector off: only reference
    counting frees anything inside the block."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("use", sorted(DROPPED_AFTER))
def test_a_dropped_system_frees_its_memory(use):
    run = DROPPED_AFTER[use]
    run(small_system())   # imports and the decode table fill first
    with traced_without_collection():
        baseline = tracemalloc.get_traced_memory()[0]
        system = small_system()
        run(system)
        del system
        held = tracemalloc.get_traced_memory()[0] - baseline
    assert held < DROP_SLACK_BYTES, f"{held} bytes outlived the system"


def test_a_system_its_own_parked_program_holds_is_still_collected():
    """The finalizer must not make a system in a cycle immortal."""
    def program(system):
        yield system.sim.event(name="never")

    system = small_system()
    system.host.run_program(program(system))
    system.run()
    dropped = weakref.ref(system)
    del system
    gc.collect()
    assert dropped() is None


def test_a_live_system_keeps_its_processes_and_deadlock_report():
    system = small_system()
    offload(system, "daxpy", 256, 4)
    dm_cores = {f"cluster{index}.dm" for index in range(4)}
    assert {p.name for p in system.sim.live_processes} == dm_cores
    gc.collect()
    assert {p.name for p in system.sim.live_processes} == dm_cores

    def stuck():
        yield system.sim.event(name="never")

    waiter = system.sim.spawn(stuck(), name="waiter")
    with pytest.raises(DeadlockError) as info:
        system.sim.run(until=waiter)
    blocked = {entry.name: entry.wait_kind for entry in info.value.report.blocked}
    assert blocked == {"waiter": "event", **dict.fromkeys(dm_cores, "mailbox")}
