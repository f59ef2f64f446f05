"""The offload trace window on long-lived systems.

``build_offload_trace`` finds an offload's records by binary search in
the cycle-sorted trace log, so its cost does not grow with the jobs a
system served before.  These tests pin both halves of that: the
builder never iterates the whole log, and every way the repo drives a
system keeps the log sorted by cycle.
"""

import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload, run_on_host
from repro.runtime.trace import build_offload_trace
from repro.sim import Simulator, TraceRecorder
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.pool import SystemPool


class NoScanList(list):
    """A log that fails the test if anything iterates all of it."""

    def __iter__(self):
        raise AssertionError("the whole trace log was scanned")


def assert_sorted(system):
    cycles = [record.cycle for record in system.trace.records]
    assert cycles == sorted(cycles)


def test_window_slices_the_sorted_log():
    sim = Simulator()
    recorder = TraceRecorder(sim)
    for cycle, label in ((0, "a"), (3, "b"), (3, "c"), (3, "d"), (7, "e")):
        sim.now = cycle
        recorder.record("host", label)

    def labels(start, end):
        return [record.label for record in recorder.window(start, end)]

    assert labels(3, 7) == ["b", "c", "d"]   # all of the run at the start
    assert labels(0, 3) == ["a"]             # none of the run at the end
    assert labels(-5, 100) == ["a", "b", "c", "d", "e"]
    assert labels(3, 3) == [] and labels(8, 9) == [] and labels(-2, 0) == []


def test_builder_reads_only_the_window_after_many_offloads():
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    for job in range(30):
        last = offload(system, "daxpy", 256, 1 + job % 8, seed=job)
    system.trace.records = NoScanList(system.trace.records)
    rebuilt = build_offload_trace(system.trace, last.start_cycle,
                                  last.end_cycle)
    assert rebuilt == last.trace


def test_log_stays_sorted_across_every_entry_point(monkeypatch):
    # The snapshot-restore entry point is part of what is covered, so
    # the copy-on-write snapshot path stays on under any ambient gate.
    monkeypatch.delenv("REPRO_NAIVE_SNAPSHOT", raising=False)
    config = SoCConfig.extended(num_clusters=8)
    pool = SystemPool()
    for round_ in range(3):  # build, then reset, then snapshot restore
        system = pool.acquire(config)
        assert_sorted(system)
        offload(system, "daxpy", 256, 4, seed=round_)
        run_on_host(system, "daxpy", 64, seed=round_)
        offload_concurrent(system, [ConcurrentJob("daxpy", 256, 4, seed=1),
                                    ConcurrentJob("scale", 256, 4, seed=2)])
        offload(system, "daxpy", 512, 8, seed=round_)
        assert_sorted(system)
        pool.release(system)
    assert pool.restores >= 1 or pool.builds == 3


@pytest.mark.parametrize("variant", ["baseline", "extended"])
def test_log_stays_sorted_across_warm_snapshot_restore(variant):
    system = ManticoreSystem(getattr(SoCConfig, variant)(num_clusters=4))
    offload(system, "daxpy", 256, 2)
    state = system.snapshot()
    offload(system, "daxpy", 256, 4)
    system.restore(state)
    fork = offload(system, "daxpy", 128, 3)
    assert_sorted(system)
    assert build_offload_trace(system.trace, fork.start_cycle,
                               fork.end_cycle) == fork.trace
