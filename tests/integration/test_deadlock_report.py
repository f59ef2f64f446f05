"""A wedged offload must die with a report naming who waits on what.

These tests break the offload protocol the way
``tests/integration/test_failure_injection.py`` does — but instead of
asserting only *that* the run fails, they assert the failure carries a
:class:`repro.sim.SimulationReport` precise enough to debug from: the
blocked host, the starved DM cores, and their classified wait reasons
(mailbox, barrier, IRQ), plus the trace tail leading up to the wedge.
"""

import pytest

from repro import abi
from repro.errors import DeadlockError, OffloadError
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.syncunit import IRQ_LINE


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


def make_descriptor(system, n=64, num_clusters=2):
    memory = system.memory
    x_addr = memory.alloc_f64(n)
    y_addr = memory.alloc_f64(n)
    return abi.JobDescriptor(
        kernel_name="daxpy", n=n, num_clusters=num_clusters,
        sync_mode=abi.SYNC_MODE_SYNCUNIT,
        completion_addr=system.syncunit_increment_addr,
        exec_mode=abi.EXEC_MODE_PHASED, scalars={"a": 1.0},
        input_addrs={"x": x_addr, "y": y_addr},
        output_addrs={"y": y_addr})


def write_descriptor(system, desc):
    words = abi.encode_descriptor(desc)
    desc_addr = system.memory.alloc(8 * max(len(words), 8), align=64)
    for index, word in enumerate(words):
        system.memory.write_word(desc_addr + 8 * index, word)
    return desc_addr


def wedge_cluster(system):
    """Ring 1 of the 2 clusters the descriptor expects, then WFI.

    Cluster 0 wakes and starves at the job's start barrier, cluster 1
    never hears its doorbell, and the host sleeps on an IRQ that can
    never fire — a three-way deadlock.
    """
    desc = make_descriptor(system, num_clusters=2)
    desc_addr = write_descriptor(system, desc)
    system.address_map.write_word(system.syncunit_threshold_addr, 2)

    def host_program():
        yield from system.host.store_posted(system.mailbox_addr(0),
                                            desc_addr)
        yield from system.host.wfi(IRQ_LINE)

    return system.host.run_program(host_program())


def test_deadlock_report_names_every_blocked_process():
    system = ext_system()
    done = wedge_cluster(system)
    with pytest.raises(DeadlockError) as info:
        system.sim.run(until=done)
    report = info.value.report
    assert report.reason == "deadlock"
    assert report.pending == 0

    blocked = {entry.name: entry for entry in report.blocked}
    # Cluster 0 woke up and starves at the fabric start barrier.
    dm0 = next(e for n, e in blocked.items()
               if n.startswith("cluster0") and e.wait_kind == "barrier")
    assert "fabric_barrier" in dm0.wait_detail
    # Cluster 1 never heard a doorbell: parked on its mailbox.
    dm1 = next(e for n, e in blocked.items() if n.startswith("cluster1"))
    assert dm1.wait_kind == "mailbox"
    assert dm1.wait_detail == "mailbox1.ring"
    # The other six clusters are also mailbox-parked (boot state).
    mailbox_parked = [e for e in report.blocked if e.wait_kind == "mailbox"]
    assert len(mailbox_parked) == 7
    # The host sleeps on the sync-unit IRQ line.
    host = next(e for e in report.blocked if e.wait_kind == "irq")
    assert host.wait_detail == IRQ_LINE


def test_deadlock_report_renders_in_the_error_message():
    system = ext_system()
    done = wedge_cluster(system)
    with pytest.raises(DeadlockError) as info:
        system.sim.run(until=done)
    message = str(info.value)
    assert "blocked process(es)" in message
    assert "mailbox1.ring" in message
    assert f"irq ({IRQ_LINE})" in message


def test_deadlock_report_carries_the_trace_tail():
    system = ext_system()
    done = wedge_cluster(system)
    with pytest.raises(DeadlockError) as info:
        system.sim.run(until=done)
    tail = info.value.report.trace_tail
    assert tail, "system recorder should feed the report"
    labels = {record.label for record in tail}
    assert "doorbell" in labels or "awake" in labels


def test_offload_error_chains_the_report():
    # The high-level entry point (run_to_completion) re-raises as
    # OffloadError but must keep the report attached and quoted.
    from repro.core.staging import run_to_completion
    system = ext_system()
    done = wedge_cluster(system)
    with pytest.raises(OffloadError) as info:
        run_to_completion(system, done, max_cycles=1_000_000)
    assert info.value.report is not None
    assert info.value.report.blocked
    assert "mailbox1.ring" in str(info.value)


def test_cycle_limit_report_on_a_livelocked_host():
    # A host that never stops polling trips the cycle budget; the
    # report names the spinning process's current wait.
    from repro.core.staging import run_to_completion
    system = ext_system()

    def poll_forever():
        while True:
            yield from system.host.load(system.syncunit_count_addr)

    done = system.host.run_program(poll_forever())
    with pytest.raises(OffloadError, match="exceeded 5000 cycles") as info:
        run_to_completion(system, done, max_cycles=5000)
    report = info.value.report
    assert report.reason == "cycle-limit"
    assert report.pending > 0   # the next poll is still queued


def test_cycle_limit_report_shows_no_record_from_beyond_the_abort():
    """A plain launch's DM cores stamp their DMA-in, compute and
    completion records ahead.  A cycle limit that cuts the job between
    the fabric release and the write-backs must leave those records out
    of the report's trace tail."""
    from repro.core.offload import offload
    whole = offload(ext_system(), "daxpy", 4096, 8)
    released = max(c.decoded for c in whole.trace.clusters)
    written = min(c.dma_out_done for c in whole.trace.clusters)
    assert released < written - 1
    with pytest.raises(OffloadError) as info:
        offload(ext_system(), "daxpy", 4096, 8, max_cycles=written - 1)
    report = info.value.report
    assert report.reason == "cycle-limit"
    assert report.trace_tail
    assert {r.label for r in report.trace_tail} >= {"start_barrier_crossed"}
    assert all(r.cycle <= report.cycle for r in report.trace_tail)
    assert "dma_out_done" not in {r.label for r in report.trace_tail}
