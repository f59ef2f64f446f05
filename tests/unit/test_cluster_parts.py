"""Unit tests for cluster components: barrier, DMA, mailbox, workers."""

import pytest

from repro.cluster import Barrier, DmaEngine, Mailbox, WorkerCore
from repro.cluster.worker import split_among_cores
from repro.errors import ConfigError, SimulationError
from repro.kernels import DaxpyKernel, WorkSlice
from repro.sim import Simulator, ThroughputChannel


# ----------------------------------------------------------------------
# Barrier
# ----------------------------------------------------------------------
def test_barrier_releases_when_all_arrive():
    sim = Simulator()
    barrier = Barrier(sim, parties=3, latency=2)
    times = []

    def party(delay):
        yield delay
        yield from barrier.wait()
        times.append(sim.now)

    for delay in [5, 1, 9]:
        sim.spawn(party(delay))
    sim.run()
    assert times == [11, 11, 11]  # last arrival at 9, + 2 latency
    assert barrier.generation == 1


def test_barrier_is_reusable_across_generations():
    sim = Simulator()
    barrier = Barrier(sim, parties=2, latency=0)
    crossings = []

    def party(tag):
        for _round in range(3):
            gen = yield from barrier.wait()
            crossings.append((tag, gen, sim.now))
            yield 1

    sim.spawn(party("a"))
    sim.spawn(party("b"))
    sim.run()
    assert barrier.generation == 3
    generations = [g for _t, g, _c in crossings]
    assert sorted(generations) == [0, 0, 1, 1, 2, 2]


def test_barrier_waiting_count():
    sim = Simulator()
    barrier = Barrier(sim, parties=2)

    def one():
        yield from barrier.wait()

    sim.spawn(one())
    sim.run()  # drains: one party is parked forever
    assert barrier.waiting == 1


def test_barrier_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Barrier(sim, parties=0)
    with pytest.raises(SimulationError):
        Barrier(sim, parties=2, latency=-1)


# ----------------------------------------------------------------------
# DMA engine
# ----------------------------------------------------------------------
def make_dma(setup=4, width=64):
    sim = Simulator()
    read = ThroughputChannel(sim, width, name="read")
    write = ThroughputChannel(sim, width, name="write")
    dma = DmaEngine(sim, read, write, setup_cycles=setup)
    return sim, read, write, dma


def test_dma_transfer_in_timing():
    sim, _read, _write, dma = make_dma(setup=4, width=64)

    def body():
        yield from dma.transfer_in(640)  # 10 beats
        return sim.now

    proc = sim.spawn(body())
    sim.run()
    assert proc.value == 4 + 10


def test_dma_zero_bytes_is_free():
    sim, _read, _write, dma = make_dma()

    def body():
        yield from dma.transfer_in(0)
        yield from dma.transfer_out(0)
        return sim.now

    proc = sim.spawn(body())
    sim.run()
    assert proc.value == 0
    assert dma.transfers_in == 0


def test_dma_negative_bytes_rejected():
    sim, _read, _write, dma = make_dma()

    def body():
        yield from dma.transfer_in(-8)

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_two_dmas_contend_on_shared_channel():
    sim = Simulator()
    read = ThroughputChannel(sim, 64)
    write = ThroughputChannel(sim, 64)
    dma_a = DmaEngine(sim, read, write, setup_cycles=0)
    dma_b = DmaEngine(sim, read, write, setup_cycles=0)
    finishes = []

    def body(dma, tag):
        yield from dma.transfer_in(640)
        finishes.append((tag, sim.now))

    sim.spawn(body(dma_a, "a"))
    sim.spawn(body(dma_b, "b"))
    sim.run()
    assert finishes == [("a", 10), ("b", 20)]  # serialized on the channel


def test_dma_read_and_write_channels_are_independent():
    sim, _read, _write, dma = make_dma(setup=0)
    finishes = []

    def reader():
        yield from dma.transfer_in(640)
        finishes.append(("in", sim.now))

    def writer():
        yield from dma.transfer_out(640)
        finishes.append(("out", sim.now))

    sim.spawn(reader())
    sim.spawn(writer())
    sim.run()
    assert dict(finishes) == {"in": 10, "out": 10}  # full duplex


def test_dma_statistics():
    sim, _read, _write, dma = make_dma()

    def body():
        yield from dma.transfer_in(128)
        yield from dma.transfer_out(64)

    sim.spawn(body())
    sim.run()
    assert (dma.transfers_in, dma.transfers_out) == (1, 1)
    assert (dma.bytes_in, dma.bytes_out) == (128, 64)


def test_dma_negative_setup_rejected():
    sim = Simulator()
    chan = ThroughputChannel(sim, 64)
    with pytest.raises(SimulationError):
        DmaEngine(sim, chan, chan, setup_cycles=-1)


# ----------------------------------------------------------------------
# Mailbox
# ----------------------------------------------------------------------
def test_mailbox_ring_wakes_waiter_with_pointer():
    sim = Simulator()
    mailbox = Mailbox(sim, cluster_id=0)
    got = []

    def dm_core():
        pointer = yield from mailbox.wait_job()
        got.append((sim.now, pointer))

    sim.spawn(dm_core())
    sim.schedule(10, lambda arg: mailbox.write_register(0x00, 0xCAFE))
    sim.run()
    assert got == [(10, 0xCAFE)]


def test_mailbox_registers_readable():
    sim = Simulator()
    mailbox = Mailbox(sim, cluster_id=3)
    mailbox.write_register(0x00, 0x1234)
    assert mailbox.read_register(0x00) == 0x1234
    assert mailbox.read_register(0x08) == 1


def test_mailbox_unknown_register():
    from repro.errors import MemoryError_, ProtocolError
    mailbox = Mailbox(Simulator(), cluster_id=0)
    with pytest.raises(MemoryError_):
        mailbox.read_register(0x40)
    with pytest.raises(MemoryError_):
        mailbox.write_register(0x40, 1)
    with pytest.raises(ProtocolError):
        mailbox.write_register(0x08, 1)  # count register is read-only


def test_mailbox_counts_rings():
    sim = Simulator()
    mailbox = Mailbox(sim, cluster_id=0)
    mailbox.write_register(0x00, 1)
    mailbox.write_register(0x00, 2)
    assert mailbox.jobs_received == 2
    assert mailbox.job_ptr == 2


# ----------------------------------------------------------------------
# Worker cores & sub-slicing
# ----------------------------------------------------------------------
def test_worker_compute_timing():
    sim = Simulator()
    worker = WorkerCore(sim, cluster_id=0, core_id=0, wake_latency=2)
    kernel = DaxpyKernel()
    sub = WorkSlice(index=0, lo=0, hi=40)

    def body():
        yield from worker.compute(kernel, sub, 1024, kernel.timing)
        return sim.now

    proc = sim.spawn(body())
    sim.run()
    # wake 2 + setup 22 + ceil(2.6 * 40) = 2 + 22 + 104
    assert proc.value == 128
    assert worker.jobs_executed == 1
    assert worker.busy_cycles == 126


def test_worker_empty_slice_pays_only_wake():
    sim = Simulator()
    worker = WorkerCore(sim, 0, 0, wake_latency=2)

    def body():
        kernel = DaxpyKernel()
        yield from worker.compute(kernel, WorkSlice(0, 5, 5), 64,
                                  kernel.timing)
        return sim.now

    proc = sim.spawn(body())
    sim.run()
    assert proc.value == 2


def test_worker_negative_wake_rejected():
    with pytest.raises(ConfigError):
        WorkerCore(Simulator(), 0, 0, wake_latency=-1)


def test_split_among_cores_preserves_cluster_range():
    work = WorkSlice(index=2, lo=100, hi=180)
    subs = split_among_cores(work, 8)
    assert len(subs) == 8
    assert subs[0].lo == 100
    assert subs[-1].hi == 180
    total = sum(s.elements for s in subs)
    assert total == work.elements
    for earlier, later in zip(subs, subs[1:]):
        assert earlier.hi == later.lo
