"""Unit tests for the fast-forward primitives behind the A/B gates.

Every closed form added by the fast-forward layer has a non-generator
primitive at its core: channel reservations (``request_at`` /
``reserve_transfer`` / ``DmaEngine.reserve_in``), closed-form barrier
crossings (``cross_all_known`` / ``book_arrival``), the mailbox's
``job_event``, and the host's bulk store staging
(``host_write_block``).  These tests pin each primitive's timing
against the event path it replaces and its refusal/validation edges.
"""

import pytest

from repro import flags
from repro.cluster import Barrier, DmaEngine, Mailbox
from repro.core.offload import offload
from repro.errors import SimulationError
from repro.sim import SerialResource, Simulator, ThroughputChannel
from repro.soc.config import SoCConfig
from repro.soc.fabricbarrier import FabricBarrier
from repro.soc.manticore import DRAM_BASE, SYNCUNIT_BASE, ManticoreSystem


@pytest.fixture(autouse=True)
def _fast_paths_on(monkeypatch):
    """These tests exercise the fast-forward primitives directly, so
    ambient ``REPRO_NAIVE_*`` gates (the CI ``ab-gates`` matrix runs
    the suite once per gate) must not divert the gated call sites."""
    for name in (flags.NAIVE_CHANNEL_ENV, flags.NAIVE_BARRIER_ENV):
        monkeypatch.delenv(name, raising=False)


# ----------------------------------------------------------------------
# SerialResource reservations
# ----------------------------------------------------------------------
def _finish_of(body):
    """Spawn ``body(sim, resource)`` on a fresh resource; return
    (finish value, completion cycle, resource)."""
    sim = Simulator()
    resource = SerialResource(sim, name="r", reserve_lead=4)
    out = []

    def runner():
        finish = yield from body(sim, resource)
        out.append((finish, sim.now))

    sim.spawn(runner())
    sim.run()
    return out[0], resource


def test_reservation_matches_deferred_request():
    def naive(sim, resource):
        yield 4
        finish = yield resource.request(10)
        return finish

    def reserved(sim, resource):
        finish = yield resource.request_at(4, 10)
        return finish

    naive_out, naive_res = _finish_of(naive)
    fast_out, fast_res = _finish_of(reserved)
    assert fast_out == naive_out == (14, 14)
    assert fast_res.ff_requests == 1 and naive_res.ff_requests == 0
    assert (fast_res.requests, fast_res.busy_cycles) == \
        (naive_res.requests, naive_res.busy_cycles)


def test_commit_books_the_slots_request_at_books():
    """``commit`` is ``request_at``'s occupancy arithmetic at an explicit
    issue cycle: a batch committed up front, in issue order, finishes
    where reservations made at each issue's lead would."""
    def run(book):
        sim = Simulator()
        channel = ThroughputChannel(sim, 64, name="c", reserve_lead=4)
        finishes = book(sim, channel)
        sim.run()
        return finishes, (channel.requests, channel.busy_cycles,
                          channel.bytes_moved, channel.ff_requests,
                          channel.next_free)

    transfers = [(0, 640), (3, 64), (30, 128)]

    def reserved(sim, channel):
        finishes = []

        def requester(delay, nbytes):
            if delay:
                yield delay
            finishes.append((yield channel.reserve_transfer(4, nbytes)))

        for delay, nbytes in transfers:
            sim.spawn(requester(delay, nbytes))
        return finishes

    def committed(sim, channel):
        return [channel.commit_transfer(delay + 4, nbytes)
                for delay, nbytes in transfers]

    assert run(committed) == run(reserved) == ([14, 15, 36],
                                               (3, 13, 832, 3, 36))


def test_can_reserve_requires_matching_lead():
    sim = Simulator()
    plain = SerialResource(sim, name="plain")
    assert not plain.can_reserve(0)
    leased = SerialResource(sim, name="leased", reserve_lead=4)
    assert leased.can_reserve(4)
    assert not leased.can_reserve(3)


def test_request_at_rejects_invalid_reservations():
    sim = Simulator()
    resource = SerialResource(sim, name="r", reserve_lead=4)
    with pytest.raises(SimulationError):
        resource.request_at(3, 10)  # mismatched lead
    with pytest.raises(SimulationError):
        resource.request_at(4, -1)  # negative service
    with pytest.raises(SimulationError):
        SerialResource(sim, name="bad", reserve_lead=-1)


def test_plain_request_inside_window_poisons_reservations():
    sim = Simulator()
    resource = SerialResource(sim, name="r", reserve_lead=8)
    resource.request_at(8, 5)     # open window: naive issue at cycle 8
    assert resource.ff_conflicts == 0
    resource.request(3)           # unexpected arrival inside the window
    assert resource.ff_conflicts == 1
    assert not resource.can_reserve(8)
    with pytest.raises(SimulationError):
        resource.request_at(8, 5)
    # reset() restores the reservation path.
    sim.run()
    resource.reset()
    assert resource.can_reserve(8)


def test_charge_bulk_accounting_and_validation():
    sim = Simulator()
    resource = SerialResource(sim, name="r")
    resource.charge_bulk(requests=3, busy_cycles=30, next_free=50)
    assert resource.requests == 3
    assert resource.busy_cycles == 30
    assert resource.next_free == 50
    # next_free never rewinds.
    resource.charge_bulk(requests=1, busy_cycles=1, next_free=10)
    assert resource.next_free == 50
    with pytest.raises(SimulationError):
        resource.charge_bulk(requests=-1, busy_cycles=0, next_free=0)
    with pytest.raises(SimulationError):
        resource.charge_bulk(requests=0, busy_cycles=-1, next_free=0)


def test_channel_reserve_transfer_matches_setup_then_transfer():
    def naive(sim):
        channel = ThroughputChannel(sim, 64, name="c", reserve_lead=8)
        def body():
            yield 8
            finish = yield channel.transfer(256)
            return finish
        return channel, body

    def reserved(sim):
        channel = ThroughputChannel(sim, 64, name="c", reserve_lead=8)
        def body():
            finish = yield channel.reserve_transfer(8, 256)
            return finish
        return channel, body

    results = []
    for build in (naive, reserved):
        sim = Simulator()
        channel, body = build(sim)
        finishes = []

        def runner(body=body, finishes=finishes):
            finishes.append((yield from body()))

        sim.spawn(runner())
        sim.run()
        results.append((finishes[0], sim.now, channel.bytes_moved,
                        channel.busy_cycles, channel.requests))
    assert results[0] == results[1] == (12, 12, 256, 4, 1)


# ----------------------------------------------------------------------
# DmaEngine non-generator reservations
# ----------------------------------------------------------------------
def _make_dma(setup=4, width=64, lead=4):
    sim = Simulator()
    read = ThroughputChannel(sim, width, name="read", reserve_lead=lead)
    write = ThroughputChannel(sim, width, name="write", reserve_lead=lead)
    return sim, DmaEngine(sim, read, write, setup_cycles=setup)


def test_dma_reserve_in_commits_and_counts():
    sim, dma = _make_dma()
    done = dma.reserve_in(128)
    assert done is not None
    sim.run()
    assert done.triggered
    assert done.value == 4 + 2  # setup lead + 128B over a 64B/cycle channel
    assert (dma.transfers_in, dma.bytes_in) == (1, 128)
    assert (dma.ff_transfers, dma.ff_fallbacks) == (1, 0)


def test_dma_reserve_out_uses_write_channel():
    sim, dma = _make_dma()
    done = dma.reserve_out(64)
    sim.run()
    assert done.value == 4 + 1
    assert (dma.transfers_out, dma.bytes_out) == (1, 64)
    assert dma.read_channel.bytes_moved == 0


def test_dma_reserve_declines_without_charging():
    # Zero and negative byte counts: nothing to commit.
    _sim, dma = _make_dma()
    assert dma.reserve_in(0) is None
    assert dma.reserve_in(-1) is None
    # A channel without reservations (or a mismatched lead) declines.
    _sim, plain = _make_dma(lead=None)
    assert plain.reserve_in(64) is None
    _sim, mismatched = _make_dma(setup=4, lead=2)
    assert mismatched.reserve_out(64) is None
    for engine in (dma, plain, mismatched):
        assert engine.transfers_in == engine.transfers_out == 0
        assert engine.ff_transfers == 0


def test_dma_transfer_falls_back_and_counts_when_unreservable():
    sim, dma = _make_dma(setup=4, lead=2)  # lead mismatch: no fast path
    done = sim.spawn(dma.transfer_in(128))
    sim.run()
    assert done.finished
    assert sim.now == 4 + 2
    assert (dma.ff_transfers, dma.ff_fallbacks) == (0, 1)
    assert (dma.transfers_in, dma.bytes_in) == (1, 128)


# ----------------------------------------------------------------------
# Barrier closed-form crossing
# ----------------------------------------------------------------------
def test_cross_all_known_matches_spawned_arrivals():
    # Reference: three parties arriving at 0, 5, and 9; latency 2.
    sim = Simulator()
    naive = Barrier(sim, parties=3, latency=2)
    times = []

    def party(delay):
        if delay:
            yield delay
        yield from naive.wait()
        times.append(sim.now)

    for delay in (0, 5, 9):
        sim.spawn(party(delay))
    sim.run()

    # Closed form: the caller arrives now, last arrival 9 cycles out.
    sim2 = Simulator()
    fast = Barrier(sim2, parties=3, latency=2)
    fast_times = []

    def caller():
        yield fast.cross_all_known(9)
        fast_times.append(sim2.now)

    sim2.spawn(caller())
    sim2.run()
    assert fast_times == [times[0]] == [11]
    assert fast.generation == naive.generation == 1
    assert fast.ff_crossings == 1


def test_cross_closed_advances_the_generation_without_events():
    sim = Simulator()
    barrier = Barrier(sim, parties=3, latency=2)
    barrier.cross_closed()
    assert sim.pending == 0
    assert (barrier.generation, barrier.waiting, barrier.ff_crossings) \
        == (1, 0, 1)

    def one():
        yield from barrier.wait()

    sim.spawn(one())
    sim.run()  # drains with one party parked
    with pytest.raises(SimulationError):
        barrier.cross_closed()


def test_cross_all_known_validation():
    sim = Simulator()
    barrier = Barrier(sim, parties=2, latency=1)
    with pytest.raises(SimulationError):
        barrier.cross_all_known(-1)

    def one():
        yield from barrier.wait()

    sim.spawn(one())
    sim.run()  # drains with one party parked
    with pytest.raises(SimulationError):
        barrier.cross_all_known(4)


# ----------------------------------------------------------------------
# FabricBarrier booked arrivals
# ----------------------------------------------------------------------
def test_book_arrival_matches_arrive_wire_timing():
    # Two clusters arrive at cycles 0 and 5; arrival wire 8, release 8.
    # Last arrival lands at the counter at 13; release wave at 21.
    sim = Simulator()
    fabric = FabricBarrier(sim, arrival_latency=8, release_latency=8)
    times = []

    def member(delay):
        if delay:
            yield delay
        yield fabric.book_arrival(2, group=0)
        times.append(sim.now)

    sim.spawn(member(0))
    sim.spawn(member(5))
    sim.run()
    assert times == [21, 21]
    assert fabric.generations == 1
    assert fabric.ff_arrivals == 2


def test_book_arrival_validation():
    sim = Simulator()
    fabric = FabricBarrier(sim, arrival_latency=1, release_latency=1)
    with pytest.raises(SimulationError):
        fabric.book_arrival(0)
    with pytest.raises(SimulationError):
        fabric.book_arrival(2, group=-1)
    fabric.book_arrival(2, group=3)
    assert fabric.waiting(group=3) == 1
    with pytest.raises(SimulationError):
        fabric.book_arrival(3, group=3)  # mismatched party count


@pytest.mark.parametrize("arrival, release", [(8, 8), (0, 3), (4, 0),
                                              (0, 0)])
def test_book_arrival_at_releases_as_if_booked_at_its_cycle(arrival,
                                                            release):
    """Arrivals booked at cycle 0 for cycles 6 and 9 release where the
    same arrivals booked at 6 and 9 do, zero latencies included."""
    def run(ahead):
        sim = Simulator()
        fabric = FabricBarrier(sim, arrival_latency=arrival,
                               release_latency=release)
        times = []

        def member(cycle):
            if ahead:
                event = fabric.book_arrival_at(2, 0, cycle)
            else:
                yield cycle
                event = fabric.book_arrival(2)
            yield event
            times.append(sim.now)

        sim.spawn(member(6))
        sim.spawn(member(9))
        sim.run()
        return times, fabric.ff_arrivals, fabric.ff_arrivals_ahead

    assert run(ahead=True) == ([9 + arrival + release] * 2, 2, 2)
    assert run(ahead=False) == ([9 + arrival + release] * 2, 2, 0)


def test_book_arrival_at_refuses_the_past():
    sim = Simulator()
    fabric = FabricBarrier(sim)
    sim.run(until=5)
    with pytest.raises(SimulationError):
        fabric.book_arrival_at(2, 0, 4)
    fabric.book_arrival_at(1, 0, 5)  # the current cycle books at once
    assert fabric.ff_arrivals_ahead == 0


# ----------------------------------------------------------------------
# Mailbox doorbell event
# ----------------------------------------------------------------------
def test_mailbox_job_event_delivers_pointer():
    sim = Simulator()
    mailbox = Mailbox(sim, cluster_id=3)
    ring = mailbox.job_event()
    assert mailbox.waiters == 1
    mailbox.write_register(0x00, 0x1234)
    sim.run()
    assert ring.triggered and ring.value == 0x1234
    assert mailbox.waiters == 0
    assert ring.name == "mailbox3.ring"  # deadlock-report contract


# ----------------------------------------------------------------------
# Bulk host store staging
# ----------------------------------------------------------------------
def _small_system():
    system = ManticoreSystem(SoCConfig.baseline(num_clusters=2))
    # Drain the boot resumes: the staging fast path requires an idle
    # scheduler (offload calls it from exactly that state).
    system.sim.run()
    return system


def test_host_write_block_commits_stores_and_charges_port():
    system = _small_system()
    noc = system.noc
    base = DRAM_BASE + 0x1000
    done = noc.host_write_block([(base, [1, 2, 3]), (base + 64, [7])])
    assert done is not None
    system.sim.run()
    assert done.triggered
    assert list(system.memory.read_words(base, 3)) == [1, 2, 3]
    assert list(system.memory.read_words(base + 64, 1)) == [7]
    params = noc.params
    finish = 4 * params.store_occupancy
    assert done.value == finish + params.request_latency \
        + params.response_latency
    assert noc.host_port.requests == 4
    assert noc.host_port.busy_cycles == finish
    assert (noc.ff_store_runs, noc.ff_stores) == (1, 4)
    assert len(noc.transactions) == 4


def test_host_write_block_declines_with_pending_work():
    system = _small_system()
    system.sim.schedule(5, lambda _arg: None)
    assert system.noc.host_write_block([(DRAM_BASE, [1])]) is None
    assert system.noc.ff_store_runs == 0
    system.sim.run()


def test_host_write_block_declines_with_watchpoints():
    system = _small_system()
    system.address_map.watch(DRAM_BASE + 8, lambda value: None)
    assert system.noc.host_write_block([(DRAM_BASE, [1])]) is None
    system.address_map.unwatch(DRAM_BASE + 8)
    assert system.noc.host_write_block([(DRAM_BASE, [1])]) is not None


def test_host_write_block_declines_mmio_and_region_overrun():
    system = _small_system()
    assert system.noc.host_write_block([(SYNCUNIT_BASE, [1])]) is None
    tail = DRAM_BASE + system.memory.size_bytes - 8
    assert system.noc.host_write_block([(tail, [1, 2])]) is None
    assert system.noc.host_write_block([(tail, [1])]) is not None


# ----------------------------------------------------------------------
# Aggregated fast-forward statistics
# ----------------------------------------------------------------------
def test_fastforward_stats_engage_and_reset():
    system = _small_system()
    offload(system, "daxpy", 64, 2)
    stats = system.fastforward_stats()
    assert stats["dma_transfers"] > 0
    assert stats["channel_requests"] > 0
    assert stats["compute_phases"] > 0
    assert stats["barrier_crossings"] > 0
    assert stats["fabric_arrivals"] == 2
    assert stats["staged_store_runs"] == 1
    assert stats["staged_stores"] > 0
    assert stats["dma_fallbacks"] == 0
    assert stats["channel_conflicts"] == 0
    system.reset()
    assert all(value == 0 for value in system.fastforward_stats().values())
