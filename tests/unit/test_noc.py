"""Unit tests for the control interconnect timing and routing."""

import pytest

from repro.errors import ConfigError
from repro.mem import AddressMap, MainMemory, Region
from repro.noc import Interconnect, NocParams, Transaction, TransactionKind
from repro.noc import multicast_targets
from repro.sim import Simulator


BASE = 0x8000_0000

PARAMS = NocParams(
    request_latency=6,
    response_latency=6,
    store_occupancy=8,
    load_occupancy=2,
    cluster_port_occupancy=1,
    multicast_enabled=True,
    multicast_tree_latency=3,
    amo_service_cycles=2,
)


def make_noc(params=PARAMS, num_clusters=4):
    sim = Simulator()
    amap = AddressMap()
    mem = MainMemory(size_bytes=4096, base=BASE)
    amap.add(Region("dram", mem.base, mem.size_bytes, mem))
    noc = Interconnect(sim, amap, params, num_clusters=num_clusters)
    return sim, amap, mem, noc


def test_host_write_milestone_timing():
    sim, _amap, mem, noc = make_noc()
    handle = noc.host_write(BASE, 42)
    sim.run(until=handle.issued)
    assert sim.now == PARAMS.store_occupancy
    assert mem.read_word(BASE) == 0  # not yet delivered
    sim.run(until=handle.delivered)
    assert sim.now == PARAMS.store_occupancy + PARAMS.request_latency
    assert mem.read_word(BASE) == 42
    sim.run(until=handle.acked)
    assert sim.now == (PARAMS.store_occupancy + PARAMS.request_latency
                       + PARAMS.response_latency)


def test_back_to_back_host_writes_serialize_at_port():
    sim, _amap, _mem, noc = make_noc()
    first = noc.host_write(BASE, 1)
    second = noc.host_write(BASE + 8, 2)
    sim.run(until=second.delivered)
    assert first.delivered.value == PARAMS.store_occupancy + PARAMS.request_latency
    assert second.delivered.value == 2 * PARAMS.store_occupancy + PARAMS.request_latency


def test_host_read_returns_data_after_round_trip():
    sim, _amap, mem, noc = make_noc()
    mem.write_word(BASE + 16, 777)
    done = noc.host_read(BASE + 16)
    sim.run(until=done)
    assert done.value == 777
    assert sim.now == (PARAMS.load_occupancy + PARAMS.request_latency
                       + PARAMS.response_latency)


def test_multicast_single_port_occupancy():
    sim, _amap, mem, noc = make_noc()
    addresses = [BASE, BASE + 8, BASE + 16, BASE + 24]
    handle = noc.host_multicast_write(addresses, 9)
    sim.run(until=handle.delivered)
    # One occupancy, one traversal, plus the replication tree.
    assert sim.now == (PARAMS.store_occupancy + PARAMS.request_latency
                       + PARAMS.multicast_tree_latency)
    for addr in addresses:
        assert mem.read_word(addr) == 9


def test_multicast_disabled_raises():
    params = NocParams(multicast_enabled=False)
    _sim, _amap, _mem, noc = make_noc(params=params)
    with pytest.raises(ConfigError):
        noc.host_multicast_write([BASE, BASE + 8], 1)


def test_multicast_dispatch_beats_unicast_loop():
    """The core claim: unicast grows linearly, multicast stays constant."""
    for fanout in [2, 8, 32]:
        sim, _amap, _mem, noc = make_noc()
        handles = [noc.host_write(BASE + 8 * i, 1) for i in range(fanout)]
        sim.run(until=handles[-1].delivered)
        unicast_cycles = sim.now

        sim2, _amap2, _mem2, noc2 = make_noc()
        handle = noc2.host_multicast_write(
            [BASE + 8 * i for i in range(fanout)], 1)
        sim2.run(until=handle.delivered)
        multicast_cycles = sim2.now

        assert unicast_cycles == (fanout * PARAMS.store_occupancy
                                  + PARAMS.request_latency)
        assert multicast_cycles == (PARAMS.store_occupancy
                                    + PARAMS.request_latency
                                    + PARAMS.multicast_tree_latency)
        if fanout > 1:
            assert multicast_cycles < unicast_cycles


def test_cluster_write_uses_cluster_port():
    sim, _amap, mem, noc = make_noc()
    handle = noc.cluster_write(2, BASE + 8, 5)
    sim.run(until=handle.delivered)
    assert sim.now == PARAMS.cluster_port_occupancy + PARAMS.request_latency
    assert mem.read_word(BASE + 8) == 5


def _store_timeline(noc, sim, mem, store):
    """When cluster 2's port frees and the word lands, where the drained
    clock settles, and what the port was charged."""
    store()
    port = noc.cluster_ports[2]
    while mem.read_word(BASE + 8) != 5:
        sim.step()
    return port.next_free, sim.now, sim.run(), port.requests, port.busy_cycles


def test_cluster_post_store_matches_cluster_write():
    """The closed-form posted store frees the port, lands the word and
    settles the drained clock where the callback chain does, and logs
    the same WRITE."""
    sim, _amap, mem, noc = make_noc()
    chain = _store_timeline(noc, sim, mem,
                            lambda: noc.cluster_write(2, BASE + 8, 5))
    chain_log = [(t.kind, t.source, t.addresses, t.value, t.issued_at)
                 for t in noc.transactions]

    sim, _amap, mem, noc = make_noc()
    parked = []
    closed = _store_timeline(
        noc, sim, mem,
        lambda: parked.append(noc.cluster_post_store(2, BASE + 8, 5)))
    assert parked == [PARAMS.cluster_port_occupancy]
    assert closed == chain
    assert [(t.kind, t.source, t.addresses, t.value, t.issued_at)
            for t in noc.transactions] == chain_log
    assert noc.ff_completion_stores == 1


def test_cluster_post_store_refuses_busy_port_and_zero_occupancy():
    sim, _amap, _mem, noc = make_noc()
    noc.cluster_write(2, BASE, 1)  # holds the port for one cycle
    assert noc.cluster_post_store(2, BASE + 8, 5) is None
    assert noc.cluster_post_store(1, BASE + 8, 5) is not None
    sim, _amap, _mem, noc = make_noc(
        NocParams(cluster_port_occupancy=0))
    assert noc.cluster_post_store(2, BASE + 8, 5) is None
    assert noc.ff_completion_stores == 0
    assert noc.transactions == []


def test_cluster_ports_are_independent():
    sim, _amap, _mem, noc = make_noc()
    a = noc.cluster_write(0, BASE, 1)
    b = noc.cluster_write(1, BASE + 8, 2)
    sim.run()
    # Different ports: both deliver at the same cycle.
    assert a.delivered.value == b.delivered.value


def test_cluster_read():
    sim, _amap, mem, noc = make_noc()
    mem.write_word(BASE + 24, 31)
    done = noc.cluster_read(3, BASE + 24)
    sim.run(until=done)
    assert done.value == 31


def test_cluster_id_out_of_range():
    _sim, _amap, _mem, noc = make_noc(num_clusters=2)
    with pytest.raises(ConfigError):
        noc.cluster_write(2, BASE, 1)
    with pytest.raises(ConfigError):
        noc.cluster_read(-1, BASE)


def test_amo_returns_old_value_and_serializes():
    sim, _amap, mem, noc = make_noc()
    mem.write_word(BASE + 32, 100)
    first = noc.cluster_amo_add(0, BASE + 32, 1)
    second = noc.cluster_amo_add(1, BASE + 32, 1)
    sim.run()
    assert {first.value, second.value} == {100, 101}
    assert mem.read_word(BASE + 32) == 102


def test_amo_completion_gap_equals_service_time():
    sim, _amap, mem, noc = make_noc()
    mem.write_word(BASE + 32, 0)
    completions = []

    def watcher(event, tag):
        event.add_callback(lambda e: completions.append((tag, sim.now)))

    watcher(noc.cluster_amo_add(0, BASE + 32, 1), "c0")
    watcher(noc.cluster_amo_add(1, BASE + 32, 1), "c1")
    sim.run()
    cycles = sorted(cycle for _tag, cycle in completions)
    assert cycles[1] - cycles[0] == PARAMS.amo_service_cycles


def test_transaction_log_counts():
    sim, _amap, _mem, noc = make_noc()
    noc.host_write(BASE, 1)
    noc.host_read(BASE)
    noc.cluster_amo_add(0, BASE, 1)
    noc.host_multicast_write([BASE, BASE + 8], 2)
    sim.run()
    assert noc.count(TransactionKind.WRITE) == 1
    assert noc.count(TransactionKind.READ) == 1
    assert noc.count(TransactionKind.AMO_ADD) == 1
    assert noc.count(TransactionKind.MULTICAST_WRITE) == 1
    assert noc.count(TransactionKind.WRITE, source="host") == 1
    assert noc.count(TransactionKind.WRITE, source="cluster0") == 0


def test_params_validation():
    with pytest.raises(ConfigError):
        NocParams(request_latency=-1).validate()
    with pytest.raises(ConfigError):
        NocParams(store_occupancy=0).validate()
    with pytest.raises(ConfigError):
        Interconnect(Simulator(), AddressMap(), NocParams(), num_clusters=0)


def test_transaction_record_validation():
    with pytest.raises(ValueError):
        Transaction(TransactionKind.WRITE, "host", (), 1, False, 0)
    with pytest.raises(ValueError):
        Transaction(TransactionKind.WRITE, "host", (1, 2), 1, False, 0)
    txn = Transaction(TransactionKind.MULTICAST_WRITE, "host", (8, 16), 1, False, 0)
    assert txn.fanout == 2
    with pytest.raises(ValueError):
        _ = txn.address


def test_multicast_targets_helper():
    targets = multicast_targets(base=0x0400_0000, stride=0x1000, count=3,
                                offset=0x10)
    assert targets == (0x0400_0010, 0x0400_1010, 0x0400_2010)


def test_multicast_targets_validation():
    with pytest.raises(ConfigError):
        multicast_targets(0, 0x1000, 0)
    with pytest.raises(ConfigError):
        multicast_targets(0, 0, 4)
    with pytest.raises(ConfigError):
        multicast_targets(0, 0x1000, 4, offset=0x1000)
