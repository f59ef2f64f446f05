"""Unit tests for the offload runtimes (variants, protocol, trace)."""

import pytest

from repro import abi
from repro.core.offload import offload_daxpy
from repro.errors import OffloadError, TraceError
from repro.noc.packet import TransactionKind
from repro.runtime import make_runtime, variant_names
from repro.runtime.trace import build_offload_trace
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    return ManticoreSystem(SoCConfig.extended(num_clusters=8, **overrides))


def base_system(**overrides):
    return ManticoreSystem(SoCConfig.baseline(num_clusters=8, **overrides))


# ----------------------------------------------------------------------
# Variant selection
# ----------------------------------------------------------------------
def test_auto_follows_hardware_features():
    assert make_runtime(ext_system(), "auto").name == "extended"
    assert make_runtime(base_system(), "auto").name == "baseline"


def test_explicit_variants_on_extended_hardware():
    system = ext_system()
    for name in variant_names():
        assert make_runtime(system, name).name == name


def test_unsupported_variants_on_baseline_hardware():
    system = base_system()
    for name in ("multicast_only", "hw_sync_only", "extended"):
        with pytest.raises(OffloadError):
            make_runtime(system, name)


def test_unknown_variant_name():
    with pytest.raises(OffloadError, match="extended"):
        make_runtime(ext_system(), "turbo")


def test_sync_mode_follows_hw_sync_flag():
    system = ext_system()
    assert make_runtime(system, "extended").sync_mode == abi.SYNC_MODE_SYNCUNIT
    assert make_runtime(system, "multicast_only").sync_mode == abi.SYNC_MODE_AMO


def test_amo_variant_requires_flag_address():
    system = ext_system()
    runtime = make_runtime(system, "baseline")
    desc = abi.JobDescriptor(
        kernel_name="daxpy", n=8, num_clusters=1,
        sync_mode=abi.SYNC_MODE_AMO, completion_addr=0x8000_0000,
        scalars={"a": 1.0},
        input_addrs={"x": 0x8000_0100, "y": 0x8000_0200},
        output_addrs={"y": 0x8000_0200})
    with pytest.raises(OffloadError):
        runtime.launch_program([(desc, 0x8000_0300)], None, {})


# ----------------------------------------------------------------------
# Protocol behaviour observed through transactions
# ----------------------------------------------------------------------
def test_baseline_issues_one_doorbell_store_per_cluster():
    system = base_system()
    offload_daxpy(system, n=256, num_clusters=8)
    mailboxes = set(system.mailbox_addrs(8))
    doorbells = [
        txn for txn in system.noc.transactions
        if txn.kind is TransactionKind.WRITE and txn.source == "host"
        and txn.addresses[0] in mailboxes
    ]
    assert len(doorbells) == 8


def test_extended_issues_single_multicast():
    system = ext_system()
    offload_daxpy(system, n=256, num_clusters=8)
    assert system.noc.count(TransactionKind.MULTICAST_WRITE) == 1
    multicast = [t for t in system.noc.transactions
                 if t.kind is TransactionKind.MULTICAST_WRITE][0]
    assert multicast.fanout == 8


def test_extended_single_cluster_avoids_multicast():
    system = ext_system()
    offload_daxpy(system, n=256, num_clusters=1)
    assert system.noc.count(TransactionKind.MULTICAST_WRITE) == 0


def test_baseline_completion_uses_amos():
    system = base_system()
    offload_daxpy(system, n=256, num_clusters=4)
    assert system.noc.count(TransactionKind.AMO_ADD) == 4
    assert system.syncunit.count == 0


def test_extended_completion_uses_syncunit():
    system = ext_system()
    offload_daxpy(system, n=256, num_clusters=4)
    assert system.noc.count(TransactionKind.AMO_ADD) == 0
    assert system.syncunit.count == 4
    assert system.syncunit.interrupts_fired == 1


def test_baseline_polls_the_flag():
    system = base_system()
    offload_daxpy(system, n=1024, num_clusters=2)
    host_reads = system.noc.count(TransactionKind.READ, source="host")
    assert host_reads >= 2  # at least a couple of poll iterations


def test_extended_host_never_polls():
    system = ext_system()
    offload_daxpy(system, n=1024, num_clusters=2)
    assert system.noc.count(TransactionKind.READ, source="host") == 0


# ----------------------------------------------------------------------
# Phase trace
# ----------------------------------------------------------------------
def test_trace_phases_are_consistent():
    system = ext_system()
    result = offload_daxpy(system, n=512, num_clusters=4)
    trace = result.trace
    assert trace.start_cycle <= trace.descriptor_written
    assert trace.descriptor_written <= trace.dispatch_start
    assert trace.dispatch_start <= trace.dispatch_done
    assert trace.dispatch_done <= trace.end_cycle
    assert trace.total == result.runtime_cycles
    assert len(trace.clusters) == 4
    assert all(c.had_work for c in trace.clusters)
    summary = trace.phase_summary()
    assert summary["total"] == (summary["setup"] + summary["dispatch"]
                                + summary["completion_wait"])


def test_trace_cluster_phase_ordering():
    system = ext_system()
    result = offload_daxpy(system, n=512, num_clusters=4)
    for cluster in result.trace.clusters:
        assert cluster.doorbell <= cluster.awake <= cluster.decoded
        assert cluster.decoded <= cluster.dma_in_done
        assert cluster.dma_in_done <= cluster.compute_done
        assert cluster.compute_done <= cluster.dma_out_done
        assert cluster.dma_out_done <= cluster.completion_signalled


def test_trace_windows_separate_sequential_offloads():
    system = ext_system()
    first = offload_daxpy(system, n=256, num_clusters=2)
    second = offload_daxpy(system, n=256, num_clusters=4)
    assert second.start_cycle >= first.end_cycle
    assert len(first.trace.clusters) == 2
    assert len(second.trace.clusters) == 4


def test_trace_missing_marker_raises():
    system = ext_system()
    with pytest.raises(TraceError, match=r"\[0, 100\)"):
        build_offload_trace(system.trace, 0, 100)


def test_trace_window_is_half_open():
    # A marker recorded exactly at end_cycle belongs to whatever the
    # host does next (e.g. a back-to-back offload starting on the cycle
    # the previous one ended), never to the window being sliced.
    system = ext_system()
    recorder = system.trace
    recorder.record("host", "offload_start")          # cycle 0
    recorder.record("host", "descriptor_written")
    recorder.record("host", "dispatch_start")
    recorder.record("host", "dispatch_done")
    system.sim.schedule(50, lambda _arg: recorder.record(
        "host", "descriptor_written", {"next": True}))
    system.run()
    trace = build_offload_trace(recorder, 0, 50)
    assert trace.descriptor_written == 0   # cycle-50 marker excluded
    with pytest.raises(TraceError, match="dispatch_start"):
        # The next window sees only its own descriptor_written marker.
        build_offload_trace(recorder, 50, 60)


def test_trace_error_names_missing_cluster_marker():
    system = ext_system()
    recorder = system.trace
    for label in ("descriptor_written", "dispatch_start", "dispatch_done"):
        recorder.record("host", label)
    recorder.record("cluster0", "doorbell")   # woke, but never finished
    recorder.record("cluster0", "awake")
    with pytest.raises(TraceError) as info:
        build_offload_trace(recorder, 0, 100)
    message = str(info.value)
    assert "cluster0" in message and "'decoded'" in message
    assert "doorbell" in message   # the markers that ARE present


def test_trace_dedups_repeated_markers_first_wins():
    system = ext_system()
    recorder = system.trace
    for label in ("descriptor_written", "dispatch_start", "dispatch_done"):
        recorder.record("host", label)
    for label in ("doorbell", "awake", "decoded", "completion_signalled"):
        recorder.record("cluster1", label)
    system.sim.schedule(10, lambda _arg: recorder.record(
        "cluster1", "doorbell", {"duplicate": True}))
    system.run()
    trace = build_offload_trace(recorder, 0, 100)
    assert trace.clusters[0].doorbell == 0   # first record wins


def test_empty_slices_show_as_no_work():
    system = ext_system()
    result = offload_daxpy(system, n=4, num_clusters=8)
    workers = [c for c in result.trace.clusters if c.had_work]
    idlers = [c for c in result.trace.clusters if not c.had_work]
    assert len(workers) == 4
    assert len(idlers) == 4
    for cluster in idlers:
        assert cluster.dma_in_done is None
        assert cluster.completion_signalled >= cluster.decoded


def test_baseline_dispatch_grows_linearly():
    cycles = {}
    for m in (1, 2, 4, 8):
        system = base_system()
        result = offload_daxpy(system, n=256, num_clusters=m)
        cycles[m] = result.trace.dispatch_cycles
    slope_1 = cycles[2] - cycles[1]
    assert cycles[8] - cycles[4] == 4 * slope_1
    assert cycles[4] - cycles[2] == 2 * slope_1


def test_extended_dispatch_is_constant():
    cycles = set()
    for m in (2, 4, 8):
        system = ext_system()
        result = offload_daxpy(system, n=256, num_clusters=m)
        cycles.add(result.trace.dispatch_cycles)
    assert len(cycles) == 1
