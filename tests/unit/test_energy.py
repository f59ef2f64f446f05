"""Unit tests for the energy-accounting subsystem."""

import pytest

from repro.core.offload import offload_daxpy, run_on_host
from repro.energy import (
    DEFAULT_POWER_BUDGET,
    EnergyBreakdown,
    EnergyMeter,
    PowerBudget,
    measure_offload_energy,
)
from repro.errors import ConfigError
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


def test_budget_rejects_negative_power():
    with pytest.raises(ConfigError):
        PowerBudget(host_active=-1.0)


def test_stop_before_start_rejected():
    meter = EnergyMeter(ext_system())
    with pytest.raises(ConfigError):
        meter.stop()


def test_empty_window_costs_nothing():
    system = ext_system()
    meter = EnergyMeter(system)
    meter.start()
    report = meter.stop()
    assert report.window_cycles == 0
    assert report.total == 0.0


def test_breakdown_totals_and_render():
    breakdown = EnergyBreakdown(window_cycles=10, host=1.0, workers=2.0,
                                dm_cores=3.0, memory=4.0, interconnect=5.0,
                                uncore=6.0)
    assert breakdown.total == 21.0
    text = breakdown.render()
    assert "total" in text and "pJ" in text


def test_offload_energy_is_positive_and_componentized():
    breakdown, cycles = measure_offload_energy(
        SoCConfig.extended(num_clusters=8), "daxpy", 512, 4)
    assert cycles > 0
    for component in ("host", "workers", "dm_cores", "memory",
                      "interconnect", "uncore"):
        assert getattr(breakdown, component) > 0.0


def test_host_sleeps_under_hw_sync_but_polls_in_baseline():
    ext = ext_system()
    meter = EnergyMeter(ext)
    meter.start()
    offload_daxpy(ext, n=1024, num_clusters=4)
    ext_report = meter.stop()
    assert ext.host.slept_cycles > 0

    base = ManticoreSystem(SoCConfig.baseline(num_clusters=8))
    meter = EnergyMeter(base)
    meter.start()
    offload_daxpy(base, n=1024, num_clusters=4)
    base_report = meter.stop()
    assert base.host.slept_cycles == 0
    # Sleeping host + fewer doorbells: the extended design costs less.
    assert ext_report.host < base_report.host
    assert ext_report.total < base_report.total


def test_memory_energy_proportional_to_traffic():
    small, _ = measure_offload_energy(
        SoCConfig.extended(num_clusters=8), "daxpy", 256, 4)
    large, _ = measure_offload_energy(
        SoCConfig.extended(num_clusters=8), "daxpy", 1024, 4)
    assert large.memory == pytest.approx(4 * small.memory)


def test_meter_windows_are_additive():
    system = ext_system()
    meter = EnergyMeter(system)
    meter.start()
    offload_daxpy(system, n=256, num_clusters=2)
    first = meter.stop()
    meter.start()
    offload_daxpy(system, n=256, num_clusters=2)
    second = meter.stop()
    # Identical work in each window -> identical energy.
    assert second.total == pytest.approx(first.total)


def test_host_execution_energy_has_no_cluster_activity():
    system = ext_system()
    meter = EnergyMeter(system)
    meter.start()
    run_on_host(system, "daxpy", 256)
    report = meter.stop()
    assert report.memory == 0.0
    # Only idle power on the fabric (8 clusters x 8 worker cores).
    assert report.workers == pytest.approx(
        DEFAULT_POWER_BUDGET.worker_idle * 64 * report.window_cycles)


def test_custom_budget_scales_components():
    cheap = PowerBudget(host_active=1.0, host_idle=0.0, worker_active=0.0,
                        worker_idle=0.0, dm_core_active=0.0,
                        dm_core_idle=0.0, memory_per_byte=0.0,
                        noc_per_transaction=0.0, uncore_static=0.0)
    breakdown, cycles = measure_offload_energy(
        SoCConfig.baseline(num_clusters=8), "daxpy", 256, 2, budget=cheap)
    # Baseline host never sleeps: host energy == active power x window.
    assert breakdown.total == pytest.approx(breakdown.host)
    assert breakdown.host == pytest.approx(1.0 * breakdown.window_cycles)


def run_scan_dm_active(system):
    """DM-core active time over the trace, which holds the latest run
    only (the meter's old scan, restricted to one run)."""
    active = 0
    opened = {}
    # A slice copy, so the NoScanList guard below only sees the code
    # under test iterating the log.
    for record in system.trace.records[:]:
        if not record.source.startswith("cluster"):
            continue
        if record.label == "doorbell":
            opened[record.source] = record.cycle
        elif record.label == "completion_signalled":
            start = opened.pop(record.source, None)
            if start is not None:
                active += record.cycle - start
    return active


class NoScanList(list):
    """A trace log that fails the test if anything iterates all of it."""

    def __iter__(self):
        raise AssertionError("the whole trace log was scanned")


#: Charges only DM-core active cycles, so ``dm_cores`` is the busy time.
DM_ONLY = PowerBudget(host_active=0.0, host_idle=0.0, worker_active=0.0,
                      worker_idle=0.0, dm_core_active=1.0, dm_core_idle=0.0,
                      memory_per_byte=0.0, noc_per_transaction=0.0,
                      uncore_static=0.0)


def test_dm_time_on_a_used_system_matches_the_full_scan():
    """The window's DM time is the sum of its runs' scans, however many
    jobs the system served before."""
    from repro.core.concurrent import ConcurrentJob, offload_concurrent
    system = ext_system()
    for job in range(6):
        offload_daxpy(system, n=256, num_clusters=1 + job, seed=job)
    run_on_host(system, "daxpy", 64)
    meter = EnergyMeter(system, DM_ONLY)
    # Neither the meter nor the offloads may iterate the whole log.
    system.trace.records = NoScanList(system.trace.records)
    meter.start()
    offload_daxpy(system, n=512, num_clusters=8)
    busy = run_scan_dm_active(system)
    offload_concurrent(system, [ConcurrentJob("daxpy", 256, 3, seed=1),
                                ConcurrentJob("scale", 256, 5, seed=2)])
    busy += run_scan_dm_active(system)
    report = meter.stop()
    assert busy > 0
    assert report.dm_cores == busy
    assert report.total == busy


def test_doorbell_open_at_start_is_carried_over():
    system = ext_system()
    offload_daxpy(system, n=256, num_clusters=8)
    meter = EnergyMeter(system, DM_ONLY)
    before = {}

    def start_mid_job(_argument):
        before["busy"] = run_scan_dm_active(system)
        # len() merges the records stamped for cycles up to now, so
        # the prefix counted here is the log as of this cycle.
        before["records"] = len(system.trace)
        meter.start()

    # Open the window while the next job's DM cores are between their
    # doorbell and their completion signal.
    system.sim.schedule(400, start_mid_job)
    result = offload_daxpy(system, n=2048, num_clusters=8)
    report = meter.stop()
    opened_before = [r for r in system.trace.records[:before["records"]]
                     if r.label == "doorbell" and r.cycle >= result.start_cycle]
    assert opened_before, "the meter must start after some doorbells"
    assert report.dm_cores == run_scan_dm_active(system) - before["busy"]
