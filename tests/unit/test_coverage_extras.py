"""Focused tests for subtle semantic distinctions and small gaps."""

import numpy
import pytest

from repro.core.decision import HostExecutionModel
from repro.core.model import OffloadModel
from repro.core.offload import offload
from repro.errors import OffloadError
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.workload import JobSpec, ModelDriven
from tests.unit.test_workload import DecisionServer


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


# ----------------------------------------------------------------------
# Stencil: double-bufferable but NOT tileable — and why
# ----------------------------------------------------------------------
def test_stencil_double_buffered_is_exact():
    """Double buffering keeps the *full* input snapshot per cluster, so
    chunk boundaries see true neighbours — unlike tiling, which hands
    each tile an isolated sub-array and would clamp at tile edges.
    That is exactly why stencil3 allows dbuf but sets tileable=False."""
    rng = numpy.random.default_rng(21)
    x = rng.normal(size=300)
    scalars = {"a": 1.0, "b": -2.0, "c": 1.0}
    phased = offload(ext_system(), "stencil3", 300, 2, scalars=scalars,
                     inputs={"x": x})
    dbuf = offload(ext_system(), "stencil3", 300, 2, scalars=scalars,
                   inputs={"x": x}, exec_mode="double_buffered")
    numpy.testing.assert_array_equal(phased.outputs["y"],
                                     dbuf.outputs["y"])
    assert dbuf.verified is True


def test_stencil_remains_untileable():
    from repro.core.tiling import offload_tiled
    with pytest.raises(OffloadError, match="not tileable"):
        offload_tiled(ext_system(), "stencil3", 300, 2,
                      scalars={"a": 1.0, "b": 1.0, "c": 1.0})


# ----------------------------------------------------------------------
# Model-driven policy with a dispatch-term (baseline-like) model
# ----------------------------------------------------------------------
def test_model_driven_picks_interior_m_with_dispatch_term():
    model = OffloadModel(t0=367, mem_coeff=0.25, compute_coeff=0.325,
                         dispatch_coeff=11.0)
    host = HostExecutionModel(cycles_per_element=4.0)
    policy = ModelDriven({"daxpy": model}, {"daxpy": host})
    placement = policy.place(JobSpec("daxpy", 4096), None,
                             DecisionServer(32))
    assert placement.offload
    # sqrt(0.325*4096/11) = 11: interior, not the full fabric.
    assert 8 <= placement.num_clusters <= 14


# ----------------------------------------------------------------------
# Simulator conveniences
# ----------------------------------------------------------------------
def test_simulator_any_of_empty_triggers():
    from repro.sim import Simulator
    sim = Simulator()
    combo = sim.any_of([])
    sim.run(until=combo)
    assert combo.value == (None, None)


def test_timer_value_is_fire_time():
    from repro.sim import Simulator
    sim = Simulator()
    sim.schedule(5, lambda arg: None)
    timer = sim.timer(20)
    sim.run()
    assert timer.value == 20


# ----------------------------------------------------------------------
# Per-offload trace windows on a shared system with mixed operations
# ----------------------------------------------------------------------
def test_trace_window_isolation_across_mixed_operations():
    from repro.core.offload import run_on_host
    system = ext_system()
    first = offload(system, "daxpy", 128, 2)
    run_on_host(system, "scale", 64)
    second = offload(system, "memcpy", 128, 4)
    assert len(first.trace.clusters) == 2
    assert len(second.trace.clusters) == 4
    assert second.trace.start_cycle > first.trace.end_cycle


# ----------------------------------------------------------------------
# Config feature/variant interactions
# ----------------------------------------------------------------------
def test_with_features_round_trip_all_pairs():
    base = SoCConfig.extended()
    for multicast in (False, True):
        for hw_sync in (False, True):
            config = base.with_features(multicast=multicast,
                                        hw_sync=hw_sync)
            assert config.multicast == multicast
            assert config.hw_sync == hw_sync
            system = ManticoreSystem(
                SoCConfig(num_clusters=2, multicast=multicast,
                          hw_sync=hw_sync))
            result = offload(system, "daxpy", 32, 2)
            assert result.verified is True


def test_energy_meter_counts_concurrent_launch_once():
    from repro.core.concurrent import ConcurrentJob, offload_concurrent
    from repro.energy import EnergyMeter
    system = ext_system()
    meter = EnergyMeter(system)
    meter.start()
    offload_concurrent(system, [ConcurrentJob("daxpy", 256, 4, seed=1),
                                ConcurrentJob("scale", 256, 4, seed=2)])
    report = meter.stop()
    assert report.total > 0
    assert report.memory == pytest.approx(
        1.2 * (system.read_channel.bytes_moved
               + system.write_channel.bytes_moved))
