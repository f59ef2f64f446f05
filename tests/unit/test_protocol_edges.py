"""Edge-case tests for protocol internals and accounting corners."""

import numpy
import pytest

from repro import abi
from repro.core.decision import decide_offload, HostExecutionModel
from repro.core.model import PAPER_DAXPY_MODEL
from repro.core.offload import offload, offload_daxpy
from repro.energy import EnergyMeter
from repro.errors import OffloadError
from repro.kernels import get_kernel
from repro.runtime.protocol import make_runtime
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


# ----------------------------------------------------------------------
# Concurrent-program argument validation (direct, without the core API)
# ----------------------------------------------------------------------
def test_concurrent_program_rejects_zero_jobs():
    runtime = make_runtime(ext_system(), "extended")
    with pytest.raises(OffloadError, match="zero jobs"):
        runtime.launch_program([], None, {})


def test_concurrent_program_amo_needs_one_flag_per_job():
    system = ext_system()
    runtime = make_runtime(system, "baseline")
    desc = abi.JobDescriptor(
        kernel_name="memcpy", n=8, num_clusters=1,
        sync_mode=abi.SYNC_MODE_AMO, completion_addr=0x8000_0000,
        scalars={}, input_addrs={"x": 0x8000_0100},
        output_addrs={"y": 0x8000_0200})
    with pytest.raises(OffloadError, match="one flag address per job"):
        runtime.launch_program([(desc, 0x8000_0300)], [], {})


# ----------------------------------------------------------------------
# SAXPY semantics: fp32 rounding is architecturally visible
# ----------------------------------------------------------------------
def test_saxpy_rounds_to_single_precision():
    # A value that fp32 cannot represent exactly.
    x = numpy.array([1.0])
    y = numpy.array([1e-9])
    result = offload(ext_system(), "saxpy", 1, 1, scalars={"a": 1.0},
                     inputs={"x": x, "y": y})
    got = result.outputs["y"][0]
    assert got == numpy.float32(numpy.float32(1.0) + numpy.float32(1e-9))
    assert got != 1.0 + 1e-9  # fp64 would have kept the epsilon


# ----------------------------------------------------------------------
# Energy meter windowing corners
# ----------------------------------------------------------------------
def test_energy_meter_restart_after_stop():
    system = ext_system()
    meter = EnergyMeter(system)
    meter.start()
    offload_daxpy(system, n=128, num_clusters=2)
    meter.stop()
    # Restarting measures only new work.
    meter.start()
    report = meter.stop()
    assert report.window_cycles == 0
    assert report.total == 0.0


def test_energy_meter_window_spanning_two_offloads():
    system = ext_system()
    meter = EnergyMeter(system)
    meter.start()
    offload_daxpy(system, n=128, num_clusters=2)
    offload_daxpy(system, n=128, num_clusters=2)
    double = meter.stop()

    single_system = ext_system()
    meter = EnergyMeter(single_system)
    meter.start()
    offload_daxpy(single_system, n=128, num_clusters=2)
    single = meter.stop()
    assert double.total == pytest.approx(2 * single.total, rel=1e-6)


# ----------------------------------------------------------------------
# Decision reason strings and tie-breaking
# ----------------------------------------------------------------------
def test_decision_reason_mentions_deadline():
    decision = decide_offload(PAPER_DAXPY_MODEL, HostExecutionModel(),
                              n=2048, t_max=2000.0)
    assert "t_max" in decision.reason


def test_decision_prefers_host_on_exact_tie():
    # Construct a tie: pick N where host == some offload width is
    # impossible exactly, so instead check the tie-break rule directly:
    # candidates are sorted by (cycles, clusters); the host entry has
    # 0 clusters and wins ties.
    host = HostExecutionModel(cycles_per_element=0.0, setup_cycles=367.0)
    from repro.core.model import OffloadModel
    model = OffloadModel(t0=367.0, mem_coeff=0.0, compute_coeff=0.0)
    decision = decide_offload(model, host, n=100)
    assert not decision.offload


# ----------------------------------------------------------------------
# Host primitives accounting
# ----------------------------------------------------------------------
def test_host_retired_operations_counts_primitives():
    system = ext_system()
    host = system.host

    def program():
        yield from host.execute(1)
        yield from host.store(0x8000_0000, 1)
        yield from host.load(0x8000_0000)

    system.host.run_program(program())
    system.run()
    assert host.retired_operations == 3


def test_host_slept_cycles_accumulate_over_offloads():
    system = ext_system()
    offload_daxpy(system, n=512, num_clusters=2)
    first = system.host.slept_cycles
    assert first > 0
    offload_daxpy(system, n=512, num_clusters=2)
    assert system.host.slept_cycles > first


# ----------------------------------------------------------------------
# Offload result metadata
# ----------------------------------------------------------------------
def test_offload_result_fields_are_consistent():
    result = offload_daxpy(ext_system(), n=256, num_clusters=4)
    assert result.kernel_name == "daxpy"
    assert result.n == 256
    assert result.num_clusters == 4
    assert result.variant == "extended"
    assert result.runtime_cycles == result.end_cycle - result.start_cycle
    assert result.trace.total == result.runtime_cycles


def test_gemv_rejects_double_buffering_via_tcdm_floor():
    """GEMV is element-wise in outputs so dbuf is allowed in principle,
    but a chunk floor that cannot pair-fit fails loudly at runtime."""
    kernel = get_kernel("gemv")
    assert kernel.output_length("y", 64, 4) == 64  # element-wise outputs
    result = offload(ext_system(), "gemv", 64, 4,
                     exec_mode="double_buffered")
    assert result.verified is True  # small case fits and works
