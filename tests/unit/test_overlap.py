"""Unit tests for co-operative host/accelerator overlapped execution."""

import numpy
import pytest

from repro.core.offload import offload_daxpy, run_on_host
from repro.core.overlap import offload_overlapped
from repro.errors import KernelError
from repro.kernels import get_kernel
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


def test_both_jobs_verify():
    result = offload_overlapped(ext_system(), "daxpy", 512, 4,
                                "scale", 128)
    assert result.verified is True
    assert result.accel_kernel == "daxpy"
    assert result.host_kernel == "scale"


def test_results_match_isolated_runs():
    overlapped = offload_overlapped(ext_system(), "daxpy", 256, 4,
                                    "scale", 64, seed=9)
    alone_accel = offload_daxpy(ext_system(), n=256, num_clusters=4,
                                seed=9, a=1.0)
    numpy.testing.assert_array_equal(overlapped.accel_outputs["y"],
                                     alone_accel.outputs["y"])


def test_small_host_work_is_completely_hidden():
    """Host work shorter than the accelerator job costs nothing extra."""
    plain = offload_daxpy(ext_system(), n=4096, num_clusters=4,
                          verify=False)
    overlapped = offload_overlapped(ext_system(), "daxpy", 4096, 4,
                                    "scale", 64, verify=False)
    # Total equals the plain offload (give or take the WFI fall-through).
    assert overlapped.total_cycles <= plain.runtime_cycles + 24
    assert overlapped.host_work_cycles > 0


def test_large_host_work_dominates_and_wait_vanishes():
    overlapped = offload_overlapped(ext_system(), "daxpy", 512, 8,
                                    "scale", 4096, verify=False)
    host_cycles = get_kernel("scale").host_timing.cycles(4096)
    assert overlapped.host_work_cycles == host_cycles
    # The accelerator finished long before the host: near-zero wait
    # (the pending-IRQ fall-through costs only the wake latency).
    assert overlapped.exposed_wait_cycles <= 24


def test_overlap_always_beats_sequential():
    for host_n in (64, 512, 2048):
        system = ext_system()
        accel = offload_daxpy(system, n=2048, num_clusters=8)
        host = run_on_host(system, "scale", host_n)
        sequential = accel.runtime_cycles + host.runtime_cycles
        overlapped = offload_overlapped(ext_system(), "daxpy", 2048, 8,
                                        "scale", host_n, verify=False)
        assert overlapped.total_cycles < sequential


def test_overlap_on_baseline_hardware_polls_late():
    """Polling variants overlap too: the host just starts polling after
    its own work instead of immediately."""
    system = ManticoreSystem(SoCConfig.baseline(num_clusters=8))
    result = offload_overlapped(system, "daxpy", 1024, 4, "scale", 128)
    assert result.verified is True
    assert system.host.slept_cycles == 0  # no WFI on baseline


def test_pending_irq_falls_through_after_host_work():
    """The race the level-pending semantics solve: the IRQ fires while
    the host is busy; WFI must not sleep forever."""
    system = ext_system()
    result = offload_overlapped(system, "daxpy", 256, 8, "scale", 8192,
                                verify=False)
    # Host work (~24k cycles) dwarfs the job (~800): the interrupt was
    # pending long before the WFI executed.
    assert result.exposed_wait_cycles <= 24
    assert system.syncunit.interrupts_fired == 1


def test_result_string():
    result = offload_overlapped(ext_system(), "daxpy", 256, 2,
                                "memcpy", 64, verify=False)
    assert "overlapped with host" in str(result)


def test_refused_host_job_stages_nothing():
    # The host job is checked before the accelerator job is staged.
    system = ext_system()
    with pytest.raises(KernelError, match="unknown kernel"):
        offload_overlapped(system, "daxpy", 256, 4, "no-such-kernel", 64)
    assert system.memory.alloc(8) == ext_system().memory.alloc(8)
