"""Unit tests for concurrent space-shared offloads."""

import numpy
import pytest

from repro.core.concurrent import (
    ConcurrentJob,
    offload_concurrent,
)
from repro.core.offload import offload, offload_daxpy
from repro.errors import OffloadError
from repro.noc.packet import TransactionKind
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


def base_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.baseline(**overrides))


def two_jobs(n=256, m=4, kernels=("daxpy", "memcpy")):
    return [ConcurrentJob(kernels[0], n, m, seed=1),
            ConcurrentJob(kernels[1], n, m, seed=2)]


def test_two_jobs_verify_functionally():
    result = offload_concurrent(ext_system(), two_jobs())
    assert all(job.verified for job in result.jobs)
    assert result.jobs[0].first_cluster == 0
    assert result.jobs[1].first_cluster == 4


def test_results_match_isolated_offloads():
    concurrent = offload_concurrent(ext_system(), two_jobs())
    alone_daxpy = offload(ext_system(), "daxpy", 256, 4, seed=1)
    alone_memcpy = offload(ext_system(), "memcpy", 256, 4, seed=2)
    numpy.testing.assert_array_equal(concurrent.jobs[0].outputs["y"],
                                     alone_daxpy.outputs["y"])
    numpy.testing.assert_array_equal(concurrent.jobs[1].outputs["y"],
                                     alone_memcpy.outputs["y"])


def test_makespan_beats_back_to_back():
    system = ext_system()
    first = offload_daxpy(system, n=2048, num_clusters=4, seed=1)
    second = offload_daxpy(system, n=2048, num_clusters=4, seed=2)
    sequential = first.runtime_cycles + second.runtime_cycles
    concurrent = offload_concurrent(
        ext_system(), [ConcurrentJob("daxpy", 2048, 4, seed=1),
                       ConcurrentJob("daxpy", 2048, 4, seed=2)])
    assert concurrent.makespan_cycles < sequential


def test_single_interrupt_covers_all_jobs():
    system = ext_system()
    offload_concurrent(system, two_jobs())
    assert system.syncunit.interrupts_fired == 1
    assert system.syncunit.count == 8  # 4 + 4 increments


def test_works_on_baseline_hardware_with_per_job_flags():
    system = base_system()
    result = offload_concurrent(system, two_jobs())
    assert all(job.verified for job in result.jobs)
    assert result.variant == "baseline"
    # Two flags polled, no sync-unit traffic.
    assert system.syncunit.count == 0
    assert system.noc.count(TransactionKind.AMO_ADD) == 8


def test_three_way_launch():
    jobs = [ConcurrentJob("daxpy", 128, 2, seed=1),
            ConcurrentJob("scale", 128, 2, seed=2),
            ConcurrentJob("vecsum", 128, 4, seed=3)]
    result = offload_concurrent(ext_system(), jobs)
    assert all(job.verified for job in result.jobs)
    assert [j.first_cluster for j in result.jobs] == [0, 2, 4]


def test_per_job_completion_cycles_are_within_window():
    result = offload_concurrent(ext_system(), two_jobs())
    for job in result.jobs:
        assert result.start_cycle < job.completed_cycle < result.end_cycle


def test_empty_launch_rejected():
    with pytest.raises(OffloadError):
        offload_concurrent(ext_system(), [])


def test_overwide_launch_rejected():
    system = ext_system()
    with pytest.raises(OffloadError, match="clusters"):
        offload_concurrent(system, [ConcurrentJob("daxpy", 64, 5),
                                    ConcurrentJob("daxpy", 64, 4)])
    # Refused before the first job was staged.
    assert system.memory.alloc(8) == ext_system().memory.alloc(8)


def test_tcdm_precheck_applies_per_job():
    with pytest.raises(OffloadError, match="TCDM"):
        offload_concurrent(ext_system(), [
            ConcurrentJob("daxpy", 16384, 1),
            ConcurrentJob("daxpy", 64, 1),
        ])


def test_launch_refused_at_a_later_job_stages_nothing():
    # Both spans fit; the second job's slice overflows its TCDM.  Every
    # job is checked before the first one is staged.
    system = ext_system()
    with pytest.raises(OffloadError, match="TCDM"):
        offload_concurrent(system, [ConcurrentJob("daxpy", 4096, 4),
                                    ConcurrentJob("daxpy", 16384, 1)])
    assert system.memory.alloc(8) == ext_system().memory.alloc(8)


def test_double_buffered_job_in_concurrent_launch():
    jobs = [ConcurrentJob("daxpy", 4096, 2, seed=1,
                          exec_mode="double_buffered"),
            ConcurrentJob("memcpy", 256, 2, seed=2)]
    result = offload_concurrent(ext_system(), jobs)
    assert all(job.verified for job in result.jobs)


def test_result_string():
    result = offload_concurrent(ext_system(), two_jobs())
    text = str(result)
    assert "daxpy+memcpy" in text and "8 clusters" in text


def test_sequential_after_concurrent_reuses_system():
    system = ext_system()
    offload_concurrent(system, two_jobs())
    plain = offload_daxpy(system, n=128, num_clusters=8)
    assert plain.verified is True
