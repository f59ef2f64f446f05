"""Unit tests for the workload layer: streams, policies, execution."""

import pytest

from repro.core.decision import HostExecutionModel
from repro.core.model import OffloadModel
from repro.errors import KernelError, OffloadError
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.workload import (
    AlwaysHost,
    AlwaysOffload,
    JobSpec,
    ModelDriven,
    Placement,
    characterize_platform,
    generate_workload,
    run_workload,
)


SMALL_CFG = SoCConfig.extended(num_clusters=8)


def small_system():
    return ManticoreSystem(SMALL_CFG)


# ----------------------------------------------------------------------
# JobSpec & generation
# ----------------------------------------------------------------------
def test_jobspec_fills_default_scalars():
    job = JobSpec(kernel_name="daxpy", n=64)
    assert job.scalars == {"a": 1.0}


def test_jobspec_validates_kernel_and_size():
    with pytest.raises(KernelError):
        JobSpec(kernel_name="daxpy", n=0)
    with pytest.raises(KernelError):
        JobSpec(kernel_name="nope", n=64)
    with pytest.raises(KernelError):
        JobSpec(kernel_name="daxpy", n=64, scalars={"zz": 1.0})


def test_generate_workload_is_reproducible():
    first = generate_workload(20, seed=3)
    second = generate_workload(20, seed=3)
    assert first == second
    different = generate_workload(20, seed=4)
    assert first != different


def test_generate_workload_respects_bounds():
    jobs = generate_workload(100, kernels=("daxpy",), min_n=32, max_n=512,
                             seed=1)
    assert len(jobs) == 100
    assert all(32 <= job.n <= 512 for job in jobs)
    assert all(job.kernel_name == "daxpy" for job in jobs)


def test_generate_workload_is_size_diverse():
    jobs = generate_workload(100, min_n=16, max_n=4096, seed=2)
    sizes = {job.n for job in jobs}
    assert len(sizes) > 50  # log-uniform draw, not constant


def test_generate_workload_validation():
    with pytest.raises(OffloadError):
        generate_workload(0)
    with pytest.raises(OffloadError):
        generate_workload(5, min_n=100, max_n=50)


def test_job_seeds_do_not_collide_across_streams():
    # The old seed + index derivation made streams with adjacent seeds
    # share almost every job seed (stream 0 job 5 == stream 1 job 4).
    first = {job.seed for job in generate_workload(50, seed=0)}
    second = {job.seed for job in generate_workload(50, seed=1)}
    assert not first & second


def test_seed_fix_leaves_kernel_and_size_stream_unchanged():
    # E9's committed numbers depend on the kernel/size draws, which
    # must stay on the sequence the historical seed + index scheme
    # drew; only the per-job input seeds moved to their own RNG.
    jobs = generate_workload(30, seed=3)
    assert [(j.kernel_name, j.n) for j in jobs] == [
        ("dot", 59), ("daxpy", 1360), ("dot", 26), ("scale", 176),
        ("scale", 38), ("memcpy", 940), ("daxpy", 140), ("daxpy", 280),
        ("memcpy", 414), ("memcpy", 957), ("dot", 77), ("dot", 583),
        ("scale", 81), ("scale", 16), ("daxpy", 83), ("dot", 91),
        ("daxpy", 410), ("dot", 218), ("daxpy", 18), ("dot", 806),
        ("scale", 26), ("memcpy", 623), ("scale", 50), ("dot", 526),
        ("daxpy", 978), ("memcpy", 877), ("scale", 1594), ("daxpy", 613),
        ("daxpy", 1510), ("scale", 172)]
    assert [j.seed for j in jobs] != [3 + i for i in range(30)]


def test_jobspec_tenant_and_arrival_annotations():
    job = JobSpec("daxpy", 64, tenant=2, arrival_cycle=900)
    assert job.tenant == 2 and job.arrival_cycle == 900
    with pytest.raises(OffloadError, match="tenant"):
        JobSpec("daxpy", 64, tenant=-1)
    with pytest.raises(OffloadError, match="arrival"):
        JobSpec("daxpy", 64, arrival_cycle=-5)


def test_generate_workload_tags_the_tenant():
    jobs = generate_workload(5, seed=1, tenant=4)
    assert all(job.tenant == 4 for job in jobs)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_always_host_policy():
    placement = AlwaysHost().place(JobSpec("daxpy", 1024), 32)
    assert placement == Placement(offload=False, num_clusters=0)


def test_always_offload_clamps_to_fabric():
    policy = AlwaysOffload(num_clusters=32)
    assert policy.place(JobSpec("daxpy", 64), 8).num_clusters == 8


def test_always_offload_rejects_nonpositive_width():
    with pytest.raises(OffloadError, match="positive"):
        AlwaysOffload(num_clusters=0)


def test_resolved_name_reports_the_clamped_width():
    # The bare name claims the requested width; on a smaller fabric the
    # resolved name must report what actually runs.
    policy = AlwaysOffload(num_clusters=32)
    assert policy.name == "always_offload_32"
    assert policy.resolved_name(8) == "always_offload_8"
    assert policy.resolved_name(64) == "always_offload_32"
    assert AlwaysHost().resolved_name(8) == "always_host"


def test_workload_result_uses_the_resolved_policy_name():
    jobs = [JobSpec("daxpy", 64)]
    result = run_workload(small_system(), jobs, AlwaysOffload(32))
    assert result.policy_name == "always_offload_8"


def test_model_driven_routes_by_size():
    model = OffloadModel(t0=367, mem_coeff=0.25, compute_coeff=0.325)
    host = HostExecutionModel(cycles_per_element=4.0, setup_cycles=14)
    policy = ModelDriven({"daxpy": model}, {"daxpy": host})
    small = policy.place(JobSpec("daxpy", 16), 32)
    large = policy.place(JobSpec("daxpy", 4096), 32)
    assert not small.offload
    assert large.offload and large.num_clusters == 32


def test_model_driven_unknown_kernel():
    policy = ModelDriven({}, {})
    with pytest.raises(OffloadError, match="characterized"):
        policy.place(JobSpec("daxpy", 64), 8)


def test_characterize_platform_builds_models_per_kernel():
    policy = characterize_platform(SMALL_CFG, ("daxpy", "memcpy"),
                                   n_values=(128, 256, 512),
                                   m_values=(1, 2, 4, 8))
    assert set(policy.offload_models) == {"daxpy", "memcpy"}
    daxpy_model = policy.offload_models["daxpy"]
    assert daxpy_model.t0 == pytest.approx(366, abs=10)
    host = policy.host_models["daxpy"]
    assert host.cycles_per_element == pytest.approx(4.0, abs=0.05)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def test_run_workload_accounts_every_job():
    jobs = generate_workload(5, kernels=("daxpy",), min_n=64, max_n=256,
                             seed=1)
    result = run_workload(small_system(), jobs, AlwaysOffload(4))
    assert len(result.outcomes) == 5
    assert result.offloaded_jobs == 5
    assert result.host_jobs == 0
    assert result.makespan_cycles == sum(o.cycles for o in result.outcomes)


def test_run_workload_host_policy_uses_host_rates():
    jobs = [JobSpec("daxpy", 100)]
    result = run_workload(small_system(), jobs, AlwaysHost())
    from repro.kernels import get_kernel
    assert result.outcomes[0].cycles == \
        get_kernel("daxpy").host_compute_cycles(100)


def test_run_workload_empty_rejected():
    with pytest.raises(OffloadError):
        run_workload(small_system(), [], AlwaysHost())


def test_workload_error_names_the_failing_job():
    from repro.errors import WorkloadError
    jobs = [JobSpec("daxpy", 64), JobSpec("daxpy", 2048)]
    with pytest.raises(WorkloadError) as err:
        # 50 cycles is far below any offload's floor: job 0 times out.
        run_workload(small_system(), jobs, AlwaysOffload(4), max_cycles=50)
    message = str(err.value)
    assert "job 0/2" in message
    assert "always_offload_4" in message
    assert "daxpy(n=64)" in message
    assert "4 clusters" in message
    assert err.value.job == jobs[0]
    assert err.value.job_index == 0
    assert err.value.placement.offload
    # The simulation post-mortem rides through from the inner failure.
    assert err.value.report is not None
    assert isinstance(err.value.__cause__, OffloadError)


def test_workload_error_on_host_placement():
    from repro.errors import WorkloadError
    with pytest.raises(WorkloadError, match="on the host") as err:
        run_workload(small_system(), [JobSpec("daxpy", 2048)], AlwaysHost(),
                     max_cycles=50)
    assert not err.value.placement.offload


def test_pool_release_is_safe_after_a_failed_job(monkeypatch):
    # The release audit is under test; fresh-systems mode skips it.
    monkeypatch.delenv("REPRO_FRESH_SYSTEMS", raising=False)
    from repro.errors import WorkloadError
    from repro.soc.pool import SystemPool
    pool = SystemPool()
    system = pool.acquire(SMALL_CFG)
    with pytest.raises(WorkloadError):
        run_workload(system, [JobSpec("daxpy", 2048)], AlwaysOffload(4),
                     max_cycles=50)
    dropped_before = pool.dropped
    from repro import flags
    from repro.errors import QuiescenceError
    from repro.sim import IntegrityWarning
    # The quiescence audit drops the half-run system: a warning in
    # normal mode, the documented hard error under REPRO_STRICT —
    # never a recycle.
    if flags.strict():
        with pytest.raises(QuiescenceError):
            pool.release(system)
    else:
        with pytest.warns(IntegrityWarning, match="non-quiescent"):
            pool.release(system)
    assert pool.dropped == dropped_before + 1


def test_adaptive_never_loses_to_static_policies():
    jobs = generate_workload(12, kernels=("daxpy", "memcpy"), min_n=16,
                             max_n=2048, seed=5)
    adaptive = characterize_platform(SMALL_CFG, ("daxpy", "memcpy"),
                                     n_values=(128, 512, 1024),
                                     m_values=(1, 2, 4, 8))
    adaptive_result = run_workload(small_system(), jobs, adaptive)
    for static in (AlwaysHost(), AlwaysOffload(8)):
        static_result = run_workload(small_system(), jobs, static)
        assert adaptive_result.makespan_cycles \
            <= static_result.makespan_cycles * 1.02  # model error margin


def test_mixed_placement_on_mixed_stream():
    jobs = [JobSpec("daxpy", 16), JobSpec("daxpy", 4096)]
    adaptive = characterize_platform(SMALL_CFG, ("daxpy",),
                                     n_values=(128, 512, 1024),
                                     m_values=(1, 2, 4, 8))
    result = run_workload(small_system(), jobs, adaptive)
    assert result.host_jobs == 1
    assert result.offloaded_jobs == 1
