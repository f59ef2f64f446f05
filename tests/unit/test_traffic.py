"""Unit tests for the traffic engine: arrivals, occupancy, admission."""

import numpy
import pytest

from repro.core.decision import HostExecutionModel, min_clusters_for_deadline
from repro.core.model import OffloadModel
from repro.errors import OffloadError, TrafficError
from repro.traffic import (
    BurstyArrivals,
    DeadlineAware,
    FabricOccupancy,
    PoissonArrivals,
    TraceArrivals,
    TrafficEngine,
    compute_metrics,
    generate_traffic,
)
from repro.traffic.metrics import jain_index
from repro.workload import AlwaysHost, AlwaysOffload, JobSpec, ModelDriven

# Synthetic fitted models with round coefficients: offload floor ~364
# cycles, host at 4 cycles/element.  Small jobs can never offload in
# time; large jobs parallelize well.
MODEL = OffloadModel(t0=360, mem_coeff=0.25, compute_coeff=0.4)
HOST = HostExecutionModel(cycles_per_element=4.0, setup_cycles=16.0)


def engine(capacity=32, slack=3.0):
    return TrafficEngine({"daxpy": MODEL}, {"daxpy": HOST},
                         capacity=capacity, slack=slack)


def job(n, arrival, tenant=0):
    return JobSpec("daxpy", n, tenant=tenant, arrival_cycle=arrival)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def test_poisson_arrivals_are_nondecreasing_and_near_the_mean():
    rng = numpy.random.default_rng(0)
    times = PoissonArrivals(100.0).arrival_cycles(2000, rng)
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert times[-1] / 2000 == pytest.approx(100.0, rel=0.1)


def test_poisson_rejects_nonpositive_mean():
    with pytest.raises(TrafficError):
        PoissonArrivals(0.0)


def test_bursty_arrivals_cluster_more_than_poisson():
    rng = numpy.random.default_rng(1)
    bursty = BurstyArrivals(10.0, mean_burst_jobs=8.0,
                            mean_idle_cycles=2000.0)
    times = bursty.arrival_cycles(2000, rng)
    gaps = numpy.diff(times)
    # On/off modulation: gap variance far exceeds the exponential's
    # (where std == mean).
    assert gaps.std() > 2 * gaps.mean()


def test_bursty_validation():
    with pytest.raises(TrafficError):
        BurstyArrivals(0.0, 8.0, 100.0)
    with pytest.raises(TrafficError):
        BurstyArrivals(10.0, 0.5, 100.0)


def test_trace_arrivals_replay_periodically():
    trace = TraceArrivals([0, 10, 50], period_cycles=100)
    rng = numpy.random.default_rng(0)
    assert trace.arrival_cycles(7, rng) == [0, 10, 50, 100, 110, 150, 200]


def test_trace_validation():
    with pytest.raises(TrafficError):
        TraceArrivals([])
    with pytest.raises(TrafficError):
        TraceArrivals([5, 3])
    with pytest.raises(TrafficError):
        TraceArrivals([-1, 3])
    with pytest.raises(TrafficError):
        TraceArrivals([0, 50], period_cycles=50)


def test_trace_consumes_no_randomness_for_times():
    rng_a = numpy.random.default_rng(7)
    rng_b = numpy.random.default_rng(7)
    trace = TraceArrivals([0, 30])
    trace.arrival_cycles(10, rng_a)
    # rng_a untouched: both generators continue identically.
    assert rng_a.integers(0, 2**32) == rng_b.integers(0, 2**32)


def test_generate_traffic_is_deterministic_and_sorted():
    process = PoissonArrivals(100.0)
    first = generate_traffic(process, 50, tenants=3, kernels=("daxpy",),
                             seed=9)
    second = generate_traffic(process, 50, tenants=3, kernels=("daxpy",),
                              seed=9)
    assert first == second
    assert all(b.arrival_cycle >= a.arrival_cycle
               for a, b in zip(first, first[1:]))
    assert {j.tenant for j in first} <= {0, 1, 2}
    assert len({j.seed for j in first}) == 50   # per-job input seeds


def test_generate_traffic_stream_is_pinned():
    # E13's committed numbers depend on this draw order: arrival gaps
    # first, then kernel, size, input seed and tenant inline per job.
    jobs = generate_traffic(PoissonArrivals(500.0), 12, seed=3)
    assert [(j.kernel_name, j.n, j.tenant, j.arrival_cycle)
            for j in jobs] == [
        ("daxpy", 414, 0, 55), ("memcpy", 77, 1, 249),
        ("memcpy", 81, 1, 949), ("daxpy", 83, 1, 2049),
        ("daxpy", 410, 1, 2221), ("daxpy", 18, 1, 2350),
        ("memcpy", 26, 0, 2567), ("memcpy", 50, 1, 2618),
        ("daxpy", 978, 0, 3119), ("memcpy", 1594, 0, 3152),
        ("daxpy", 1510, 1, 3378), ("memcpy", 2087, 1, 5051)]


def test_generate_traffic_validation():
    process = PoissonArrivals(10.0)
    with pytest.raises(TrafficError):
        generate_traffic(process, 0)
    with pytest.raises(TrafficError):
        generate_traffic(process, 5, tenants=0)
    with pytest.raises(TrafficError):
        generate_traffic(process, 5, kernels=())
    with pytest.raises(TrafficError):
        generate_traffic(process, 5, min_n=0)


# ----------------------------------------------------------------------
# Fabric occupancy
# ----------------------------------------------------------------------
def test_empty_fabric_starts_immediately():
    occ = FabricOccupancy(8)
    assert occ.earliest_start(100, 50, 8) == 100


def test_occupancy_packs_up_to_capacity_then_queues():
    occ = FabricOccupancy(8)
    occ.reserve(0, 100, 4)
    occ.reserve(0, 100, 4)
    # Full until cycle 100: a third job waits for the earliest end.
    assert occ.earliest_start(0, 10, 1) == 100
    # Back-to-back full-width reservation pushes the wait further.
    occ.reserve(100, 50, 8)
    assert occ.earliest_start(0, 10, 1) == 150


def test_occupancy_finds_holes_between_reservations():
    occ = FabricOccupancy(8)
    occ.reserve(0, 100, 6)
    occ.reserve(200, 100, 6)
    # Two clusters are free throughout; six fit only in [100, 200).
    assert occ.earliest_start(0, 50, 2) == 0
    assert occ.earliest_start(0, 100, 6) == 100
    # A 150-cycle six-wide job cannot fit the hole: it must wait.
    assert occ.earliest_start(0, 150, 6) == 300


def test_occupancy_validation_and_overflow():
    occ = FabricOccupancy(4)
    with pytest.raises(TrafficError):
        FabricOccupancy(0)
    with pytest.raises(TrafficError):
        occ.earliest_start(0, 10, 0)
    with pytest.raises(TrafficError):
        occ.earliest_start(0, 10, 5)
    with pytest.raises(TrafficError):
        occ.reserve(0, 0, 1)
    occ.reserve(0, 10, 4)
    with pytest.raises(TrafficError):
        occ.reserve(5, 10, 1)   # would exceed capacity mid-interval


def test_occupancy_prune_drops_finished_reservations():
    occ = FabricOccupancy(4)
    occ.reserve(0, 10, 2)
    occ.reserve(5, 10, 2)
    assert len(occ) == 2
    occ.prune(10)
    assert len(occ) == 1
    assert occ.busy_cluster_cycles == 40   # accounting survives pruning


def test_occupancy_utilization():
    occ = FabricOccupancy(4)
    occ.reserve(0, 100, 2)
    assert occ.utilization(100) == pytest.approx(0.5)
    assert occ.utilization(0) == 0.0


# ----------------------------------------------------------------------
# Engine + policies
# ----------------------------------------------------------------------
def test_engine_validation():
    with pytest.raises(TrafficError):
        TrafficEngine({}, {}, capacity=0)
    with pytest.raises(TrafficError):
        TrafficEngine({}, {}, capacity=8, slack=0.0)
    with pytest.raises(OffloadError, match="positive"):
        AlwaysOffload(0)
    with pytest.raises(TrafficError):
        engine().run([], AlwaysHost())


def test_traffic_policy_names_alias_the_workload_policies():
    import repro.traffic as trf
    assert trf.TrafficAlwaysHost is AlwaysHost
    assert trf.TrafficAlwaysOffload is AlwaysOffload
    assert trf.TrafficModelDriven is ModelDriven
    assert trf.TrafficDeadlineAware is DeadlineAware


def test_engine_unknown_kernel():
    eng = engine()
    with pytest.raises(TrafficError, match="characterized"):
        eng.run([JobSpec("memcpy", 64)], AlwaysHost())


def test_always_host_queues_serially():
    eng = engine()
    # Host time for n=100: 16 + 400 = 416 cycles each.
    result = eng.run([job(100, 0), job(100, 0)], AlwaysHost())
    first, second = result.outcomes
    assert (first.start_cycle, first.end_cycle) == (0, 416)
    assert (second.start_cycle, second.end_cycle) == (416, 832)
    assert result.utilization == 0.0   # no clusters ever reserved


def test_always_offload_resolved_name_reports_clamped_width():
    eng = engine(capacity=8)
    result = eng.run([job(1024, 0)], AlwaysOffload(32))
    assert result.policy_name == "always_offload_8"
    assert result.outcomes[0].num_clusters == 8


def test_model_driven_routes_small_jobs_to_host():
    eng = engine()
    result = eng.run([job(16, 0), job(4096, 0)], ModelDriven())
    small, large = result.outcomes
    assert small.placement == "host"
    assert large.placement == "offload"
    assert large.num_clusters == 32   # runtime-optimal width, d=0


def test_deadline_aware_matches_offline_eq3_on_an_idle_fabric():
    # Sparse stream: every arrival finds the fabric idle, so the online
    # admission must pick exactly the offline inversion's width.
    eng = engine()
    jobs = [job(n, arrival=i * 1_000_000)
            for i, n in enumerate((512, 1024, 2048, 4096, 3000, 777))]
    result = eng.run(jobs, DeadlineAware())
    for outcome in result.outcomes:
        assert outcome.placement == "offload"
        budget = outcome.deadline_cycle - outcome.spec.arrival_cycle
        offline = min_clusters_for_deadline(MODEL, outcome.spec.n,
                                            budget, 32)
        assert outcome.num_clusters == offline
        assert outcome.end_cycle <= outcome.deadline_cycle


def test_deadline_aware_widens_past_queued_reservations():
    eng = engine(capacity=8)
    # Occupy 6 of 8 clusters for a long time; a job that needs 1
    # cluster offline must widen (or wait) and still meet its deadline.
    eng.occupancy.reserve(0, 50_000, 6)
    arrival_job = job(2048, 0)
    deadline = eng.deadline_for(arrival_job)
    outcome = DeadlineAware().place(arrival_job, deadline, eng)
    assert outcome.placement == "offload"
    assert outcome.num_clusters <= 2   # only 2 clusters are free now
    assert outcome.end_cycle <= deadline


def test_deadline_aware_falls_back_to_host_when_eq3_infeasible():
    eng = engine(slack=1.5)
    # n=16: host is 80 cycles, deadline 120 — the ~366-cycle offload
    # floor can never meet it, so the job must run on the idle host.
    result = eng.run([job(16, 0)], DeadlineAware())
    assert result.outcomes[0].placement == "host"
    assert not result.outcomes[0].missed_deadline


def test_deadline_aware_sheds_guaranteed_misses():
    eng = engine(slack=1.0)
    # Two tiny jobs at once: the host serves one exactly on time; the
    # second would start late and is shed instead of served hopelessly.
    result = eng.run([job(16, 0), job(16, 0)], DeadlineAware())
    placements = sorted(o.placement for o in result.outcomes)
    assert placements == ["host", "shed"]
    shed = [o for o in result.outcomes if o.placement == "shed"][0]
    assert not shed.admitted
    assert shed.missed_deadline
    with pytest.raises(TrafficError):
        shed.sojourn_cycles


def test_deadline_aware_beats_always_offload_under_load():
    # A burst of wide jobs: always-offload serializes them at full
    # width; minimum-width admission space-shares and meets deadlines.
    eng = engine()
    jobs = [job(2048, arrival=i * 10) for i in range(80)]
    wide = compute_metrics(eng.run(jobs, AlwaysOffload(32)))
    aware = compute_metrics(eng.run(jobs, DeadlineAware()))
    assert aware.miss_rate < wide.miss_rate
    assert wide.miss_rate > 0.5
    assert aware.deadline_misses == 0


def test_engine_runs_are_independent_and_deterministic():
    eng = engine()
    jobs = generate_traffic(PoissonArrivals(200.0), 60, tenants=2,
                            kernels=("daxpy",), seed=5)
    first = eng.run(jobs, DeadlineAware(), arrival_name="poisson")
    second = eng.run(jobs, DeadlineAware(), arrival_name="poisson")
    assert first == second
    assert compute_metrics(first) == compute_metrics(second)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_jain_index_edges():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    # One tenant getting everything: 1/k.
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_compute_metrics_aggregates_and_splits_tenants():
    eng = engine()
    jobs = [job(1024, 0, tenant=0), job(1024, 500, tenant=1),
            job(16, 1000, tenant=1)]
    metrics = compute_metrics(eng.run(jobs, ModelDriven(),
                                      arrival_name="unit"))
    assert metrics.arrival_name == "unit"
    assert metrics.jobs == 3
    assert metrics.offloaded == 2
    assert metrics.shed == 0
    assert [t.tenant for t in metrics.per_tenant] == [0, 1]
    assert [t.jobs for t in metrics.per_tenant] == [1, 2]
    assert metrics.jain_fairness == pytest.approx(1.0)
    # p99 >= p50 by construction.
    assert metrics.p99_sojourn_cycles >= metrics.p50_sojourn_cycles


def test_shed_jobs_count_as_misses_in_metrics():
    eng = engine(slack=1.0)
    metrics = compute_metrics(
        eng.run([job(16, 0), job(16, 0)], DeadlineAware()))
    assert metrics.shed == 1
    assert metrics.deadline_misses == 1
    assert metrics.miss_rate == pytest.approx(0.5)
