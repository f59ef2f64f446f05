"""Property tests: phase fast-forwarding is bit-identical, A/B'd.

Three timing invariants back the fast-forward layer:

1. Bulk channel timing (DMA reservations + closed-form serialization)
   measures exactly what the naive setup-then-transfer event chain
   measures (``REPRO_NAIVE_CHANNEL`` selects the reference).
2. Closed-form barrier/compute-phase crossings measure exactly what
   spawning one process per worker core and simulating every arrival
   measures (``REPRO_NAIVE_BARRIER`` selects the reference).
3. A pooled system recycled through ``reset()`` yields a system
   indistinguishable from fresh construction.

Each invariant is sampled over grid points and program shapes (plain,
overlapped, concurrent) with the full observable fingerprint compared:
cycles, retired ops, per-cluster DMA/worker statistics, shared-channel
and cluster-port occupancy, the energy meter's counters, the NoC
transaction log, and the cycle the drained clock settles at.  The
closed-form descriptor fetch and completion store are part of the
channel fast path, so invariant 1 also samples cluster wake and decode
latencies of zero, and random NoC, fabric-barrier, interrupt and
wake-up latencies (a plain launch books its start-barrier arrivals at
the doorbell).  Every run must also leave its trace sorted by cycle,
with the records its DM cores stamped ahead merged in.
"""

import collections
import contextlib
import heapq
import os
import sys

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload
from repro.core.overlap import offload_overlapped
from repro.kernels import kernel_names
from repro.kernels.registry import register_kernel, unregister_kernel
from repro.kernels.stencil3 import Stencil3Kernel
from repro.flags import (
    FRESH_SYSTEMS_ENV,
    NAIVE_BARRIER_ENV,
    NAIVE_CHANNEL_ENV,
    NAIVE_POLL_ENV,
)
from repro.sim import kernel as sim_kernel
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.pool import SystemPool

SETTINGS = hypothesis.settings(
    max_examples=5, deadline=None,
    suppress_health_check=[
        hypothesis.HealthCheck.too_slow,
        # The autouse gate-clearing fixture is env-only and idempotent
        # across examples, so function scope is safe.
        hypothesis.HealthCheck.function_scoped_fixture,
    ])

N_VALUES = [24, 32, 48, 64, 96]
M_VALUES = [1, 2, 4]
VARIANTS = ["baseline", "extended"]
#: Zero and the default, for the latencies that bracket a descriptor
#: fetch (zero removes the wake-up callback or the decode delay).
WAKE_VALUES = [0, SoCConfig().cluster_wake_latency]
DECODE_VALUES = [0, SoCConfig().dm_decode_cycles]
#: Descriptors of 10 to 13 words, so concurrent jobs' tail bursts differ.
CONCURRENT_KERNELS = ["memcpy", "dot", "daxpy", "axpby"]


@pytest.fixture(autouse=True)
def _fast_paths_on(monkeypatch):
    """Pin the fast paths on regardless of ambient gates.

    The CI ``ab-gates`` matrix runs the whole suite with each
    ``REPRO_*`` gate set; these tests enable the reference paths
    *explicitly* per invariant, so the ambient environment must not
    pre-disable the fast side they compare against."""
    for name in (NAIVE_CHANNEL_ENV, NAIVE_BARRIER_ENV, FRESH_SYSTEMS_ENV):
        monkeypatch.delenv(name, raising=False)


@contextlib.contextmanager
def _env(name, value):
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ[name]
        else:
            os.environ[name] = saved


def _fingerprint(system, runtime_cycles):
    """Everything an observer could measure about one program run."""
    noc = system.noc
    return {
        "runtime": runtime_cycles,
        "retired": system.host.retired_operations,
        "loads": system.host.lsu.loads_issued,
        "stores": system.host.lsu.stores_issued,
        "host_requests": noc.host_port.requests,
        "host_busy": noc.host_port.busy_cycles,
        "amo_requests": noc.amo_port.requests,
        "jobs": tuple(c.jobs_completed for c in system.clusters),
        "cluster_ports": tuple((port.requests, port.busy_cycles)
                               for port in noc.cluster_ports),
        "noc_total": noc.transactions_logged,
        "dm_active": tuple(c.dm_active_cycles for c in system.clusters),
        "dma": tuple((c.dma.transfers_in, c.dma.bytes_in,
                      c.dma.transfers_out, c.dma.bytes_out)
                     for c in system.clusters),
        "workers": tuple(w.busy_cycles for c in system.clusters
                         for w in c.workers),
        "read_channel": (system.read_channel.requests,
                         system.read_channel.busy_cycles,
                         system.read_channel.bytes_moved),
        "write_channel": (system.write_channel.requests,
                          system.write_channel.busy_cycles,
                          system.write_channel.bytes_moved),
        "transactions": sorted(
            (txn.kind.name, txn.issued_at, txn.source, txn.addresses)
            for txn in noc.transactions),
        "end": system.sim.now,
    }


def _assert_trace_sorted(system):
    """The run left its whole trace in the cycle-sorted ``records``
    list: every stamped record is merged, none out of order."""
    cycles = [record.cycle for record in system.trace.records]
    assert cycles == sorted(cycles)
    assert len(system.trace) == len(cycles)


def _naive_and_fast(gate, run, config=None):
    """Run ``run(system) -> runtime`` twice: ``gate`` enabled, then the
    fast-forward path; returns both fingerprints."""
    config = config or SoCConfig.extended(num_clusters=4)
    with _env(gate, "1"):
        system = ManticoreSystem(config)
        naive = _fingerprint(system, run(system))
        _assert_trace_sorted(system)
    system = ManticoreSystem(config)
    fast = _fingerprint(system, run(system))
    _assert_trace_sorted(system)
    return naive, fast


# ----------------------------------------------------------------------
# Invariant 1: bulk channel timing == naive setup-then-transfer chain
# ----------------------------------------------------------------------
@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS))
def test_channel_ff_matches_naive_offload(n, m, variant):
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload(system, "daxpy", n, m,
                               variant=variant).runtime_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(n_a=st.sampled_from(N_VALUES), n_b=st.sampled_from(N_VALUES))
def test_channel_ff_matches_naive_concurrent(n_a, n_b):
    """Concurrent jobs contend on the shared channels with staggered,
    size-dependent arrivals — the worst case for reservation windows."""
    jobs = (ConcurrentJob(kernel_name="daxpy", n=n_a, num_clusters=2),
            ConcurrentJob(kernel_name="daxpy", n=n_b, num_clusters=2))
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload_concurrent(system, jobs).makespan_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(accel_n=st.sampled_from(N_VALUES),
                  host_n=st.sampled_from([16, 32, 256]))
def test_channel_ff_matches_naive_overlapped(accel_n, host_n):
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload_overlapped(
            system, "daxpy", accel_n, 2, "daxpy", host_n).total_cycles)
    assert fast == naive


FETCH_SETTINGS = hypothesis.settings(SETTINGS, max_examples=25)


def _fetch_config(wake, decode):
    return SoCConfig.extended(num_clusters=4, cluster_wake_latency=wake,
                              dm_decode_cycles=decode)


@FETCH_SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS),
                  wake=st.sampled_from(WAKE_VALUES),
                  decode=st.sampled_from(DECODE_VALUES))
def test_descriptor_fetch_matches_naive_offload(n, m, variant, wake,
                                                decode):
    """The closed-form fetch parks once where the reference chain parks
    up to four times; zero wake or decode latency changes which of its
    entries are heap resumes and which queue behind a trigger."""
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload(system, "daxpy", n, m,
                               variant=variant).runtime_cycles,
        _fetch_config(wake, decode))
    assert fast == naive


@FETCH_SETTINGS
@hypothesis.given(kernels=st.lists(st.sampled_from(CONCURRENT_KERNELS),
                                   min_size=2, max_size=3),
                  n=st.sampled_from(N_VALUES),
                  variant=st.sampled_from(VARIANTS),
                  wake=st.sampled_from(WAKE_VALUES),
                  decode=st.sampled_from(DECODE_VALUES))
def test_descriptor_fetch_matches_naive_concurrent(kernels, n, variant, wake,
                                                   decode):
    """Jobs with descriptors of different lengths, rung at different
    cycles, can finish their fetches in the same cycle.  A concurrent
    launch keeps the burst chain (a release may then meet a foreign
    read-channel request in one cycle), and must still match the
    reference with the new counters in the fingerprint."""
    widths = [2, 1, 1][:len(kernels)]
    jobs = [ConcurrentJob(kernel_name=kernel, n=n + 8 * index,
                          num_clusters=width)
            for index, (kernel, width) in enumerate(zip(kernels, widths))]
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload_concurrent(
            system, jobs, variant=variant).makespan_cycles,
        _fetch_config(wake, decode))
    assert fast == naive


#: Random control-path latencies around the closed-form fetch, the
#: start-barrier arrival booked at the doorbell (zero fabric-barrier
#: latencies move its completing hop most) and the completion store.
#: A zero port occupancy refuses the closed-form store, so it stays in
#: range to check the fallback too.  The request latency starts at 1:
#: at 0 a cluster can record its completion in the cycle the host ends
#: the offload, outside the trace window, on either path.
LATENCIES = st.fixed_dictionaries({
    "cluster_wake_latency": st.integers(0, 12),
    "dm_decode_cycles": st.integers(0, 24),
    "noc_request_latency": st.integers(1, 10),
    "noc_response_latency": st.integers(0, 20),
    "noc_cluster_port_occupancy": st.integers(0, 3),
    "fabric_barrier_arrival_latency": st.integers(0, 10),
    "fabric_barrier_release_latency": st.integers(0, 10),
    "syncunit_irq_latency": st.integers(0, 6),
    "host_wfi_wake_latency": st.integers(0, 10),
})


@FETCH_SETTINGS
@hypothesis.given(kernel=st.sampled_from(CONCURRENT_KERNELS),
                  n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS), latencies=LATENCIES)
def test_completion_store_matches_naive_offload(kernel, n, m, variant,
                                                latencies):
    """A plain launch's members post their sync-unit stores in closed
    form; the ack no one waits for still sets where the drained clock
    settles (``end`` in the fingerprint), even when it lands after the
    host's wake-up."""
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload(system, kernel, n, m,
                               variant=variant).runtime_cycles,
        SoCConfig.extended(num_clusters=4, **latencies))
    assert fast == naive


@FETCH_SETTINGS
@hypothesis.given(kernels=st.lists(st.sampled_from(CONCURRENT_KERNELS),
                                   min_size=2, max_size=3),
                  n=st.sampled_from(N_VALUES),
                  variant=st.sampled_from(VARIANTS), latencies=LATENCIES)
def test_random_latencies_match_naive_concurrent(kernels, n, variant,
                                                 latencies):
    widths = [2, 1, 1][:len(kernels)]
    jobs = [ConcurrentJob(kernel_name=kernel, n=n + 8 * index,
                          num_clusters=width)
            for index, (kernel, width) in enumerate(zip(kernels, widths))]
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload_concurrent(
            system, jobs, variant=variant).makespan_cycles,
        SoCConfig.extended(num_clusters=4, **latencies))
    assert fast == naive


@FETCH_SETTINGS
@hypothesis.given(accel_n=st.sampled_from(N_VALUES),
                  host_n=st.sampled_from([16, 32, 256]),
                  m=st.sampled_from([1, 2]),
                  variant=st.sampled_from(VARIANTS), latencies=LATENCIES)
def test_random_latencies_match_naive_overlapped(accel_n, host_n, m,
                                                 variant, latencies):
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload_overlapped(
            system, "daxpy", accel_n, m, "daxpy", host_n,
            variant=variant).total_cycles,
        SoCConfig.extended(num_clusters=4, **latencies))
    assert fast == naive


def test_closed_form_fetch_engages_only_on_plain_launches():
    """Every doorbell of a one-job launch takes the closed form when the
    job's clusters share one wake and one decode latency; concurrent
    and overlapped launches, and a span mixing tile classes, keep the
    reference chain (and still match it)."""
    from repro.soc.tiles import SNITCH, VECWIDE, TileGroup

    def fetches(config, run):
        system = ManticoreSystem(config)
        run(system)
        return system.fastforward_stats()["descriptor_fetches"]

    config = SoCConfig.extended(num_clusters=4)
    assert fetches(config, lambda s: offload(s, "daxpy", 64, 4)) == 4
    assert fetches(config, lambda s: offload_concurrent(s, [
        ConcurrentJob("daxpy", 64, 2), ConcurrentJob("dot", 64, 2)])) == 0
    assert fetches(config, lambda s: offload_overlapped(
        s, "daxpy", 64, 2, "daxpy", 16)) == 0

    fabric = (TileGroup(name="little", tile=SNITCH, count=2),
              TileGroup(name="big", tile=VECWIDE, count=2))
    config = SoCConfig.extended(num_clusters=4, fabric=fabric)
    assert fetches(config, lambda s: offload(
        s, "daxpy", 64, 2, tile_group="big")) == 2

    def mixed(system):
        return offload(system, "daxpy", 64, 4).runtime_cycles

    assert fetches(config, mixed) == 0
    naive, fast = _naive_and_fast(NAIVE_CHANNEL_ENV, mixed, config)
    assert fast == naive


#: The latencies around the closed-form data phase: the fetch's and the
#: completion store's, plus the DMA setup (the channels' reservation
#: lead follows it), the cluster barrier and the worker wake-up.
TAIL_LATENCIES = st.fixed_dictionaries({
    "cluster_wake_latency": st.integers(0, 12),
    "dm_decode_cycles": st.integers(0, 24),
    "noc_request_latency": st.integers(1, 10),
    "noc_response_latency": st.integers(0, 20),
    "noc_cluster_port_occupancy": st.integers(0, 3),
    "dma_setup_cycles": st.integers(0, 24),
    "barrier_latency": st.integers(0, 4),
    "worker_wake_latency": st.integers(0, 4),
    "fabric_barrier_arrival_latency": st.integers(0, 10),
    "fabric_barrier_release_latency": st.integers(0, 10),
    "syncunit_irq_latency": st.integers(0, 6),
    "host_wfi_wake_latency": st.integers(0, 10),
})


@FETCH_SETTINGS
@hypothesis.given(kernel=st.sampled_from(kernel_names()),
                  n=st.integers(1, 120),
                  m=st.sampled_from([1, 2, 4, 8]),
                  variant=st.sampled_from(VARIANTS),
                  gate=st.sampled_from([NAIVE_CHANNEL_ENV,
                                        NAIVE_BARRIER_ENV]),
                  latencies=TAIL_LATENCIES)
# A rank with one item more than the next computes long enough that
# the next rank's compute release comes first, and takes the write
# channel first.
@hypothesis.example(kernel="daxpy", n=65, m=8, variant="extended",
                    gate=NAIVE_CHANNEL_ENV,
                    latencies={"dma_setup_cycles": 3, "barrier_latency": 4,
                               "worker_wake_latency": 0})
# Two compute releases due in one cycle take the write channel in
# booking order.
@hypothesis.example(kernel="vecsum", n=33, m=4, variant="extended",
                    gate=NAIVE_BARRIER_ENV,
                    latencies={"dma_setup_cycles": 1, "barrier_latency": 4,
                               "worker_wake_latency": 1})
def test_closed_data_phase_matches_naive(kernel, n, m, variant, gate,
                                         latencies):
    """A plain sync-unit launch times its data phase in closed form and
    parks each member once until its write-back; the reference steps
    through every DMA and compute hop.  Cycles, every per-cluster trace
    marker and the fingerprint agree, with empty ranks (N < M) and
    every registered kernel.  The baseline variant completes through
    the AMO unit, so it refuses the closed form and steps too."""
    closed = []

    def run(system):
        result = offload(system, kernel, n, m, variant=variant)
        assert result.verified
        closed.append(system.fastforward_stats()["closed_tails"])
        return result.runtime_cycles, result.trace.clusters

    naive, fast = _naive_and_fast(
        gate, run, SoCConfig.extended(num_clusters=8, **latencies))
    assert fast == naive
    assert closed == [0, int(variant == "extended")]


class _InPlaceStencil(Stencil3Kernel):
    """A stencil written over its own input: each member reads a halo
    element that its neighbour's write-back overwrites."""

    name = "fftest_inplace_stencil"

    def output_alias(self, name):
        self._check_name(name, self.output_names, "output")
        return "x"


def _mixed_tile_config():
    """Two tile classes with one wake and one decode latency, so the
    launch is plain but its members build two job plans."""
    import dataclasses

    from repro.soc.tiles import SNITCH, TileGroup

    wide = dataclasses.replace(SNITCH, name="snitch16", cores_per_tile=16)
    fabric = (TileGroup(name="eight", tile=SNITCH, count=2),
              TileGroup(name="sixteen", tile=wide, count=2))
    return SoCConfig.extended(num_clusters=4, fabric=fabric)


CLOSED_TAIL_REFUSALS = {
    "amo-completion": lambda system: offload(
        system, "daxpy", 64, 4, variant="baseline"),
    "double-buffered": lambda system: offload(
        system, "daxpy", 512, 4, exec_mode="double_buffered"),
    "mixed-tiles": lambda system: offload(system, "daxpy", 64, 4),
    "aliased-halo": lambda system: offload(
        system, _InPlaceStencil.name, 64, 4, verify=False),
}


@pytest.mark.parametrize("refusal", sorted(CLOSED_TAIL_REFUSALS))
def test_closed_data_phase_refusal_falls_back(refusal):
    """Each refused job steps through its data phase on every member
    (no closed tail is counted) and still matches the reference, down
    to the outputs it leaves in memory."""
    use = CLOSED_TAIL_REFUSALS[refusal]
    config = (_mixed_tile_config() if refusal == "mixed-tiles"
              else SoCConfig.extended(num_clusters=4))
    closed = []

    def run(system):
        result = use(system)
        closed.append(system.fastforward_stats()["closed_tails"])
        return (result.runtime_cycles, result.trace.clusters,
                {name: values.tolist()
                 for name, values in result.outputs.items()})

    register_kernel(_InPlaceStencil())
    try:
        naive, fast = _naive_and_fast(NAIVE_CHANNEL_ENV, run, config)
    finally:
        unregister_kernel(_InPlaceStencil.name)
    assert fast == naive
    assert closed == [0, 0]
    # The same launch without the refused property takes the closed form.
    system = ManticoreSystem(SoCConfig.extended(num_clusters=4))
    offload(system, "daxpy", 64, 4)
    assert system.fastforward_stats()["closed_tails"] == 1


# ----------------------------------------------------------------------
# Invariant 2: closed-form crossings == spawned per-core arrivals
# ----------------------------------------------------------------------
@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS))
def test_barrier_ff_matches_naive_offload(n, m, variant):
    naive, fast = _naive_and_fast(
        NAIVE_BARRIER_ENV,
        lambda system: offload(system, "daxpy", n, m,
                               variant=variant).runtime_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(n_a=st.sampled_from(N_VALUES), n_b=st.sampled_from(N_VALUES))
def test_barrier_ff_matches_naive_concurrent(n_a, n_b):
    """Two independent jobs keep separate fabric-barrier groups open at
    once; crossings interleave with foreign channel traffic."""
    jobs = (ConcurrentJob(kernel_name="daxpy", n=n_a, num_clusters=2),
            ConcurrentJob(kernel_name="daxpy", n=n_b, num_clusters=2))
    naive, fast = _naive_and_fast(
        NAIVE_BARRIER_ENV,
        lambda system: offload_concurrent(system, jobs).makespan_cycles)
    assert fast == naive


def test_fastforward_skips_simulated_events():
    """The fast paths must actually fast-forward, not just agree.

    With both reference paths forced, every DMA hop and barrier arrival
    is a separate scheduled event; the closed forms collapse them.
    Compare simulator sequence numbers as a proxy, and check the
    engagement counters on the fast side.  The job-plan and
    completion-store counters are nonzero exactly when both gates are
    clear (the completion store only where the variant signals through
    the sync unit; the start-barrier arrivals booked at the doorbell in
    both variants).
    """
    for variant in VARIANTS:
        _check_skips_simulated_events(variant)


def _check_skips_simulated_events(variant):
    config = SoCConfig(num_clusters=4).for_variant(variant)

    def run(*gates):
        with contextlib.ExitStack() as stack:
            for gate in gates:
                stack.enter_context(_env(gate, "1"))
            system = ManticoreSystem(config)
            result = offload(system, "daxpy", 4096, 4, variant=variant)
            return (result.runtime_cycles, system.sim._sequence,
                    system.fastforward_stats())

    naive_cycles, naive_events, naive_stats = run(NAIVE_CHANNEL_ENV,
                                                  NAIVE_BARRIER_ENV)
    fast_cycles, fast_events, fast_stats = run()

    assert fast_cycles == naive_cycles
    assert fast_events < naive_events
    assert naive_stats["dma_transfers"] == 0
    assert naive_stats["compute_phases"] == 0
    assert fast_stats["dma_transfers"] > 0
    assert fast_stats["dma_fallbacks"] == 0
    assert fast_stats["compute_phases"] > 0
    assert fast_stats["barrier_crossings"] == fast_stats["compute_phases"]
    assert fast_stats["fabric_arrivals"] == 4
    assert fast_stats["doorbell_arrivals"] == 4
    assert fast_stats["job_plans"] == 1
    posted = 4 if variant == "extended" else 0
    assert fast_stats["completion_stores"] == posted
    assert fast_stats["closed_tails"] == int(variant == "extended")
    for gates in ((NAIVE_CHANNEL_ENV, NAIVE_BARRIER_ENV),
                  (NAIVE_CHANNEL_ENV,), (NAIVE_BARRIER_ENV,)):
        _cycles, _events, stats = run(*gates)
        assert stats["job_plans"] == 0, gates
        assert stats["doorbell_arrivals"] == 0, gates
        assert stats["completion_stores"] == 0, gates
        assert stats["closed_tails"] == 0, gates


def _engine_work(monkeypatch, system, run):
    """``run()``'s result, and the scheduler callbacks and process
    resumes it takes on ``system``."""
    sim = system.sim
    callbacks = 0

    class CountingQueue(collections.deque):
        def popleft(self):
            nonlocal callbacks
            callbacks += 1
            return super().popleft()

    heappop = heapq.heappop

    def counting_heappop(queue):
        nonlocal callbacks
        if queue is sim._queue:
            callbacks += 1
        return heappop(queue)

    sim._now_queue = CountingQueue(sim._now_queue)
    monkeypatch.setattr(sim_kernel.heapq, "heappop", counting_heappop)
    resumes = sim.resumes
    result = run()
    return result, callbacks, sim.resumes - resumes


def _daxpy_engine_work(monkeypatch, variant):
    """Cycles, callbacks and resumes of a 32-cluster DAXPY, N = 2048,
    on a warmed system of the variant."""
    monkeypatch.delenv(NAIVE_POLL_ENV, raising=False)
    system = ManticoreSystem(SoCConfig(num_clusters=32).for_variant(variant))
    offload(system, "daxpy", 2048, 32, variant=variant)  # warm the memos
    result, callbacks, resumes = _engine_work(
        monkeypatch, system,
        lambda: offload(system, "daxpy", 2048, 32, variant=variant))
    return result.runtime_cycles, callbacks, resumes


def test_reference_offload_engine_work(monkeypatch):
    """Pin the engine work of the reference offload: a 32-cluster
    extended DAXPY, N = 2048, is 907 cycles in at most 149 scheduler
    callbacks and 103 process resumes (stamped trace records and the
    start-barrier arrival booked at the doorbell take five callbacks
    and one resume per member off the 309 and 135 it took before)."""
    cycles, callbacks, resumes = _daxpy_engine_work(monkeypatch, "extended")
    assert cycles == 907
    assert callbacks <= 149
    assert resumes <= 103


def test_baseline_offload_engine_work(monkeypatch):
    """The same DAXPY on the baseline (AMO completion, polling host) is
    1,220 cycles in at most 885 callbacks and 263 resumes (949 and 295
    before the start-barrier arrival was booked at the doorbell)."""
    cycles, callbacks, resumes = _daxpy_engine_work(monkeypatch, "baseline")
    assert cycles == 1220
    assert callbacks <= 885
    assert resumes <= 263


def test_closed_member_parks_three_times():
    """A member of a plain launch whose job takes the closed-form data
    phase resumes three times per job: at its doorbell (from the
    mailbox), at the fabric release and at its write-back."""
    system = ManticoreSystem(SoCConfig.extended(num_clusters=4))
    offload(system, "daxpy", 256, 4)  # start the DM cores
    resumes = collections.Counter()
    for cluster in system.clusters:
        process = cluster.start()
        send = process._send

        def counting(value, send=send, name=process.name):
            resumes[name] += 1
            return send(value)

        process._send = counting
    offload(system, "daxpy", 256, 4)
    assert system.fastforward_stats()["closed_tails"] == 2
    assert resumes == {f"cluster{index}.dm": 3 for index in range(4)}


def test_stream_engine_work(monkeypatch):
    """Pin a job stream's engine work exactly: the first 20 jobs of
    ``generate_workload(seed=1)`` served by ``run_workload`` with
    verify on, on a 32-cluster extended system, twelve of them
    offloaded 32 wide.  No job builds an ``OffloadTrace``: the stream
    reads only cycles."""
    from repro.workload import (characterize_platform, generate_workload,
                                run_workload)
    monkeypatch.delenv(NAIVE_POLL_ENV, raising=False)
    config = SoCConfig.extended(num_clusters=32)
    kernels = ("daxpy", "memcpy", "scale", "dot")
    policy = characterize_platform(config, kernels)
    jobs = generate_workload(20, kernels=kernels, seed=1)
    built = []
    offload_module = sys.modules["repro.core.offload"]
    build = offload_module.build_offload_trace
    monkeypatch.setattr(offload_module, "build_offload_trace",
                        lambda *args: built.append(args) or build(*args))
    system = ManticoreSystem(config)
    result, callbacks, resumes = _engine_work(
        monkeypatch, system,
        lambda: run_workload(system, jobs, policy, verify=True))
    assert sum(o.cycles for o in result.outcomes) == 8862
    assert [o.placement.num_clusters for o in result.outcomes
            if o.placement.offload] == [32] * 12
    assert (callbacks, resumes) == (1836, 1284)
    assert built == []
    stats = system.fastforward_stats()
    assert stats["closed_tails"] == 12
    assert stats["doorbell_arrivals"] == stats["fabric_arrivals"] == 384


# ----------------------------------------------------------------------
# Invariant 3: pooled reset() recycling == fresh construction
# ----------------------------------------------------------------------
def _pooled_fingerprint(config, n, m, variant):
    """Dirty a pooled system on two points, then measure a third on the
    re-leased instance, so the measured lease follows two recycles
    through ``reset()``."""
    pool = SystemPool()
    with pool.lease(config) as system:
        offload(system, "daxpy", 2 * n, 1, variant=variant)
    with pool.lease(config) as system:
        offload(system, "daxpy", 4 * n, 2, variant=variant)
    with pool.lease(config) as system:
        result = offload(system, "daxpy", n, m, variant=variant)
        fingerprint = _fingerprint(system, result.runtime_cycles)
    return pool, fingerprint


@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS))
def test_pooled_recycle_matches_fresh(n, m, variant):
    config = SoCConfig.extended(num_clusters=4)

    fresh = ManticoreSystem(config)
    result = offload(fresh, "daxpy", n, m, variant=variant)
    print_fresh = _fingerprint(fresh, result.runtime_cycles)

    pool, print_pooled = _pooled_fingerprint(config, n, m, variant)

    # One construction, two recycles: the third lease really is the
    # reused instance...
    assert (pool.builds, pool.hits) == (1, 2)
    # ...and it is indistinguishable from a fresh system.
    assert print_pooled == print_fresh
