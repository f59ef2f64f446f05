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
occupancy, and the NoC transaction log.
"""

import contextlib
import os

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload
from repro.core.overlap import offload_overlapped
from repro.flags import (
    FRESH_SYSTEMS_ENV,
    NAIVE_BARRIER_ENV,
    NAIVE_CHANNEL_ENV,
)
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


def _naive_and_fast(gate, run):
    """Run ``run(system) -> runtime`` twice: ``gate`` enabled, then the
    fast-forward path; returns both fingerprints."""
    config = SoCConfig.extended(num_clusters=4)
    with _env(gate, "1"):
        system = ManticoreSystem(config)
        naive = _fingerprint(system, run(system))
    system = ManticoreSystem(config)
    fast = _fingerprint(system, run(system))
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
    engagement counters on the fast side.
    """
    config = SoCConfig.baseline(num_clusters=4)
    with _env(NAIVE_CHANNEL_ENV, "1"), _env(NAIVE_BARRIER_ENV, "1"):
        system = ManticoreSystem(config)
        naive = offload(system, "daxpy", 4096, 4)
        naive_events = system.sim._sequence
        naive_stats = system.fastforward_stats()
    system = ManticoreSystem(config)
    fast = offload(system, "daxpy", 4096, 4)
    fast_events = system.sim._sequence
    fast_stats = system.fastforward_stats()

    assert fast.runtime_cycles == naive.runtime_cycles
    assert fast_events < naive_events
    assert naive_stats["dma_transfers"] == 0
    assert naive_stats["compute_phases"] == 0
    assert fast_stats["dma_transfers"] > 0
    assert fast_stats["dma_fallbacks"] == 0
    assert fast_stats["compute_phases"] > 0
    assert fast_stats["barrier_crossings"] == fast_stats["compute_phases"]
    assert fast_stats["fabric_arrivals"] == 4


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
