"""Property tests: SoC reuse and poll virtualization are bit-identical.

Two timing invariants back the PR-2 throughput work:

1. A pooled/reset :class:`~repro.soc.manticore.ManticoreSystem` measures
   exactly what a freshly constructed one does (``reset()`` restores
   boot state).
2. The virtualized host poll loop (watchpoint fast-forward) charges the
   same cycles, retired operations, loads, and NoC traffic as the naive
   load-by-load loop it replaces.

Both are verified here on randomly sampled grid points and across all
three program shapes (plain, overlapped, concurrent).
"""

import contextlib
import os

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload
from repro.core.overlap import offload_overlapped
from repro.flags import FRESH_SYSTEMS_ENV, NAIVE_POLL_ENV
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
    """Pin pooling and the virtualized poll loop on regardless of
    ambient gates: the CI ``ab-gates`` matrix runs the whole suite with
    each ``REPRO_*`` gate set, and these tests enable the reference
    paths *explicitly* where they A/B them."""
    for name in (NAIVE_POLL_ENV, FRESH_SYSTEMS_ENV):
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
        "transactions": sorted(
            (txn.kind.name, txn.issued_at, txn.source, txn.addresses)
            for txn in noc.transactions),
        "end": system.sim.now,
    }


# ----------------------------------------------------------------------
# Invariant 1: reset()/pool reuse is bit-identical to fresh construction
# ----------------------------------------------------------------------
@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS))
def test_reset_then_measure_matches_fresh(n, m, variant):
    config = SoCConfig.extended(num_clusters=4)

    fresh = ManticoreSystem(config)
    result_fresh = offload(fresh, "daxpy", n, m, variant=variant)
    print_fresh = _fingerprint(fresh, result_fresh.runtime_cycles)

    pool = SystemPool()
    # First lease constructs; run a *different* point on it to dirty the
    # instance, then lease again (reset path) for the measured point.
    with pool.lease(config) as system:
        offload(system, "daxpy", 2 * n, 1, variant=variant)
    with pool.lease(config) as system:
        result_pooled = offload(system, "daxpy", n, m, variant=variant)
        print_pooled = _fingerprint(system, result_pooled.runtime_cycles)

    assert pool.hits == 1 and pool.builds == 1
    assert print_pooled == print_fresh
    assert result_pooled.trace.phase_summary() == \
        result_fresh.trace.phase_summary()


@SETTINGS
@hypothesis.given(points=st.lists(
    st.tuples(st.sampled_from(N_VALUES), st.sampled_from(M_VALUES)),
    min_size=2, max_size=4))
def test_repeated_reuse_is_stable(points):
    """One instance, many resets: every point matches its fresh twin."""
    config = SoCConfig.baseline(num_clusters=4)
    pool = SystemPool()
    for n, m in points:
        with pool.lease(config) as system:
            reused = offload(system, "daxpy", n, m)
        fresh_sys = ManticoreSystem(config)
        fresh = offload(fresh_sys, "daxpy", n, m)
        assert reused.runtime_cycles == fresh.runtime_cycles, (n, m)
    assert pool.builds == 1
    assert pool.hits == len(points) - 1


# ----------------------------------------------------------------------
# Invariant 2: virtualized polling is bit-identical to the naive loop
# ----------------------------------------------------------------------
def _naive_and_fast(run):
    """Run ``run(system) -> runtime`` twice, naive poll then fast path."""
    config = SoCConfig.baseline(num_clusters=4)
    with _env(NAIVE_POLL_ENV, "1"):
        system = ManticoreSystem(config)
        naive = _fingerprint(system, run(system))
    system = ManticoreSystem(config)
    fast = _fingerprint(system, run(system))
    return naive, fast


@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES))
def test_fast_poll_matches_naive_offload(n, m):
    naive, fast = _naive_and_fast(
        lambda system: offload(system, "daxpy", n, m).runtime_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(accel_n=st.sampled_from(N_VALUES),
                  host_n=st.sampled_from([16, 32, 256]))
def test_fast_poll_matches_naive_overlapped(accel_n, host_n):
    naive, fast = _naive_and_fast(
        lambda system: offload_overlapped(
            system, "daxpy", accel_n, 2, "daxpy", host_n).total_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(n_a=st.sampled_from(N_VALUES), n_b=st.sampled_from(N_VALUES))
def test_fast_poll_matches_naive_concurrent(n_a, n_b):
    jobs = (ConcurrentJob(kernel_name="daxpy", n=n_a, num_clusters=2),
            ConcurrentJob(kernel_name="daxpy", n=n_b, num_clusters=2))
    naive, fast = _naive_and_fast(
        lambda system: offload_concurrent(system, jobs).makespan_cycles)
    assert fast == naive


def test_fast_poll_skips_simulated_poll_events():
    """The fast path must actually fast-forward, not just agree.

    On a long run the naive loop resumes the host once per poll
    iteration; the virtualized path resumes it O(1) times.  Compare
    simulator event sequence numbers as a proxy for scheduled events.
    """
    config = SoCConfig.baseline(num_clusters=4)
    with _env(NAIVE_POLL_ENV, "1"):
        system = ManticoreSystem(config)
        naive = offload(system, "daxpy", 8192, 1)
        naive_events = system.sim._sequence
    system = ManticoreSystem(config)
    fast = offload(system, "daxpy", 8192, 1)
    fast_events = system.sim._sequence
    assert fast.runtime_cycles == naive.runtime_cycles
    assert fast_events < naive_events
