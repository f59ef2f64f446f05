"""Unit tests for SoC instance pooling and component reset plumbing."""

import os

import pytest

from repro import flags
from repro.flags import FRESH_SYSTEMS_ENV
from repro.errors import (
    ConfigError,
    OffloadError,
    QuiescenceError,
    SimulationError,
)
from repro.core.offload import offload
from repro.runtime.protocol import OffloadRuntime
from repro.sim import IntegrityWarning
from repro.sim.kernel import Simulator
from repro.sim.resource import SerialResource
from repro.soc.config import SoCConfig, VARIANT_FEATURES
from repro.soc.manticore import ManticoreSystem
from repro.soc.pool import SystemPool

CFG = SoCConfig.baseline(num_clusters=2)


@pytest.fixture(autouse=True)
def _pooling_enabled(monkeypatch):
    """Pool-behaviour tests need pooling on: the CI ``ab-gates`` matrix
    runs the suite with ``REPRO_FRESH_SYSTEMS`` set, which would turn
    every acquire into a build and void the reuse assertions."""
    monkeypatch.delenv(FRESH_SYSTEMS_ENV, raising=False)


def _drain(system):
    """Run a minimal measurement so the system is drained and poolable.

    ``release`` only retains systems whose simulator has drained; a
    never-run system still holds its spawn kick-off events.
    """
    offload(system, "daxpy", 16, 1)


# ----------------------------------------------------------------------
# SystemPool
# ----------------------------------------------------------------------
def test_pool_reuses_one_instance_per_config():
    pool = SystemPool()
    with pool.lease(CFG) as first:
        _drain(first)
    with pool.lease(CFG) as second:
        assert second is first
        _drain(second)
    assert (pool.builds, pool.hits) == (1, 1)


def test_pool_keys_on_config_digest():
    pool = SystemPool()
    other = SoCConfig.baseline(num_clusters=4)
    with pool.lease(CFG) as system:
        _drain(system)
    with pool.lease(other) as system:
        _drain(system)
    assert pool.builds == 2
    assert pool.idle_count == 2
    # Structurally equal config objects share the slot.
    with pool.lease(SoCConfig.baseline(num_clusters=2)) as system:
        assert system.config.num_clusters == 2
    assert pool.hits == 1


def test_pool_never_retains_an_undrained_system(monkeypatch):
    monkeypatch.delenv(flags.STRICT_ENV, raising=False)
    pool = SystemPool()
    with pytest.warns(IntegrityWarning, match="non-quiescent"):
        with pool.lease(CFG) as system:
            assert system.sim.pending   # spawn kick-offs still queued
    assert pool.idle_count == 0
    assert pool.dropped == 1


def test_pool_release_raises_in_strict_mode(monkeypatch):
    monkeypatch.setenv(flags.STRICT_ENV, "1")
    pool = SystemPool()
    system = pool.acquire(CFG)
    assert system.sim.pending
    with pytest.raises(QuiescenceError) as info:
        pool.release(system)
    assert pool.dropped == 1
    # The failing audit rides along for post-mortems.
    assert not info.value.report.ok


def test_pool_discards_instance_on_exception():
    pool = SystemPool()
    with pytest.raises(RuntimeError):
        with pool.lease(CFG) as system:
            _drain(system)
            raise RuntimeError("measurement failed")
    assert pool.idle_count == 0
    with pool.lease(CFG) as system:
        _drain(system)
    assert pool.builds == 2   # the poisoned instance was not reused


def test_pool_max_idle_bounds_retention():
    pool = SystemPool(max_idle=1)
    a = pool.acquire(CFG)
    b = pool.acquire(CFG)
    _drain(a)
    _drain(b)
    pool.release(a)
    pool.release(b)
    assert pool.idle_count == 1
    pool.clear()
    assert pool.idle_count == 0
    with pytest.raises(ValueError):
        SystemPool(max_idle=0)


def test_fresh_systems_env_disables_pooling():
    saved = os.environ.get(FRESH_SYSTEMS_ENV)
    os.environ[FRESH_SYSTEMS_ENV] = "1"
    try:
        pool = SystemPool()
        with pool.lease(CFG) as system:
            _drain(system)
        with pool.lease(CFG) as system:
            _drain(system)
        assert pool.builds == 2
        assert pool.hits == 0
        assert pool.idle_count == 0
    finally:
        if saved is None:
            del os.environ[FRESH_SYSTEMS_ENV]
        else:
            os.environ[FRESH_SYSTEMS_ENV] = saved


# ----------------------------------------------------------------------
# Reset plumbing
# ----------------------------------------------------------------------
def test_simulator_reset_requires_drained_queues():
    sim = Simulator()

    def proc():
        yield 10

    sim.spawn(proc(), name="p")
    with pytest.raises(SimulationError):
        sim.reset()
    sim.run()
    sim.reset()
    assert sim.now == 0


def test_system_reset_restores_measurable_state():
    system = ManticoreSystem(CFG)
    result = offload(system, "daxpy", 32, 2)
    assert system.sim.now > 0
    assert system.noc.transactions
    system.reset()
    assert system.sim.now == 0
    assert system.noc.transactions == []
    assert system.host.retired_operations == 0
    assert system.host.lsu.loads_issued == 0
    assert system.noc.host_port.requests == 0
    assert system.memory.allocated_bytes == 0
    again = offload(system, "daxpy", 32, 2)
    assert again.runtime_cycles == result.runtime_cycles


def test_serial_resource_charge_bulk():
    sim = Simulator()
    port = SerialResource(sim, "port")
    port.charge_bulk(requests=3, busy_cycles=9, next_free=40)
    assert port.requests == 3
    assert port.busy_cycles == 9
    port.charge_bulk(requests=0, busy_cycles=0, next_free=10)  # never rewinds
    assert port.requests == 3
    with pytest.raises(SimulationError):
        port.charge_bulk(requests=-1, busy_cycles=0, next_free=0)
    port.reset()
    assert port.requests == 0
    assert port.busy_cycles == 0


# ----------------------------------------------------------------------
# SoCConfig.for_variant and the mismatch hints
# ----------------------------------------------------------------------
def test_for_variant_sets_feature_flags():
    base = SoCConfig.baseline(num_clusters=2)
    for variant, (multicast, hw_sync) in VARIANT_FEATURES.items():
        derived = base.for_variant(variant)
        assert derived.multicast == multicast, variant
        assert derived.hw_sync == hw_sync, variant
        assert derived.num_clusters == 2
    with pytest.raises(ConfigError):
        base.for_variant("no-such-variant")


def test_mismatched_runtime_hints_at_for_variant():
    system = ManticoreSystem(CFG)
    with pytest.raises(OffloadError, match="for_variant"):
        OffloadRuntime(system, use_multicast=True, use_hw_sync=False)
    with pytest.raises(OffloadError, match="for_variant"):
        OffloadRuntime(system, use_multicast=False, use_hw_sync=True)


def test_config_digest_is_memoized_and_distinct():
    config = SoCConfig.baseline(num_clusters=2)
    assert config.digest() == config.digest()
    assert config.digest() != SoCConfig.extended(num_clusters=2).digest()
