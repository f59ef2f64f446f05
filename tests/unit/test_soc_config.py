"""Unit tests for SoC configuration validation and presets."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.noc.xbar import NocParams
from repro.soc.config import SoCConfig


def test_defaults_validate():
    config = SoCConfig()
    assert config.num_clusters == 32
    assert config.cores_per_cluster == 8
    assert not config.multicast
    assert not config.hw_sync


def test_baseline_preset():
    config = SoCConfig.baseline(num_clusters=16)
    assert config.num_clusters == 16
    assert not config.multicast and not config.hw_sync


def test_extended_preset():
    config = SoCConfig.extended()
    assert config.multicast and config.hw_sync


def test_with_features():
    config = SoCConfig.extended().with_features(multicast=True, hw_sync=False)
    assert config.multicast and not config.hw_sync
    # The original is unchanged (frozen dataclass).
    assert SoCConfig.extended().hw_sync


def test_total_cores_counts_dm_cores():
    # The paper's 32-cluster fabric has 288 cores (9 per cluster).
    assert SoCConfig(num_clusters=32, cores_per_cluster=8).total_cores == 288


def test_positive_fields_validated():
    with pytest.raises(ConfigError):
        SoCConfig(num_clusters=0)
    with pytest.raises(ConfigError):
        SoCConfig(cores_per_cluster=0)
    with pytest.raises(ConfigError):
        SoCConfig(tcdm_bytes=0)
    with pytest.raises(ConfigError):
        SoCConfig(mem_read_width_bytes=0)
    with pytest.raises(ConfigError):
        SoCConfig(noc_store_occupancy=0)


def test_non_negative_fields_validated():
    with pytest.raises(ConfigError):
        SoCConfig(host_setup_cycles=-1)
    with pytest.raises(ConfigError):
        SoCConfig(cluster_wake_latency=-1)
    with pytest.raises(ConfigError):
        SoCConfig(syncunit_irq_latency=-1)


def test_fabric_size_limit():
    with pytest.raises(ConfigError):
        SoCConfig(num_clusters=2048)


def test_noc_params_reflect_features():
    assert SoCConfig.extended().noc_params().multicast_enabled
    assert not SoCConfig.baseline().noc_params().multicast_enabled


def test_noc_params_carry_latencies():
    config = SoCConfig(noc_request_latency=3, noc_store_occupancy=5)
    params = config.noc_params()
    assert params.request_latency == 3
    assert params.store_occupancy == 5


def test_zero_noc_request_latency_is_refused():
    # A request must land at least one cycle after it leaves its port.
    with pytest.raises(ConfigError, match="request_latency must be >= 1"):
        NocParams(request_latency=0).validate()
    with pytest.raises(ConfigError,
                       match="noc_request_latency must be >= 1, got 0"):
        SoCConfig.extended(num_clusters=4, noc_request_latency=0)
    assert SoCConfig.extended(num_clusters=4,
                              noc_request_latency=1).noc_request_latency == 1


def test_describe():
    text = SoCConfig.extended(num_clusters=4).describe()
    assert "4 clusters" in text
    assert "multicast" in text
    assert "baseline" in SoCConfig.baseline().describe()


def test_config_is_frozen():
    config = SoCConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.num_clusters = 5
