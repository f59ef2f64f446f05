"""Unit tests for tile classes, groups and fabric validation.

Includes the PR's bugfix sweep: every way to misconfigure a fabric —
zero tiles in a group, a blown budget, an unknown class name, a rated
class missing a kernel — must raise :class:`ConfigError` naming the
offending group/class at configuration time, not fail deep inside a
simulation.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.kernels import get_kernel
from repro.kernels.base import KernelTiming
from repro.soc.config import SoCConfig
from repro.soc.tiles import (
    DEFAULT_TILE_CLASS,
    SNITCH,
    TILE_CLASSES,
    VECWIDE,
    TileClass,
    TileGroup,
    get_tile_class,
)


# ----------------------------------------------------------------------
# TileClass validation and resolution
# ----------------------------------------------------------------------

def test_default_class_inherits_everything():
    assert SNITCH.is_default
    daxpy = get_kernel("daxpy")
    assert SNITCH.timing_for(daxpy) is daxpy.timing  # the kernel's own


def test_vecwide_is_registered_and_rated():
    assert not VECWIDE.is_default
    timing = VECWIDE.timing_for(get_kernel("daxpy"))
    assert timing == KernelTiming(setup_cycles=40, cpe_num=13, cpe_den=20)
    assert get_tile_class("vecwide") is VECWIDE
    assert DEFAULT_TILE_CLASS in TILE_CLASSES


def test_tile_class_rejects_empty_name():
    with pytest.raises(ConfigError, match="non-empty string"):
        TileClass(name="")


def test_tile_class_rejects_non_positive_structural_fields():
    with pytest.raises(ConfigError, match="cores_per_tile"):
        TileClass(name="bad", cores_per_tile=0)
    with pytest.raises(ConfigError, match="tcdm_bytes"):
        TileClass(name="bad", tcdm_bytes=-1)


def test_tile_class_rejects_negative_latency_and_cost():
    with pytest.raises(ConfigError, match="wake_latency"):
        TileClass(name="bad", wake_latency=-1)
    with pytest.raises(ConfigError, match="tile_power"):
        TileClass(name="bad", tile_power=-0.5)
    with pytest.raises(ConfigError, match="area_mm2"):
        TileClass(name="bad", area_mm2=-1.0)


def test_tile_class_rejects_malformed_rate_entries():
    with pytest.raises(ConfigError, match="malformed kernel rate"):
        TileClass(name="bad", kernel_rates=(("daxpy", (1, 2)),))
    with pytest.raises(ConfigError, match="duplicate kernel rate"):
        TileClass(name="bad", kernel_rates=(("daxpy", (0, 1, 1)),
                                            ("daxpy", (0, 2, 1))))
    with pytest.raises(ConfigError, match="invalid rate"):
        TileClass(name="bad", kernel_rates=(("daxpy", (0, 0, 1)),))


def test_resolve_tile_fills_inherited_fields_from_config():
    config = SoCConfig.extended(num_clusters=4)
    resolved = config.resolve_tile(SNITCH)
    assert resolved.cores_per_tile == config.cores_per_cluster
    assert resolved.dma_setup_cycles == config.dma_setup_cycles
    override = config.resolve_tile(TileClass(name="x", cores_per_tile=3))
    assert override.cores_per_tile == 3
    assert override.tcdm_bytes == config.tcdm_bytes


# ----------------------------------------------------------------------
# Bugfix sweep: misconfigured fabrics fail loudly at config time
# ----------------------------------------------------------------------

def test_zero_tile_group_names_the_group():
    with pytest.raises(ConfigError, match=r"'empty' \(class 'snitch'\)"):
        TileGroup(name="empty", tile=SNITCH, count=0)


def test_unknown_tile_class_name_lists_available():
    with pytest.raises(ConfigError,
                       match="unknown tile class 'bigcore'.*snitch"):
        TileGroup(name="g", tile="bigcore", count=2)


def test_area_budget_exceeded_names_largest_contributor():
    groups = [TileGroup(name="little", tile=SNITCH, count=2),
              TileGroup(name="big", tile=VECWIDE, count=2)]
    with pytest.raises(ConfigError,
                       match=r"area_budget_mm2.*largest contributor is "
                             r"group 'big' \(class 'vecwide'"):
        SoCConfig.with_fabric(groups, area_budget_mm2=5.0)


def test_power_budget_exceeded_names_largest_contributor():
    groups = [TileGroup(name="only", tile=VECWIDE, count=4)]
    with pytest.raises(ConfigError,
                       match=r"power_budget_mw.*group 'only'"):
        SoCConfig.with_fabric(groups, power_budget_mw=100.0)


def test_budget_applies_to_the_implicit_homogeneous_group():
    with pytest.raises(ConfigError, match="area_budget_mm2"):
        SoCConfig.extended(num_clusters=8, area_budget_mm2=4.0)
    SoCConfig.extended(num_clusters=4, area_budget_mm2=4.0)  # exact fit ok


def test_missing_kernel_rate_raises_before_simulation():
    from repro.core.offload import offload
    from repro.soc.manticore import ManticoreSystem

    gappy = dataclasses.replace(VECWIDE, name="gappy",
                                kernel_rates=VECWIDE.kernel_rates[:1])
    config = SoCConfig.with_fabric(
        [TileGroup(name="g", tile=gappy, count=2)],
        multicast=True, hw_sync=True)
    with pytest.raises(ConfigError, match="'gappy' has no compute rate "
                                          "for kernel 'daxpy'"):
        offload(ManticoreSystem(config), "daxpy", 64, 2, tile_group="g")


def test_fabric_counts_must_sum_to_num_clusters():
    with pytest.raises(ConfigError, match="must sum to the cluster count"):
        SoCConfig(num_clusters=8,
                  fabric=(TileGroup(name="g", tile=SNITCH, count=4),))


def test_with_fabric_rejects_explicit_num_clusters_and_empty():
    with pytest.raises(ConfigError, match="derives num_clusters"):
        SoCConfig.with_fabric([TileGroup(name="g", tile=SNITCH, count=2)],
                              num_clusters=2)
    with pytest.raises(ConfigError, match="at least one tile group"):
        SoCConfig.with_fabric([])


def test_duplicate_group_name_rejected():
    with pytest.raises(ConfigError, match="duplicate tile group name"):
        SoCConfig.with_fabric([TileGroup(name="g", tile=SNITCH, count=2),
                               TileGroup(name="g", tile=SNITCH, count=2)])


# ----------------------------------------------------------------------
# Fabric resolution: spans, lookups, mixed-span detection
# ----------------------------------------------------------------------

def test_groups_place_contiguous_spans():
    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=3),
         TileGroup(name="big", tile=VECWIDE, count=2)])
    little, big = config.groups()
    assert (little.start, little.count) == (0, 3)
    assert (big.start, big.count) == (3, 2)
    assert config.tile_group("big").tile.class_name == "vecwide"
    with pytest.raises(ConfigError,
                       match="unknown tile group 'huge'.*little, big"):
        config.tile_group("huge")


def test_span_tile_detects_mixed_spans():
    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=2),
         TileGroup(name="big", tile=VECWIDE, count=2)])
    assert config.span_tile(0, 2).class_name == "snitch"
    assert config.span_tile(2, 2).class_name == "vecwide"
    assert config.span_tile(0, 4) is None  # crosses classes
    with pytest.raises(ConfigError, match="invalid cluster span"):
        config.span_tile(3, 4)


def per_cluster_span(config, first, count):
    """Span queries answered one ``tile_of`` lookup per cluster."""
    tiles = [config.tile_of(cluster) for cluster in range(first, first + count)]
    return (min(tile.tcdm_bytes for tile in tiles),
            tiles[0] if len(set(tiles)) == 1 else None)


def test_span_queries_walk_groups_on_a_mixed_fabric():
    small = TileClass(name="small", tcdm_bytes=32 * 1024)
    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=3),
         TileGroup(name="small", tile=small, count=2),
         TileGroup(name="big", tile=VECWIDE, count=3)])
    assert config.min_tcdm_bytes(0, 8) == 32 * 1024
    assert config.min_tcdm_bytes(4, 1) == 32 * 1024
    assert config.span_tile(3, 2).class_name == "small"
    for first in range(8):
        for count in range(1, 9 - first):
            assert (config.min_tcdm_bytes(first, count),
                    config.span_tile(first, count)) == per_cluster_span(
                        config, first, count)
    for first, count in ((0, 0), (-1, 2), (7, 2), (0, 9)):
        for query in (config.min_tcdm_bytes, config.span_tile):
            with pytest.raises(
                    ConfigError,
                    match=rf"invalid cluster span \[{first}, "
                          rf"{first + count}\) in a 8-cluster fabric"):
                query(first, count)


def per_cluster_fabric(config):
    """``config`` rebuilt as one single-tile default-class group per
    cluster: timing-identical to its implicit fabric-wide group."""
    return SoCConfig.with_fabric(
        [TileGroup(f"tile{index}", SNITCH, 1)
         for index in range(config.num_clusters)],
        multicast=config.multicast, hw_sync=config.hw_sync)


def test_span_queries_agree_under_explicit_fabric():
    config = SoCConfig.extended(num_clusters=6)
    implicit = [(config.min_tcdm_bytes(first, count),
                 config.span_tile(first, count))
                for first in range(6) for count in range(1, 7 - first)]
    fabric = per_cluster_fabric(config)
    explicit = [(fabric.min_tcdm_bytes(first, count),
                 fabric.span_tile(first, count))
                for first in range(6) for count in range(1, 7 - first)]
    assert explicit == implicit
    assert explicit == [per_cluster_span(config, first, count)
                        for first in range(6) for count in range(1, 7 - first)]


def test_homogeneous_config_resolves_to_one_implicit_group():
    config = SoCConfig.extended(num_clusters=4)
    (group,) = config.groups()
    assert group.count == 4 and group.start == 0
    assert group.tile.class_name == DEFAULT_TILE_CLASS
    # the same fabric declared per cluster resolves to per-cluster groups
    explicit = per_cluster_fabric(config).groups()
    assert len(explicit) == 4
    assert [g.start for g in explicit] == [0, 1, 2, 3]
    assert all(g.count == 1 and g.tile.class_name == DEFAULT_TILE_CLASS
               for g in explicit)
