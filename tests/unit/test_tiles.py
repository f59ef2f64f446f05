"""Unit tests for tile classes, groups and fabric validation.

Includes the PR's bugfix sweep: every way to misconfigure a fabric —
zero tiles in a group, a blown budget, an unknown class name, a rated
class missing a kernel — must raise :class:`ConfigError` naming the
offending group/class at configuration time, not fail deep inside a
simulation.
"""

import dataclasses

import pytest

from repro.errors import ConfigError, OffloadError
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


# ----------------------------------------------------------------------
# An offload's cluster span is checked before any simulation
# ----------------------------------------------------------------------

def gappy_fabric():
    """Two default tiles ("a"), then two tiles ("b") of a class that
    rates daxpy only."""
    gappy = dataclasses.replace(VECWIDE, name="gappy",
                                kernel_rates=(("daxpy", (40, 13, 20)),))
    return SoCConfig.with_fabric(
        [TileGroup(name="a", tile=SNITCH, count=2),
         TileGroup(name="b", tile=gappy, count=2)],
        multicast=True, hw_sync=True)


@pytest.fixture()
def no_simulation(monkeypatch):
    """Make any event-engine run fail the test."""
    from repro.sim import Simulator

    def refuse(self, *args, **kwargs):
        raise AssertionError("the event engine ran")

    monkeypatch.setattr(Simulator, "run", refuse)


def _offload_memcpy(system):
    from repro.core.offload import offload
    offload(system, "memcpy", 256, 4)


def _offload_concurrent_memcpy(system):
    from repro.core.concurrent import ConcurrentJob, offload_concurrent
    offload_concurrent(system, [ConcurrentJob("memcpy", 128, 2),
                                ConcurrentJob("memcpy", 128, 2)])


@pytest.mark.parametrize("launch", [_offload_memcpy,
                                    _offload_concurrent_memcpy])
def test_unrated_tile_in_an_ungrouped_span_fails_at_cycle_zero(
        launch, no_simulation):
    """Without ``tile_group=`` the job spans clusters [0, M); a tile in
    that span without a rate for the kernel must fail like a grouped
    job does: a ConfigError naming class and kernel, before cycle 1."""
    from repro.soc.manticore import ManticoreSystem

    system = ManticoreSystem(gappy_fabric())
    with pytest.raises(ConfigError, match="'gappy' has no compute rate "
                                          "for kernel 'memcpy'"):
        launch(system)
    assert system.sim.now == 0
    assert len(system.trace) == 0


def test_unrated_tile_in_a_sweep_span_fails_before_simulation(
        no_simulation):
    from repro.core.sweep import sweep

    with pytest.raises(ConfigError, match="'gappy' has no compute rate "
                                          "for kernel 'memcpy'"):
        sweep(gappy_fabric(), "memcpy", [256], [1, 2, 3, 4])


def test_offload_wider_than_its_tile_group_fails_before_simulation(
        no_simulation):
    from repro.core.offload import offload
    from repro.soc.manticore import ManticoreSystem

    system = ManticoreSystem(gappy_fabric())
    with pytest.raises(OffloadError, match="3 clusters in tile group 'a'"):
        offload(system, "daxpy", 64, 3, tile_group="a")
    assert system.sim.now == 0
    assert len(system.trace) == 0


@pytest.mark.parametrize("tile_group, m, where", [
    ("b", 3, "tile group 'b'"),
    (None, 5, "fabric"),
])
def test_sweep_wider_than_its_span_fails_before_simulation(
        tile_group, m, where, no_simulation):
    from repro.core.sweep import sweep

    with pytest.raises(OffloadError, match=where):
        sweep(gappy_fabric(), "daxpy", [64], [1, m],
              tile_group=tile_group)


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


def span_query(config, first, count):
    span = config.cluster_span(count, first_cluster=first)
    return (span.tcdm_bytes, span.tile)


def test_span_tile_detects_mixed_spans():
    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=2),
         TileGroup(name="big", tile=VECWIDE, count=2)])
    assert config.cluster_span(2).tile.class_name == "snitch"
    assert config.cluster_span(2, first_cluster=2).tile.class_name \
        == "vecwide"
    assert config.cluster_span(2, "big").tile.class_name == "vecwide"
    assert config.cluster_span(4).tile is None  # crosses classes
    with pytest.raises(OffloadError, match=r"\[3, 7\) on a 4-cluster"):
        config.cluster_span(4, first_cluster=3)


def per_cluster_span(config, first, count):
    """Span queries answered one group lookup per cluster."""
    tiles = [group.tile for cluster in range(first, first + count)
             for group in config.groups()
             if group.start <= cluster < group.start + group.count]
    assert len(tiles) == count
    return (min(tile.tcdm_bytes for tile in tiles),
            tiles[0] if len(set(tiles)) == 1 else None)


def test_span_queries_walk_groups_on_a_mixed_fabric():
    small = TileClass(name="small", tcdm_bytes=32 * 1024)
    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=3),
         TileGroup(name="small", tile=small, count=2),
         TileGroup(name="big", tile=VECWIDE, count=3)])
    assert config.cluster_span(8).tcdm_bytes == 32 * 1024
    assert config.cluster_span(1, first_cluster=4).tcdm_bytes == 32 * 1024
    assert config.cluster_span(2, first_cluster=3).tile.class_name \
        == "small"
    for first in range(8):
        for count in range(1, 9 - first):
            assert span_query(config, first, count) == per_cluster_span(
                config, first, count)
    for first, count in ((0, 0), (-1, 2), (7, 2), (0, 9)):
        with pytest.raises(
                OffloadError,
                match=rf"cannot offload to {count} clusters \[{first}, "
                      rf"{first + count}\) on a 8-cluster fabric"):
            config.cluster_span(count, first_cluster=first)


def per_cluster_fabric(config):
    """``config`` rebuilt as one single-tile default-class group per
    cluster: timing-identical to its implicit fabric-wide group."""
    return SoCConfig.with_fabric(
        [TileGroup(f"tile{index}", SNITCH, 1)
         for index in range(config.num_clusters)],
        multicast=config.multicast, hw_sync=config.hw_sync)


def test_span_queries_agree_under_explicit_fabric():
    config = SoCConfig.extended(num_clusters=6)
    implicit = [span_query(config, first, count)
                for first in range(6) for count in range(1, 7 - first)]
    fabric = per_cluster_fabric(config)
    explicit = [span_query(fabric, first, count)
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
