"""SoC configuration: every microarchitectural knob in one place.

The defaults are calibrated so the simulated system's *emergent*
behaviour reproduces the paper's published constants (Eq. 1's offload
overhead near 367 cycles for the extended design, DAXPY's 2.6
cycles/element/core rate, the 64 B/cycle shared memory channel behind
the N/4 term) — see ``tests/integration/test_calibration.py``, which
pins these emergent values.

Two boolean *features* select the paper's hardware variants:

``multicast``
    The host LSU + interconnect replicate one dispatch store to all
    selected clusters (Fig. 1's "w/ extensions" dispatch).
``hw_sync``
    Clusters signal completion to the credit-counter sync unit, which
    interrupts the host, instead of AMO-and-poll.

``SoCConfig.baseline()`` and ``SoCConfig.extended()`` are the two
configurations Fig. 1 compares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

from repro.errors import ConfigError, OffloadError
from repro.kernels.base import Kernel
from repro.noc.xbar import NocParams, check_request_latency
from repro.soc.tiles import (
    INHERITED_FIELDS,
    ClusterSpan,
    ResolvedGroup,
    ResolvedTile,
    SNITCH,
    TileClass,
    TileGroup,
)

#: Name of the implicit group a config with no declared fabric resolves
#: to: one default-class group spanning every cluster.
IMPLICIT_GROUP_NAME = "clusters"


@dataclasses.dataclass(frozen=True)
class SoCConfig:
    """Complete parameterization of a Manticore-class MPSoC."""

    # ------------------------------------------------------------------
    # System shape
    # ------------------------------------------------------------------
    #: Number of compute clusters in the accelerator fabric (the paper
    #: evaluates up to 32 clusters = 288 cores incl. DM cores).
    num_clusters: int = 32
    #: Worker cores per cluster (plus one DM core = the paper's 9).
    cores_per_cluster: int = 8
    #: Per-cluster scratchpad capacity.
    tcdm_bytes: int = 128 * 1024
    #: TCDM SRAM banks per cluster.
    tcdm_banks: int = 32
    #: Shared main-memory capacity.
    main_memory_bytes: int = 32 * 1024 * 1024

    # ------------------------------------------------------------------
    # Features (the paper's extensions)
    # ------------------------------------------------------------------
    #: Multicast dispatch in the host LSU + interconnect.
    multicast: bool = False
    #: Credit-counter synchronization unit + completion interrupt.
    hw_sync: bool = False

    # ------------------------------------------------------------------
    # Shared memory data channels
    # ------------------------------------------------------------------
    #: Read-channel width in bytes/cycle (64 → DAXPY's N/4 inbound term).
    mem_read_width_bytes: int = 64
    #: Write-channel width in bytes/cycle.
    mem_write_width_bytes: int = 64

    # ------------------------------------------------------------------
    # Control interconnect
    # ------------------------------------------------------------------
    noc_request_latency: int = 8
    noc_response_latency: int = 8
    #: Host-port occupancy per store: the per-cluster dispatch cost in
    #: the baseline's sequential doorbell loop.
    noc_store_occupancy: int = 8
    noc_load_occupancy: int = 2
    noc_cluster_port_occupancy: int = 1
    noc_multicast_tree_latency: int = 3
    noc_amo_service_cycles: int = 2

    # ------------------------------------------------------------------
    # Host core
    # ------------------------------------------------------------------
    #: Runtime-entry bookkeeping before the first descriptor store.
    host_setup_cycles: int = 58
    #: Address computation per doorbell iteration (baseline loop body).
    host_addr_calc_cycles: int = 2
    #: Compare-and-branch work between completion-flag polls.
    host_poll_gap_cycles: int = 4
    #: Pipeline restart after WFI.
    host_wfi_wake_latency: int = 8

    # ------------------------------------------------------------------
    # Credit-counter sync unit
    # ------------------------------------------------------------------
    #: Threshold-match to interrupt-wire assertion.
    syncunit_irq_latency: int = 4

    # ------------------------------------------------------------------
    # Fabric start barrier (multi-cluster job synchronization)
    # ------------------------------------------------------------------
    #: DM-core arrival to the central barrier counter.
    fabric_barrier_arrival_latency: int = 8
    #: Release wave from the counter back to the clusters.
    fabric_barrier_release_latency: int = 8

    # ------------------------------------------------------------------
    # Cluster
    # ------------------------------------------------------------------
    cluster_wake_latency: int = 10
    dm_decode_cycles: int = 20
    dma_setup_cycles: int = 16
    barrier_latency: int = 2
    worker_wake_latency: int = 2

    # ------------------------------------------------------------------
    # Fabric composition (heterogeneous tile groups)
    # ------------------------------------------------------------------
    #: Named groups of identical tiles, in cluster-id order; their
    #: counts must sum to ``num_clusters``.  Empty means the legacy
    #: homogeneous fabric: one implicit group of the default Snitch
    #: class spanning every cluster (see :meth:`groups`).
    fabric: typing.Tuple[TileGroup, ...] = ()
    #: Optional silicon-area budget (mm^2) the composed fabric must fit.
    area_budget_mm2: typing.Optional[float] = None
    #: Optional power budget (mW) the composed fabric must fit.
    power_budget_mw: typing.Optional[float] = None

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, num_clusters: int = 32, **overrides) -> "SoCConfig":
        """The unextended design: sequential dispatch, AMO-and-poll."""
        return cls(num_clusters=num_clusters, multicast=False, hw_sync=False,
                   **overrides)

    @classmethod
    def extended(cls, num_clusters: int = 32, **overrides) -> "SoCConfig":
        """The paper's design: multicast dispatch + sync-unit interrupt."""
        return cls(num_clusters=num_clusters, multicast=True, hw_sync=True,
                   **overrides)

    @classmethod
    def with_fabric(cls, groups: typing.Iterable[TileGroup],
                    **overrides) -> "SoCConfig":
        """A config composed from tile groups.

        ``num_clusters`` is derived from the group counts, so callers
        declare *what* the fabric is made of and the shape follows.
        Feature and budget knobs pass through ``overrides``.
        """
        fabric = tuple(groups)
        if "num_clusters" in overrides:
            raise ConfigError(
                "with_fabric derives num_clusters from the group counts; "
                "do not pass it explicitly")
        if not fabric:
            raise ConfigError("with_fabric needs at least one tile group")
        total = sum(group.count for group in fabric
                    if isinstance(group, TileGroup))
        return cls(num_clusters=total, fabric=fabric, **overrides)

    def with_features(self, multicast: bool, hw_sync: bool) -> "SoCConfig":
        """Copy of this config with the feature pair replaced (ablation)."""
        return dataclasses.replace(self, multicast=multicast, hw_sync=hw_sync)

    def for_variant(self, variant: str) -> "SoCConfig":
        """Copy of this config with the hardware a runtime variant needs.

        Saves callers hand-rolling ``dataclasses.replace(cfg,
        multicast=..., hw_sync=...)`` per variant and keeps the
        name → feature mapping in one place: the variant registry
        (:func:`repro.runtime.strategies.variant_features`).

        Raises
        ------
        ConfigError
            On unknown variant names.
        """
        # Function-level import: the runtime layer sits above soc.
        from repro.runtime.strategies import variant_features

        features = variant_features()
        try:
            multicast, hw_sync = features[variant]
        except KeyError:
            raise ConfigError(
                f"unknown runtime variant {variant!r}; available: "
                f"{', '.join(sorted(features))}"
            ) from None
        return self.with_features(multicast=multicast, hw_sync=hw_sync)

    # ------------------------------------------------------------------
    # Validation & derived values
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        positive = {
            "num_clusters": self.num_clusters,
            "cores_per_cluster": self.cores_per_cluster,
            "tcdm_bytes": self.tcdm_bytes,
            "tcdm_banks": self.tcdm_banks,
            "main_memory_bytes": self.main_memory_bytes,
            "mem_read_width_bytes": self.mem_read_width_bytes,
            "mem_write_width_bytes": self.mem_write_width_bytes,
            "noc_store_occupancy": self.noc_store_occupancy,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"SoCConfig.{name} must be positive, got {value}")
        check_request_latency("SoCConfig.noc_request_latency",
                              self.noc_request_latency)
        non_negative = {
            "noc_response_latency": self.noc_response_latency,
            "noc_load_occupancy": self.noc_load_occupancy,
            "noc_cluster_port_occupancy": self.noc_cluster_port_occupancy,
            "noc_multicast_tree_latency": self.noc_multicast_tree_latency,
            "noc_amo_service_cycles": self.noc_amo_service_cycles,
            "host_setup_cycles": self.host_setup_cycles,
            "host_addr_calc_cycles": self.host_addr_calc_cycles,
            "host_poll_gap_cycles": self.host_poll_gap_cycles,
            "host_wfi_wake_latency": self.host_wfi_wake_latency,
            "syncunit_irq_latency": self.syncunit_irq_latency,
            "fabric_barrier_arrival_latency": self.fabric_barrier_arrival_latency,
            "fabric_barrier_release_latency": self.fabric_barrier_release_latency,
            "cluster_wake_latency": self.cluster_wake_latency,
            "dm_decode_cycles": self.dm_decode_cycles,
            "dma_setup_cycles": self.dma_setup_cycles,
            "barrier_latency": self.barrier_latency,
            "worker_wake_latency": self.worker_wake_latency,
        }
        for name, value in non_negative.items():
            if value < 0:
                raise ConfigError(f"SoCConfig.{name} must be >= 0, got {value}")
        if self.num_clusters > 1024:
            raise ConfigError(
                f"num_clusters={self.num_clusters} exceeds the modeled "
                "fabric limit (1024)")
        if not isinstance(self.fabric, tuple):
            object.__setattr__(self, "fabric", tuple(self.fabric))
        self._check_fabric()

    def _check_fabric(self) -> None:
        """Fabric-composition validation: structure first, then budgets.

        Misconfigured fabrics must fail here — at configuration time,
        naming the offending group/class — never deep inside a
        simulation.
        """
        seen: typing.Set[str] = set()
        for group in self.fabric:
            if not isinstance(group, TileGroup):
                raise ConfigError(
                    f"SoCConfig.fabric entries must be TileGroup instances, "
                    f"got {group!r}")
            if group.name in seen:
                raise ConfigError(
                    f"duplicate tile group name {group.name!r} in fabric")
            seen.add(group.name)
        if self.fabric:
            total_tiles = sum(group.count for group in self.fabric)
            if total_tiles != self.num_clusters:
                detail = " + ".join(
                    f"{group.name}:{group.count}" for group in self.fabric)
                raise ConfigError(
                    f"fabric declares {total_tiles} tiles ({detail}) but "
                    f"num_clusters={self.num_clusters}; the group counts "
                    "must sum to the cluster count")
        entries = ([(group.name, group.tile) for group in self.fabric]
                   or [(IMPLICIT_GROUP_NAME, SNITCH)])
        counts = ([group.count for group in self.fabric]
                  or [self.num_clusters])
        if self.area_budget_mm2 is not None:
            self._check_budget(
                "area_budget_mm2", self.area_budget_mm2, "mm^2", entries,
                counts, lambda tile: tile.area_mm2)
        if self.power_budget_mw is not None:
            self._check_budget(
                "power_budget_mw", self.power_budget_mw, "mW", entries,
                counts, lambda tile: tile.tile_power)

    @staticmethod
    def _check_budget(budget_name: str, budget: float, unit: str,
                      entries: typing.List[typing.Tuple[str, TileClass]],
                      counts: typing.List[int],
                      cost: typing.Callable[[TileClass], float]) -> None:
        """Lumos-style composition check: sum of per-tile costs vs budget."""
        if budget < 0:
            raise ConfigError(
                f"SoCConfig.{budget_name} must be >= 0, got {budget}")
        per_group = [(name, tile, count, count * cost(tile))
                     for (name, tile), count in zip(entries, counts)]
        total = sum(subtotal for _n, _t, _c, subtotal in per_group)
        if total > budget:
            worst = max(per_group, key=lambda item: item[3])
            raise ConfigError(
                f"fabric exceeds {budget_name}: total {total:g} {unit} > "
                f"budget {budget:g} {unit}; largest contributor is group "
                f"{worst[0]!r} (class {worst[1].name!r}, {worst[2]} tiles, "
                f"{worst[3]:g} {unit})")

    # ------------------------------------------------------------------
    # Fabric resolution
    # ------------------------------------------------------------------
    def resolve_tile(self, tile: TileClass) -> ResolvedTile:
        """Fill every ``None`` (inherited) field from this config's knobs."""
        values = {
            field: (getattr(self, knob) if getattr(tile, field) is None
                    else getattr(tile, field))
            for field, knob in INHERITED_FIELDS.items()
        }
        return ResolvedTile(
            class_name=tile.name, kernel_rates=tile.kernel_rates,
            tile_power=tile.tile_power, area_mm2=tile.area_mm2, **values)

    def groups(self) -> typing.Tuple[ResolvedGroup, ...]:
        """The fabric as resolved groups with placed cluster-id spans.

        A config with no declared fabric resolves to one implicit
        group (:data:`IMPLICIT_GROUP_NAME`) of the default class
        spanning every cluster.

        Memoized: resolution is pure given the frozen config.
        """
        resolved = getattr(self, "_groups_cache", None)
        if resolved is not None:
            return resolved
        if self.fabric:
            groups = []
            start = 0
            for group in self.fabric:
                groups.append(ResolvedGroup(
                    name=group.name, tile=self.resolve_tile(group.tile),
                    count=group.count, start=start))
                start += group.count
            resolved = tuple(groups)
        else:
            resolved = (ResolvedGroup(
                name=IMPLICIT_GROUP_NAME, tile=self.resolve_tile(SNITCH),
                count=self.num_clusters, start=0),)
        object.__setattr__(self, "_groups_cache", resolved)
        return resolved

    def tile_group(self, name: str) -> ResolvedGroup:
        """The resolved group called ``name``.

        Raises
        ------
        ConfigError
            On unknown group names, listing what the fabric declares.
        """
        groups = self.groups()
        for group in groups:
            if group.name == name:
                return group
        raise ConfigError(
            f"unknown tile group {name!r}; this fabric has: "
            f"{', '.join(group.name for group in groups)}")

    def cluster_span(self, num_clusters: typing.Optional[int] = None,
                     tile_group: typing.Optional[str] = None,
                     first_cluster: int = 0,
                     kernel: typing.Optional[Kernel] = None) -> ClusterSpan:
        """The clusters an M-wide job occupies, checked before any run.

        With ``tile_group`` the job starts at that group's first
        cluster and M is bounded by the group's tile count; without,
        it starts at ``first_cluster`` and must stay inside the fabric.
        ``num_clusters=None`` takes everything up to that bound.  With
        ``kernel``, every tile in the span must rate it.  The tiles
        come from one pass over the groups, not one lookup per cluster.

        Raises
        ------
        OffloadError
            If M is not positive or the span does not fit.
        ConfigError
            On an unknown group name, or a tile in the span without a
            compute rate for ``kernel`` (naming class and kernel).
        """
        if tile_group is not None:
            group = self.tile_group(tile_group)
            if num_clusters is None:
                num_clusters = group.count
            if not 0 < num_clusters <= group.count:
                raise OffloadError(
                    f"cannot offload to {num_clusters} clusters in tile "
                    f"group {tile_group!r}, which has {group.count} "
                    f"{group.tile.class_name!r} tiles")
            first_cluster = group.start
        elif num_clusters is None:
            num_clusters = self.num_clusters - first_cluster
        end = first_cluster + num_clusters
        if num_clusters < 1 or first_cluster < 0 or end > self.num_clusters:
            raise OffloadError(
                f"cannot offload to {num_clusters} clusters "
                f"[{first_cluster}, {end}) on a {self.num_clusters}-cluster "
                "fabric")
        tiles = tuple(group.tile for group in self.groups()
                      if group.start < end
                      and first_cluster < group.start + group.count)
        if kernel is not None:
            for tile in tiles:
                tile.timing_for(kernel)
        return ClusterSpan(first=first_cluster, count=num_clusters,
                           tiles=tiles)

    @property
    def total_cores(self) -> int:
        """All cores in the fabric, DM cores included (paper: 9/cluster)."""
        return self.num_clusters * (self.cores_per_cluster + 1)

    def noc_params(self) -> NocParams:
        """The interconnect's view of this configuration."""
        return NocParams(
            request_latency=self.noc_request_latency,
            response_latency=self.noc_response_latency,
            store_occupancy=self.noc_store_occupancy,
            load_occupancy=self.noc_load_occupancy,
            cluster_port_occupancy=self.noc_cluster_port_occupancy,
            multicast_enabled=self.multicast,
            multicast_tree_latency=self.noc_multicast_tree_latency,
            amo_service_cycles=self.noc_amo_service_cycles,
        )

    def digest(self) -> str:
        """Stable content hash of every knob in this configuration.

        Two configs share a digest iff every field is equal, so the
        digest is a safe cache key component: any microarchitectural
        change (and therefore any change in simulated timing) changes
        it.  Fields are serialized by name, so reordering the dataclass
        does not invalidate caches — but adding a knob does, which is
        exactly right because a new knob means new timing behaviour.

        Memoized: the config is frozen, and pooled sweep execution
        digests the same instance once per grid point.
        """
        cached = getattr(self, "_digest_cache", None)
        if cached is None:
            fields = dataclasses.asdict(self)
            text = ",".join(
                f"{name}={fields[name]!r}" for name in sorted(fields))
            cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest_cache", cached)
        return cached

    def describe(self) -> str:
        """One-line human-readable summary."""
        features = []
        if self.multicast:
            features.append("multicast")
        if self.hw_sync:
            features.append("hw-sync")
        suffix = "+".join(features) if features else "baseline"
        base = (f"{self.num_clusters} clusters x "
                f"{self.cores_per_cluster}+1 cores, {suffix}")
        if self.fabric:
            composition = " + ".join(
                f"{group.name}:{group.tile.name}x{group.count}"
                for group in self.fabric)
            base += f" [{composition}]"
        return base
