"""Tile classes: declarative specs of heterogeneous compute tiles.

The paper derives its model (Eq. 1) for a homogeneous fabric of Snitch
clusters, but nothing in the offload pipeline — dispatch, DMA-in,
compute, DMA-out, completion — is Snitch-specific.  A
:class:`TileClass` captures what *does* differ between accelerator
classes:

- **Timing**: worker count, dispatch/decode/wake latencies, barrier
  cost, DMA setup, and per-kernel compute rates (cycles per unit of
  the kernel's work — an element, or a MAC for GEMV — as a
  :class:`~repro.kernels.base.KernelTiming` rational).
- **Cost**: per-tile silicon area and power, which the fabric-level
  budget validation (:class:`~repro.soc.config.SoCConfig`) and the
  fabric-selection decision (:func:`repro.core.decision.choose_fabric`)
  trade off against runtime.

Every field except ``name`` is optional: ``None`` means *inherit the
SoC-level cluster knob*, so the default :data:`SNITCH` class — all
fields ``None``, no kernel-rate overrides — resolves to exactly the
homogeneous cluster the rest of the codebase has always simulated.
That inheritance is what keeps the golden cycle-identity suite exact:
a fabric of default-class groups is bit-for-bit the legacy SoC.

An empty ``kernel_rates`` tuple means "use each kernel's own timing"
(the Snitch rates baked into the kernel classes); a non-empty tuple is
a complete rate table and a kernel missing from it raises
:class:`~repro.errors.ConfigError` naming the class and kernel —
misconfigured fabrics must fail at configuration time, not deep inside
a simulation.  Either way :meth:`TileClass.timing_for` returns one
:class:`~repro.kernels.base.KernelTiming`, and every caller charges it
on the kernel's declared work, ``timing.cycles(kernel.work(e, n))``.

This module sits at the bottom of the ``soc`` layer: it may import
only :mod:`repro.errors` and :mod:`repro.kernels.base` (enforced by
``tools/check_imports.py``), so cluster/soc/core layers can all build
on it without cycles.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import ConfigError
from repro.kernels.base import Kernel, KernelTiming

#: Rate-table entry: ``(kernel_name, (setup_cycles, cpe_num, cpe_den))``.
#: Tuples (not dicts) keep :class:`TileClass` hashable and
#: ``dataclasses.asdict``-able, which is what lets a fabric embedded in
#: :class:`~repro.soc.config.SoCConfig` contribute every rate to
#: ``SoCConfig.digest()`` automatically.
KernelRate = typing.Tuple[str, typing.Tuple[int, int, int]]

#: TileClass fields that resolve against a SoCConfig cluster knob when
#: left ``None``.  Maps field name → the SoCConfig attribute it
#: inherits from.
INHERITED_FIELDS: typing.Dict[str, str] = {
    "cores_per_tile": "cores_per_cluster",
    "tcdm_bytes": "tcdm_bytes",
    "tcdm_banks": "tcdm_banks",
    "wake_latency": "cluster_wake_latency",
    "dm_decode_cycles": "dm_decode_cycles",
    "dma_setup_cycles": "dma_setup_cycles",
    "barrier_latency": "barrier_latency",
    "worker_wake_latency": "worker_wake_latency",
}

#: Inherited fields that must resolve to a positive value (the rest
#: only need to be non-negative).
_POSITIVE_FIELDS = frozenset({"cores_per_tile", "tcdm_bytes", "tcdm_banks"})


def _check_rates(class_name: str, kernel_rates: typing.Tuple[KernelRate, ...]
                 ) -> None:
    seen: typing.Set[str] = set()
    for entry in kernel_rates:
        try:
            kernel_name, (setup, num, den) = entry
        except (TypeError, ValueError):
            raise ConfigError(
                f"tile class {class_name!r}: malformed kernel rate entry "
                f"{entry!r}; expected (kernel_name, (setup, cpe_num, "
                "cpe_den))") from None
        if not isinstance(kernel_name, str) or not kernel_name:
            raise ConfigError(
                f"tile class {class_name!r}: kernel rate name must be a "
                f"non-empty string, got {kernel_name!r}")
        if kernel_name in seen:
            raise ConfigError(
                f"tile class {class_name!r}: duplicate kernel rate for "
                f"{kernel_name!r}")
        seen.add(kernel_name)
        if setup < 0 or num <= 0 or den <= 0:
            raise ConfigError(
                f"tile class {class_name!r}: invalid rate for kernel "
                f"{kernel_name!r}: setup={setup}, cpe={num}/{den} "
                "(setup must be >= 0, the rate positive)")


def _timing_for(class_name: str,
                kernel_rates: typing.Tuple[KernelRate, ...],
                kernel: Kernel) -> KernelTiming:
    """Shared lookup behind ``TileClass``/``ResolvedTile.timing_for``."""
    if not kernel_rates:
        return kernel.timing
    for name, (setup, num, den) in kernel_rates:
        if name == kernel.name:
            return KernelTiming(setup_cycles=setup, cpe_num=num, cpe_den=den)
    rated = ", ".join(sorted(name for name, _rate in kernel_rates))
    raise ConfigError(
        f"tile class {class_name!r} has no compute rate for kernel "
        f"{kernel.name!r}; rated kernels: {rated}")


@dataclasses.dataclass(frozen=True)
class TileClass:
    """Declarative spec of one compute-tile flavour.

    ``None`` timing fields inherit the matching
    :class:`~repro.soc.config.SoCConfig` cluster knob at resolution
    time (:meth:`SoCConfig.resolve_tile`); see
    :data:`INHERITED_FIELDS` for the mapping.
    """

    #: Class name; also the registry key for built-in classes.
    name: str
    #: Worker cores per tile (None → ``cores_per_cluster``).
    cores_per_tile: typing.Optional[int] = None
    #: Scratchpad capacity (None → ``tcdm_bytes``).
    tcdm_bytes: typing.Optional[int] = None
    #: Scratchpad banks (None → ``tcdm_banks``).
    tcdm_banks: typing.Optional[int] = None
    #: Mailbox doorbell to DM-core fetch (None → ``cluster_wake_latency``).
    wake_latency: typing.Optional[int] = None
    #: Descriptor decode on the DM core (None → ``dm_decode_cycles``).
    dm_decode_cycles: typing.Optional[int] = None
    #: DMA programming cost (None → ``dma_setup_cycles``).  Overriding
    #: this is legal but forfeits the DMA fast path: the shared memory
    #: channels reserve in closed form only at the fabric-wide setup
    #: lead, so a mismatched lead falls back to the reference
    #: setup-then-transfer event pair (cycle-correct, just slower).
    dma_setup_cycles: typing.Optional[int] = None
    #: Intra-tile barrier cost (None → ``barrier_latency``).
    barrier_latency: typing.Optional[int] = None
    #: Worker wake from DM-core kick (None → ``worker_wake_latency``).
    worker_wake_latency: typing.Optional[int] = None
    #: Complete per-kernel compute-rate table (cycles per unit of each
    #: kernel's work), or empty to use each kernel's own (Snitch) timing.
    kernel_rates: typing.Tuple[KernelRate, ...] = ()
    #: Active power per tile (mW), the budget/energy-cost figure.
    tile_power: float = 25.0
    #: Silicon area per tile (mm^2), the budget/area-cost figure.
    area_mm2: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(
                f"tile class name must be a non-empty string, "
                f"got {self.name!r}")
        for field in INHERITED_FIELDS:
            value = getattr(self, field)
            if value is None:
                continue
            if field in _POSITIVE_FIELDS:
                if value <= 0:
                    raise ConfigError(
                        f"tile class {self.name!r}: {field} must be "
                        f"positive, got {value}")
            elif value < 0:
                raise ConfigError(
                    f"tile class {self.name!r}: {field} must be >= 0, "
                    f"got {value}")
        _check_rates(self.name, self.kernel_rates)
        if self.tile_power < 0:
            raise ConfigError(
                f"tile class {self.name!r}: tile_power must be >= 0, "
                f"got {self.tile_power}")
        if self.area_mm2 < 0:
            raise ConfigError(
                f"tile class {self.name!r}: area_mm2 must be >= 0, "
                f"got {self.area_mm2}")

    def timing_for(self, kernel: Kernel) -> KernelTiming:
        """Per-core compute rate of ``kernel`` on this class.

        A class without a rate table runs the kernel at its own timing
        (``kernel.timing``); a table entry rates the same unit of work
        (:meth:`~repro.kernels.base.Kernel.work`: an element, or a MAC
        for GEMV).  A class *with* a rate table must rate every kernel
        it runs:

        Raises
        ------
        ConfigError
            If this class has a rate table but no entry for
            ``kernel``.
        """
        return _timing_for(self.name, self.kernel_rates, kernel)

    @property
    def is_default(self) -> bool:
        """True when every knob inherits and no rates are overridden."""
        return (not self.kernel_rates
                and all(getattr(self, field) is None
                        for field in INHERITED_FIELDS))


@dataclasses.dataclass(frozen=True)
class ResolvedTile:
    """A :class:`TileClass` with every ``None`` filled from a config.

    What the system builder and batch planner consume: all timing
    fields are concrete ints, so no call site ever needs the "inherit"
    fallback logic again.
    """

    class_name: str
    cores_per_tile: int
    tcdm_bytes: int
    tcdm_banks: int
    wake_latency: int
    dm_decode_cycles: int
    dma_setup_cycles: int
    barrier_latency: int
    worker_wake_latency: int
    kernel_rates: typing.Tuple[KernelRate, ...] = ()
    tile_power: float = 25.0
    area_mm2: float = 1.0

    def timing_for(self, kernel: Kernel) -> KernelTiming:
        """Same contract as :meth:`TileClass.timing_for`."""
        return _timing_for(self.class_name, self.kernel_rates, kernel)


@dataclasses.dataclass(frozen=True)
class TileGroup:
    """A contiguous run of ``count`` identical tiles in the fabric.

    ``tile`` accepts either a :class:`TileClass` instance or a
    registered class name (resolved through :func:`get_tile_class`).
    The instance is stored, not the name, so
    ``dataclasses.asdict(config)`` — and therefore
    ``SoCConfig.digest()`` — covers every timing field of every class
    in the fabric.
    """

    name: str
    tile: TileClass
    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(
                f"tile group name must be a non-empty string, "
                f"got {self.name!r}")
        if isinstance(self.tile, str):
            object.__setattr__(self, "tile", get_tile_class(self.tile))
        elif not isinstance(self.tile, TileClass):
            raise ConfigError(
                f"tile group {self.name!r}: tile must be a TileClass or a "
                f"registered class name, got {self.tile!r}")
        if not isinstance(self.count, int) or self.count < 1:
            raise ConfigError(
                f"tile group {self.name!r} (class {self.tile.name!r}) "
                f"must have at least one tile, got count={self.count!r}")


@dataclasses.dataclass(frozen=True)
class ResolvedGroup:
    """One fabric group with its tile resolved and its span placed."""

    name: str
    tile: ResolvedTile
    count: int
    #: First cluster id of the group's contiguous span.
    start: int


@dataclasses.dataclass(frozen=True)
class ClusterSpan:
    """The clusters ``[first, first + count)`` one job occupies.

    Built by :meth:`repro.soc.config.SoCConfig.cluster_span`, which
    checks that the span fits before returning it.
    """

    first: int
    count: int
    #: The tiles of the fabric groups the span overlaps, in fabric order.
    tiles: typing.Tuple[ResolvedTile, ...]
    #: The one tile every cluster of the span resolves to, or ``None``.
    #: Equal tiles count as one even across group boundaries, so N
    #: single-tile default groups still present a uniform span.
    #: ``None`` means the span mixes classes (the batch planner then
    #: leaves it to the event engine).
    tile: typing.Optional[ResolvedTile] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tile", self.tiles[0]
                           if len(set(self.tiles)) == 1 else None)

    @property
    def tcdm_bytes(self) -> int:
        """Smallest scratchpad in the span: the one a slice must fit."""
        return min(tile.tcdm_bytes for tile in self.tiles)


#: The homogeneous default: every knob inherits the SoCConfig cluster
#: knobs, every kernel uses its own Snitch timing.  A fabric of SNITCH
#: groups is bit-identical to the legacy homogeneous SoC.
SNITCH = TileClass(name="snitch")

#: A wide-datapath accelerator class: much faster streaming compute
#: (~1/4 of the Snitch cycles per unit of work) on half the cores, bought with a
#: heavyweight dispatch front-end (8x decode, 4x wake) and a bigger,
#: hungrier tile.  Its runtime curve crosses Snitch's as N grows —
#: exactly the shape the fabric-selection decision
#: (:func:`repro.core.decision.choose_fabric`) trades off.
#: ``dma_setup_cycles`` deliberately inherits so the class keeps the
#: closed-form DMA channel fast path (see the field's doc above).
VECWIDE = TileClass(
    name="vecwide",
    cores_per_tile=4,
    wake_latency=40,
    dm_decode_cycles=160,
    worker_wake_latency=8,
    kernel_rates=(
        ("axpby", (40, 3, 4)),
        ("daxpy", (40, 13, 20)),
        ("dot", (40, 3, 8)),
        ("gemv", (48, 3, 8)),
        ("memcpy", (32, 1, 4)),
        ("relu", (32, 1, 4)),
        ("saxpy", (40, 13, 40)),
        ("scale", (36, 3, 8)),
        ("stencil3", (44, 1, 2)),
        ("vecsum", (36, 1, 4)),
    ),
    tile_power=60.0,
    area_mm2=4.0,
)

#: Built-in tile classes, by name.  ``TileGroup`` accepts these names
#: directly; custom classes are passed as instances.
TILE_CLASSES: typing.Dict[str, TileClass] = {
    SNITCH.name: SNITCH,
    VECWIDE.name: VECWIDE,
}

#: Name of the default (homogeneous legacy) class.
DEFAULT_TILE_CLASS = SNITCH.name


def get_tile_class(name: str) -> TileClass:
    """The registered :class:`TileClass` called ``name``.

    Raises
    ------
    ConfigError
        On unknown names, listing what is available.
    """
    try:
        return TILE_CLASSES[name]
    except KeyError:
        raise ConfigError(
            f"unknown tile class {name!r}; available: "
            f"{', '.join(sorted(TILE_CLASSES))}") from None
