"""System address map: routing word accesses to memories and MMIO devices."""

from __future__ import annotations

import bisect
import dataclasses
import typing

from repro import flags
from repro.errors import MemoryError_
from repro.mem.memory import MainMemory


class MmioDevice:
    """Interface for memory-mapped peripherals.

    Subclasses implement word-granular register access relative to the
    device's base (``offset`` is ``addr - region.base``).  MMIO accesses
    are functional; the interconnect applies timing before invoking them
    and may trigger side effects (e.g. a write to the sync unit's
    increment register bumps the credit counter).

    Devices participate in MMIO access auditing through ``auditor``
    (an optional :class:`repro.sim.diag.AccessAuditor`, installed by the
    system builder): anomalous accesses — unknown offsets, writes to
    read-only registers, protocol violations like doorbells nobody is
    waiting on — are recorded there for post-mortems, and the silent
    ones escalate to :class:`~repro.errors.ProtocolError` in strict
    mode.
    """

    #: Class-level default; systems install a shared AccessAuditor.
    auditor = None

    def audit(self, kind: str, offset: int,
              value: typing.Optional[int] = None, detail: str = "",
              fatal: bool = False) -> None:
        """Report one anomalous access to the installed auditor (if any).

        ``fatal=True`` means the caller raises regardless (the record is
        purely for post-mortems); silent anomalies raise
        :class:`~repro.errors.ProtocolError` here in strict mode.
        """
        if self.auditor is not None:
            self.auditor.report(
                device=type(self).__name__, kind=kind, offset=offset,
                value=value, detail=detail, fatal=fatal)

    def read_register(self, offset: int) -> int:
        """Read the register at byte ``offset``; override in devices."""
        self.audit("unknown-offset-read", offset, fatal=True)
        raise MemoryError_(
            f"{type(self).__name__} has no readable register at +{offset:#x}"
        )

    def write_register(self, offset: int, value: int) -> None:
        """Write the register at byte ``offset``; override in devices."""
        self.audit("unknown-offset-write", offset, value=value, fatal=True)
        raise MemoryError_(
            f"{type(self).__name__} has no writable register at +{offset:#x}"
        )


@dataclasses.dataclass(frozen=True)
class Region:
    """A half-open address range ``[base, base + size)`` bound to a target.

    ``target`` is either a :class:`~repro.mem.memory.MainMemory`-like
    storage (word access by absolute address) or an :class:`MmioDevice`
    (register access by offset).

    ``end`` is stored at construction rather than recomputed: containment
    checks run once per routed word access, which makes it one of the
    hottest attribute reads in a full-system simulation.
    """

    name: str
    base: int
    size: int
    target: typing.Union[MainMemory, MmioDevice]
    end: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise MemoryError_(f"region {self.name!r} has size {self.size}")
        if self.base < 0:
            raise MemoryError_(f"region {self.name!r} has negative base")
        object.__setattr__(self, "end", self.base + self.size)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def overlaps(self, other: "Region") -> bool:
        return self.base < other.end and other.base < self.end


class _Routing:
    """Word accesses routed to the owning region's target.

    Shared by :class:`AddressMap` and its :class:`PortRouter` handles:
    each supplies ``region_at`` and ``_watchpoints``, the map's one
    watchpoint table.
    """

    __slots__ = ()

    def read_word(self, addr: int) -> int:
        """Route a word read to the owning region's target."""
        region = self.region_at(addr)
        target = region.target
        if isinstance(target, MmioDevice):
            return target.read_register(addr - region.base)
        return target.read_word(addr)

    def read_words(self, addr: int, nwords: int) -> typing.List[int]:
        """Route a naturally-ordered multi-word read (burst data phase).

        Resolves the region once when the whole range falls inside a
        plain-memory region — the overwhelmingly common case, a DM core
        bursting a descriptor out of DRAM — and falls back to word-by-
        word routing across region boundaries or MMIO targets.
        Functionally identical to ``nwords`` :meth:`read_word` calls.
        """
        region = self.region_at(addr)
        target = region.target
        if (not isinstance(target, MmioDevice)
                and addr + 8 * nwords <= region.end):
            return target.read_words(addr, nwords)
        return [self.read_word(addr + 8 * i) for i in range(nwords)]

    def write_word(self, addr: int, value: int) -> None:
        """Route a word write to the owning region's target."""
        region = self.region_at(addr)
        target = region.target
        if isinstance(target, MmioDevice):
            target.write_register(addr - region.base, value)
        else:
            target.write_word(addr, value)
        watchpoints = self._watchpoints
        if watchpoints:
            callback = watchpoints.get(addr)
            if callback is not None:
                callback(value)

    def amo_add(self, addr: int, operand: int) -> int:
        """Atomic fetch-and-add on a word; returns the *old* value.

        MMIO registers also accept AMOs (the baseline completion flag
        lives in main memory, but clusters could equally target a
        device register).
        """
        old = self.read_word(addr)
        self.write_word(addr, old + operand)
        return old


class PortRouter(_Routing):
    """A routing handle for one initiator port.

    Wraps an :class:`AddressMap` with a private last-region hit slot:
    real access streams are overwhelmingly same-region runs (a DM core
    bursting a descriptor, the host hammering one completion flag), so
    nearly every lookup resolves with two comparisons instead of a
    bisect.  Each port gets its own slot so interleaved streams from
    different initiators cannot thrash a shared one.
    """

    __slots__ = ("_map", "_hit", "_watchpoints")

    def __init__(self, address_map: "AddressMap") -> None:
        self._map = address_map
        self._hit: typing.Optional[Region] = None
        self._watchpoints = address_map._watchpoints

    def region_at(self, addr: int) -> Region:
        """The region containing ``addr`` (port-cached lookup)."""
        if self._map._linear:
            return self._map.region_at(addr)
        hit = self._hit
        if hit is not None and hit.base <= addr < hit.end:
            return hit
        region = self._map.region_at(addr)
        self._hit = region
        return region


class AddressMap(_Routing):
    """An ordered, non-overlapping collection of :class:`Region` objects.

    Regions are kept sorted by base at all times (bisect insertion, so
    adding N regions costs O(N log N) comparisons instead of a full
    re-sort and linear overlap scan per add), and lookups bisect over
    the sorted base array with a one-slot last-hit cache in front.
    Initiators that issue long same-region access streams should route
    through a private :meth:`port_router` for an uncontended hit slot.
    """

    def __init__(self) -> None:
        self._regions: typing.List[Region] = []
        self._bases: typing.List[int] = []
        self._by_name: typing.Dict[str, Region] = {}
        self._hit: typing.Optional[Region] = None
        #: addr -> callback(value), invoked after a routed word write
        #: lands at that exact address (see :meth:`watch`).  Every port
        #: router shares this dict, so it is cleared, never rebound.
        self._watchpoints: typing.Dict[int, typing.Callable[[int], None]] = {}
        #: A/B lever (``REPRO_LINEAR_ROUTING``): sampled once at
        #: construction so the hot path pays one attribute read.
        self._linear = flags.linear_routing()

    def add(self, region: Region) -> Region:
        """Register a region; rejects overlaps and duplicate names.

        Only the two would-be neighbours in base order need checking:
        the map is always sorted and non-overlapping, so any overlap
        must involve an adjacent region.
        """
        if self._linear:
            # A/B reference: the original scan-all-then-resort insert.
            for existing in self._regions:
                if existing.overlaps(region):
                    raise MemoryError_(
                        f"region {region.name!r} "
                        f"[{region.base:#x}, {region.end:#x}) "
                        f"overlaps {existing.name!r} "
                        f"[{existing.base:#x}, {existing.end:#x})"
                    )
                if existing.name == region.name:
                    raise MemoryError_(
                        f"duplicate region name {region.name!r}")
            self._regions.append(region)
            self._regions.sort(key=lambda r: r.base)
            self._bases = [r.base for r in self._regions]
            self._by_name[region.name] = region
            return region
        if region.name in self._by_name:
            raise MemoryError_(f"duplicate region name {region.name!r}")
        index = bisect.bisect_right(self._bases, region.base)
        for neighbour_index in (index - 1, index):
            if 0 <= neighbour_index < len(self._regions):
                existing = self._regions[neighbour_index]
                if existing.overlaps(region):
                    raise MemoryError_(
                        f"region {region.name!r} "
                        f"[{region.base:#x}, {region.end:#x}) "
                        f"overlaps {existing.name!r} "
                        f"[{existing.base:#x}, {existing.end:#x})"
                    )
        self._regions.insert(index, region)
        self._bases.insert(index, region.base)
        self._by_name[region.name] = region
        return region

    def add_device(self, name: str, base: int, size: int,
                   device: MmioDevice) -> Region:
        """Convenience wrapper for registering an MMIO device."""
        return self.add(Region(name=name, base=base, size=size, target=device))

    def port_router(self) -> PortRouter:
        """A routing handle with a private last-region hit cache."""
        return PortRouter(self)

    def region_at(self, addr: int) -> Region:
        """The region containing ``addr``.

        Raises
        ------
        MemoryError_
            If the address is unmapped.
        """
        if self._linear:
            # A/B reference: scan with per-probe end arithmetic, as the
            # original property-based ``Region.end`` paid.
            for region in self._regions:
                if region.base <= addr < region.base + region.size:
                    return region
            raise MemoryError_(f"access to unmapped address {addr:#x}")
        hit = self._hit
        if hit is not None and hit.base <= addr < hit.end:
            return hit
        index = bisect.bisect_right(self._bases, addr) - 1
        if index >= 0:
            region = self._regions[index]
            if addr < region.end:
                self._hit = region
                return region
        raise MemoryError_(f"access to unmapped address {addr:#x}")

    def region_named(self, name: str) -> Region:
        """The region with the given name (KeyError if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no region named {name!r}") from None

    # ------------------------------------------------------------------
    # Watchpoints
    # ------------------------------------------------------------------
    def watch(self, addr: int,
              callback: typing.Callable[[int], None]) -> None:
        """Invoke ``callback(value)`` whenever a routed word write lands
        at exactly ``addr``.

        One callback per address.  Watchpoints observe writes routed
        through the map (interconnect deliveries, AMOs); functional
        block transfers that bypass the map (e.g. DMA ``write_f64``)
        are not observed.  Used by the offload runtimes to fast-forward
        the baseline completion-poll loop.
        """
        if addr in self._watchpoints:
            raise MemoryError_(
                f"watchpoint already registered at {addr:#x}")
        self._watchpoints[addr] = callback

    def unwatch(self, addr: int) -> None:
        """Remove the watchpoint at ``addr`` (no-op if absent)."""
        self._watchpoints.pop(addr, None)

    def clear_watchpoints(self) -> None:
        """Drop every watchpoint (system reset)."""
        self._watchpoints.clear()

    @property
    def has_watchpoints(self) -> bool:
        """Whether any watchpoint is armed (bulk store paths must then
        fall back to per-word delivery so callbacks fire on time)."""
        return bool(self._watchpoints)

    @property
    def regions(self) -> typing.Tuple[Region, ...]:
        return tuple(self._regions)

    def __len__(self) -> int:
        return len(self._regions)
