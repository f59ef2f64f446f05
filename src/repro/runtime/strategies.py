"""Dispatch and completion strategies, and the variant registry.

The paper's contribution is a co-designed offload *protocol*: how the
host hands descriptors to clusters (**dispatch**) and how it learns
they finished (**completion**).  This module expresses each side as a
first-class strategy object and composes them into named *variants*
through one registry — so a new protocol variant (e.g. from the journal
extension of the paper) is one ``register_variant`` call, not parallel
edits to the runtime factory, the SoC configuration and the protocol
builder.

Strategies are stateless and shared: every method takes the system it
operates on, so one instance serves any number of runtimes.

========================= ======================= =====================
variant                   dispatch                completion
========================= ======================= =====================
``baseline``              sequential stores       AMO flag + host poll
``multicast_only``        one multicast store     AMO flag + host poll
``hw_sync_only``          sequential stores       credit counter + WFI
``extended``              one multicast store     credit counter + WFI
========================= ======================= =====================

The registry is the single source of truth for variant names:
:func:`repro.runtime.protocol.make_runtime` and
:meth:`repro.soc.config.SoCConfig.for_variant` both resolve through it.
"""

from __future__ import annotations

import abc
import dataclasses
import typing

from repro import abi, flags
from repro.errors import MemoryError_, OffloadError
from repro.mem.map import MmioDevice

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.soc.manticore import ManticoreSystem


# ----------------------------------------------------------------------
# Dispatch strategies
# ----------------------------------------------------------------------
class DispatchStrategy(abc.ABC):
    """How the host rings the doorbells of a job's cluster range."""

    #: Registry key and human-readable label.
    key: str = ""
    #: Hardware feature the strategy needs (``SoCConfig.multicast``).
    requires_multicast: bool = False
    #: Smallest offload width M from which this strategy's doorbell
    #: schedule — and therefore the whole N-independent dispatch prefix
    #: — is an *affine* function of M, or ``None`` when no such claim
    #: is made.  The batch planner's M-axis prediction layer
    #: (:class:`repro.core.batch.MPrefixModel`) only fits prefixes for
    #: strategies that declare a domain here, and only for M inside it;
    #: the claim is additionally verified residual-exactly against a
    #: held-out M before any prefix is synthesized.  A subclass may
    #: inherit the declaration, but the planner's exact-strategy-type
    #: provability check refuses subclasses wholesale, so an overridden
    #: :meth:`dispatch` can never smuggle non-affine timing in under an
    #: inherited claim.
    affine_dispatch_min_m: typing.ClassVar[typing.Optional[int]] = None

    @abc.abstractmethod
    def dispatch(self, system: "ManticoreSystem", desc: abi.JobDescriptor,
                 desc_addr: int) -> typing.Generator:
        """Host program fragment delivering ``desc_addr`` doorbells."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.key!r}>"


class SequentialStoreDispatch(DispatchStrategy):
    """The baseline's doorbell loop: one plain store per cluster.

    Each iteration pays an address computation plus a posted store, so
    dispatch cost is linear in the offload width M.
    """

    key = "sequential_store"
    requires_multicast = False
    #: One identical loop iteration per cluster: the prefix is affine
    #: in M from M = 1 (the paper's Eq. 1 models exactly this term).
    affine_dispatch_min_m = 1

    def dispatch(self, system: "ManticoreSystem", desc: abi.JobDescriptor,
                 desc_addr: int) -> typing.Generator:
        host = system.host
        config = system.config
        first = desc.first_cluster
        for cluster_id in range(first, first + desc.num_clusters):
            yield from host.execute(config.host_addr_calc_cycles)
            yield from host.store_posted(
                system.mailbox_addr(cluster_id), desc_addr)


class MulticastDispatch(DispatchStrategy):
    """The extension's dispatch: one multicast store covers the range.

    A multicast of one would only pay the replication-tree latency, so
    single-cluster jobs dispatch with a plain store.
    """

    key = "multicast"
    requires_multicast = True
    #: One multicast store regardless of M — affine (constant) from
    #: M = 2; M = 1 takes the plain-store special case below, which
    #: sits off that line, so the domain starts at 2.
    affine_dispatch_min_m = 2

    def dispatch(self, system: "ManticoreSystem", desc: abi.JobDescriptor,
                 desc_addr: int) -> typing.Generator:
        host = system.host
        first = desc.first_cluster
        if desc.num_clusters > 1:
            addrs = system.mailbox_addrs(desc.num_clusters, first)
            yield from host.multicast_store(addrs, desc_addr)
        else:
            yield from host.store_posted(system.mailbox_addr(first),
                                         desc_addr)


# ----------------------------------------------------------------------
# Completion strategies
# ----------------------------------------------------------------------
class CompletionStrategy(abc.ABC):
    """How the host learns that a launch's clusters all finished.

    A launch is a sequence of ``(descriptor, flag_addr)`` pairs — one
    for a plain offload, several for a space-shared concurrent launch.
    ``flag_addr`` entries are ``None`` for strategies that do not use
    per-job completion flags.
    """

    key: str = ""
    #: Hardware feature the strategy needs (``SoCConfig.hw_sync``).
    requires_hw_sync: bool = False
    #: The descriptor ``sync_mode`` field clusters act on.
    sync_mode: int = abi.SYNC_MODE_AMO

    #: Whether each job needs a per-job completion flag allocated (and
    #: passed back as the descriptor's ``completion_addr``).
    uses_flag: bool = True

    #: Whether this strategy's :meth:`arm` fragment costs the same
    #: host cycles for every offload width M (a single-job launch arms
    #: one flag or one threshold — the store's *value* changes with M,
    #: its timing does not).  Required, together with the dispatch
    #: side's :attr:`DispatchStrategy.affine_dispatch_min_m`, before
    #: the batch planner may model the dispatch prefix as affine in M.
    prefix_affine_in_m: typing.ClassVar[bool] = False

    def completion_addr(self, system: "ManticoreSystem",
                        flag_addr: typing.Optional[int]) -> int:
        """The address clusters signal completion to."""
        if flag_addr is None:
            raise OffloadError("AMO completion requires a flag address")
        return flag_addr

    @abc.abstractmethod
    def arm(self, system: "ManticoreSystem",
            jobs: typing.Sequence[typing.Tuple[abi.JobDescriptor,
                                               typing.Optional[int]]]
            ) -> typing.Generator:
        """Host fragment arming completion before dispatch."""

    @abc.abstractmethod
    def wait(self, system: "ManticoreSystem",
             jobs: typing.Sequence[typing.Tuple[abi.JobDescriptor,
                                                typing.Optional[int]]]
             ) -> typing.Generator:
        """Host fragment blocking until every job completed."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.key!r}>"


class AmoPollCompletion(CompletionStrategy):
    """Baseline completion: per-job AMO flag, host polls each in turn.

    The wait uses the cycle-exact watchpoint fast path (see
    :meth:`_poll_wait`) unless ``REPRO_NAIVE_POLL`` forces the
    reference loop.
    """

    key = "amo_poll"
    requires_hw_sync = False
    sync_mode = abi.SYNC_MODE_AMO
    uses_flag = True
    #: Arming is one posted flag-reset store per job, independent of M.
    prefix_affine_in_m = True

    def arm(self, system, jobs):
        host = system.host
        for _desc, flag_addr in jobs:
            yield from host.store_posted(flag_addr, 0)

    def wait(self, system, jobs):
        for desc, flag_addr in jobs:
            yield from self._poll_wait(system, flag_addr, desc.num_clusters)

    def _poll_wait(self, system: "ManticoreSystem", flag_addr: int,
                   threshold: int) -> typing.Generator:
        """Poll the completion flag until it reaches ``threshold``.

        The reference semantics are the baseline's software loop::

            while True:
                value = yield from host.load(flag_addr)   # round trip
                if value >= threshold: break              # compare+branch
                yield from host.execute(poll_gap)         # loop overhead

        which costs the simulator one process wake-up per iteration —
        O(runtime / poll period) events, the dominant event count for
        long offloads.  The fast path below is cycle-exact and charges
        identical statistics while collapsing the wait into O(1) events:
        it simulates the *first* load for real, then parks on a
        watchpoint at ``flag_addr``.  When the threshold-crossing write
        lands (cycle ``t_w``), the iteration schedule is reconstructed
        analytically.  With the host port otherwise idle, iteration
        ``k``'s load reads the flag at ``u_k = u_0 + k * period`` where
        ``period = load_occupancy + request_latency + response_latency +
        poll_gap``.  A read in the same cycle as the write still
        observes the *old* value — the request latency is at least one
        cycle, so the read resumes via the time heap, which the kernel
        drains before the zero-delay FIFO that delivers the write — so
        the first successful iteration is the first with ``u_k > t_w``.
        The skipped loads/compares/branches are charged in one step
        (logged READ transactions at their true issue cycles, host-port
        occupancy, retired-operation and load counters) and the host
        resumes exactly at ``u_k + response_latency``.

        The fast path requires a non-MMIO flag region (the arming peek
        must be side-effect free); otherwise, or when
        ``REPRO_NAIVE_POLL`` is set, the reference loop runs unchanged.
        """
        host = system.host
        config = system.config
        params = system.noc.params
        gap = config.host_poll_gap_cycles

        region = None
        if not flags.naive_poll():
            try:
                region = system.address_map.region_at(flag_addr)
            except MemoryError_:
                region = None
            if region is not None and isinstance(region.target, MmioDevice):
                region = None
        if region is None:
            while True:
                value = yield from host.load(flag_addr)
                if value >= threshold:
                    return
                yield from host.execute(gap)

        sim = system.sim
        memory = region.target
        period = (params.load_occupancy + params.request_latency
                  + params.response_latency + gap)

        # Iteration 0 runs for real (it also absorbs any leftover host-
        # port occupancy from the dispatch stores).
        value = yield from host.load(flag_addr)
        if value >= threshold:
            return
        read0 = sim.now - params.response_latency

        # The crossing write may have landed in this very cycle, in the
        # same zero-delay phase that resumed us, before a watchpoint
        # could be armed — a side-effect-free functional peek catches it.
        if memory.read_word(flag_addr) >= threshold:
            crossed_at = sim.now
        else:
            crossed = sim.event(name=f"poll.virtual@{flag_addr:#x}")

            def on_flag_write(new_value: int) -> None:
                if new_value >= threshold and not crossed.triggered:
                    crossed.trigger(new_value)

            system.address_map.watch(flag_addr, on_flag_write)
            try:
                yield crossed
            finally:
                system.address_map.unwatch(flag_addr)
            crossed_at = sim.now

        # First iteration whose read strictly follows the crossing write.
        success = (crossed_at - read0) // period + 1
        first_issue = (read0 + period
                       - params.load_occupancy - params.request_latency)
        system.noc.charge_host_poll_reads(
            flag_addr, first_issue, period, success)
        host.lsu.loads_issued += success
        # Per skipped iteration: one gap execute + one load.
        host.retired_operations += 2 * success
        resume_at = read0 + success * period + params.response_latency
        yield sim.timer(resume_at - crossed_at, name="poll.fastforward")


class SyncUnitCompletion(CompletionStrategy):
    """Extended completion: credit-counter threshold + WFI.

    One threshold equal to the launch's *total* cluster count turns the
    credit counter into a completion barrier across all jobs — a single
    interrupt when the last one drains.
    """

    key = "sync_unit_wfi"
    requires_hw_sync = True
    sync_mode = abi.SYNC_MODE_SYNCUNIT
    uses_flag = False
    #: Arming is one posted threshold store; only its *value* is M.
    prefix_affine_in_m = True

    def completion_addr(self, system, flag_addr):
        return system.syncunit_increment_addr

    def arm(self, system, jobs):
        total = sum(desc.num_clusters for desc, _flag in jobs)
        yield from system.host.store_posted(
            system.syncunit_threshold_addr, total)

    def wait(self, system, jobs):
        from repro.soc.syncunit import IRQ_LINE
        yield from system.host.wfi(IRQ_LINE)


# ----------------------------------------------------------------------
# The variant registry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class VariantSpec:
    """One named pairing of a dispatch and a completion strategy."""

    name: str
    dispatch: DispatchStrategy
    completion: CompletionStrategy

    @property
    def use_multicast(self) -> bool:
        """Hardware multicast requirement, derived from the strategy."""
        return self.dispatch.requires_multicast

    @property
    def use_hw_sync(self) -> bool:
        """Hardware sync-unit requirement, derived from the strategy."""
        return self.completion.requires_hw_sync

    @property
    def features(self) -> typing.Tuple[bool, bool]:
        """The ``(multicast, hw_sync)`` hardware feature pair."""
        return (self.use_multicast, self.use_hw_sync)

    def check_hardware(self, config) -> None:
        """Raise :class:`OffloadError` unless ``config`` (a
        :class:`~repro.soc.config.SoCConfig`) has the features this
        variant's strategies need."""
        if self.use_multicast and not config.multicast:
            raise OffloadError(
                "runtime requests multicast dispatch but the SoC was built "
                "without the multicast extension (build the system from "
                "SoCConfig.for_variant('multicast_only') or 'extended')")
        if self.use_hw_sync and not config.hw_sync:
            raise OffloadError(
                "runtime requests hardware synchronization but the SoC was "
                "built without the sync unit enabled (build the system from "
                "SoCConfig.for_variant('hw_sync_only') or 'extended')")


_REGISTRY: typing.Dict[str, VariantSpec] = {}


def register_variant(name: str, dispatch: DispatchStrategy,
                     completion: CompletionStrategy,
                     replace: bool = False) -> VariantSpec:
    """Register a protocol variant; returns its spec.

    This is the *only* step a new variant needs: the runtime factory
    (:func:`repro.runtime.protocol.make_runtime`) and the hardware
    configurator (:meth:`repro.soc.config.SoCConfig.for_variant`) both
    resolve through the registry.
    """
    if name == "auto":
        raise OffloadError(
            "'auto' is reserved for hardware-feature resolution")
    if name in _REGISTRY and not replace:
        raise OffloadError(
            f"variant {name!r} is already registered; pass replace=True "
            "to override")
    spec = VariantSpec(name=name, dispatch=dispatch, completion=completion)
    _REGISTRY[name] = spec
    return spec


def get_variant(name: str) -> VariantSpec:
    """Look a variant up by name.

    Raises
    ------
    OffloadError
        On unknown names, listing every registered variant.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise OffloadError(
            f"unknown runtime variant {name!r}; available: "
            f"auto, {', '.join(sorted(_REGISTRY))}"
        ) from None


def resolve_variant(variant: str, config) -> VariantSpec:
    """The variant ``variant`` names; ``"auto"`` takes every feature
    ``config`` (a :class:`~repro.soc.config.SoCConfig`) provides."""
    if variant == "auto":
        return variant_for_features(config.multicast, config.hw_sync)
    return get_variant(variant)


def variant_names() -> typing.Tuple[str, ...]:
    """Every registered variant name, sorted."""
    return tuple(sorted(_REGISTRY))


def variant_features() -> typing.Dict[str, typing.Tuple[bool, bool]]:
    """Variant name → ``(multicast, hw_sync)`` feature pair."""
    return {name: spec.features for name, spec in _REGISTRY.items()}


def variant_for_features(use_multicast: bool,
                         use_hw_sync: bool) -> VariantSpec:
    """The first registered variant matching a hardware feature pair.

    This resolves ``variant="auto"`` (use everything the hardware has).
    Registration order breaks ties, so the four paper variants keep
    their canonical names even if later registrations alias a pair.
    """
    wanted = (bool(use_multicast), bool(use_hw_sync))
    for spec in _REGISTRY.values():
        if spec.features == wanted:
            return spec
    raise OffloadError(
        f"no registered variant provides features "
        f"multicast={wanted[0]}, hw_sync={wanted[1]}")


#: Shared stateless strategy instances used by the built-in variants.
SEQUENTIAL_STORE = SequentialStoreDispatch()
MULTICAST = MulticastDispatch()
AMO_POLL = AmoPollCompletion()
SYNC_UNIT_WFI = SyncUnitCompletion()

#: The four protocol variants the paper evaluates (Fig. 1 + ablation A1).
register_variant("baseline", SEQUENTIAL_STORE, AMO_POLL)
register_variant("multicast_only", MULTICAST, AMO_POLL)
register_variant("hw_sync_only", SEQUENTIAL_STORE, SYNC_UNIT_WFI)
register_variant("extended", MULTICAST, SYNC_UNIT_WFI)
