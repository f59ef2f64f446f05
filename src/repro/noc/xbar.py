"""The control interconnect: host and cluster ports, timing, routing.

Timing model
------------
Each initiator owns a *request port* (:class:`repro.sim.SerialResource`)
that serializes its outgoing transactions: a store occupies the host
port for ``store_occupancy`` cycles, which is what makes the baseline's
one-store-per-cluster dispatch loop linear in the cluster count.  After
leaving the port, a transaction takes ``request_latency`` cycles to
reach its target, where the functional state change happens; responses
(read data, AMO results, store acks) take ``response_latency`` cycles
back.

Multicast stores occupy the host port *once* and are delivered to every
target after an extra ``multicast_tree_latency`` (the replication tree
depth) — the paper's interconnect extension.

Atomics from all clusters serialize at a single atomics port in front of
shared memory (``amo_service_cycles`` each), which is why the baseline's
completion protocol degrades as clusters multiply.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro.errors import ConfigError
from repro.mem.map import AddressMap, MmioDevice
from repro.noc.packet import Transaction, TransactionKind
from repro.sim import Event, SerialResource, Simulator


@dataclasses.dataclass(frozen=True)
class NocParams:
    """Interconnect timing parameters (cycles).

    Defaults are calibrated so the full system reproduces the paper's
    emergent constants; see ``tests/integration/test_calibration.py``.
    """

    request_latency: int = 6
    response_latency: int = 6
    store_occupancy: int = 8
    load_occupancy: int = 2
    cluster_port_occupancy: int = 1
    multicast_enabled: bool = False
    multicast_tree_latency: int = 3
    amo_service_cycles: int = 2

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range parameters."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "int" and value < 0:
                raise ConfigError(f"NocParams.{field.name} must be >= 0, got {value}")
        if self.store_occupancy == 0:
            raise ConfigError("store_occupancy must be at least 1 cycle")


class _StoreFlight:
    """One in-flight store as a chain of plain scheduler callbacks.

    Timing-equivalent to a spawned generator body (``yield issued``,
    ``yield latency``, write, ``yield response_latency``, ack) but
    allocates no process or generator frame.  The kick-off hop lands at
    the exact queue position a process kick-off would, each later step
    runs where the corresponding generator resume would, and every
    scheduler entry consumes the same sequence number — so the chain is
    bit-identical to the process form, transaction for transaction.
    """

    __slots__ = ("noc", "issued", "latency", "addresses", "value", "router",
                 "delivered", "acked")

    def __init__(self, noc: "Interconnect", issued: Event, latency: int,
                 addresses: typing.Tuple[int, ...], value: int, router,
                 delivered: Event, acked: Event) -> None:
        self.noc = noc
        self.issued = issued
        self.latency = latency
        self.addresses = addresses
        self.value = value
        self.router = router
        self.delivered = delivered
        self.acked = acked

    def _kick(self, _arg) -> None:
        self.issued.add_callback(self._issued)

    def _issued(self, _event) -> None:
        self.noc.sim.schedule(self.latency, self._deliver, None)

    def _deliver(self, _arg) -> None:
        noc = self.noc
        for addr in self.addresses:
            self.router.write_word(addr, self.value)
        self.delivered.trigger(noc.sim.now)
        noc.sim.schedule(noc.params.response_latency, self._ack, None)

    def _ack(self, _arg) -> None:
        self.acked.trigger(self.noc.sim.now)


class _ReadFlight:
    """One in-flight load (or burst) as a chain of scheduler callbacks.

    A burst (``scalar=False``) reads ``nwords`` consecutive words and
    delivers the list; its data-beat tail stretches the response delay
    by one cycle per extra word.  A plain load (``scalar=True``)
    delivers the single word itself.  The port request is issued
    *inside* the kick-off hop, exactly where a spawned body's first
    resume would issue it, so request-port FIFO order is preserved
    against any traffic scheduled in between.
    """

    __slots__ = ("noc", "port", "occupancy", "addr", "nwords", "scalar",
                 "router", "done", "values")

    def __init__(self, noc: "Interconnect", port: SerialResource,
                 occupancy: int, addr: int, nwords: int, scalar: bool,
                 router, done: Event) -> None:
        self.noc = noc
        self.port = port
        self.occupancy = occupancy
        self.addr = addr
        self.nwords = nwords
        self.scalar = scalar
        self.router = router
        self.done = done
        self.values: typing.Optional[typing.List[int]] = None

    def _kick(self, _arg) -> None:
        self.port.request(self.occupancy).add_callback(self._granted)

    def _granted(self, _event) -> None:
        noc = self.noc
        noc.sim.schedule(noc.params.request_latency, self._at_target, None)

    def _at_target(self, _arg) -> None:
        noc = self.noc
        self.values = self.router.read_words(self.addr, self.nwords)
        noc.sim.schedule(noc.params.response_latency + (self.nwords - 1),
                         self._respond, None)

    def _respond(self, _arg) -> None:
        self.done.trigger(self.values[0] if self.scalar else self.values)


class _AmoFlight:
    """One in-flight atomic fetch-and-add as a callback chain.

    The shared atomics-port request is issued in the post-latency step —
    the same instant a spawned body would issue it — so the serialization
    order of concurrent AMOs from different clusters is preserved.
    """

    __slots__ = ("noc", "port", "addr", "operand", "router", "done", "value")

    def __init__(self, noc: "Interconnect", port: SerialResource, addr: int,
                 operand: int, router, done: Event) -> None:
        self.noc = noc
        self.port = port
        self.addr = addr
        self.operand = operand
        self.router = router
        self.done = done
        self.value = 0

    def _kick(self, _arg) -> None:
        self.port.request(
            self.noc.params.cluster_port_occupancy).add_callback(self._granted)

    def _granted(self, _event) -> None:
        noc = self.noc
        noc.sim.schedule(noc.params.request_latency, self._at_amo, None)

    def _at_amo(self, _arg) -> None:
        noc = self.noc
        noc.amo_port.request(
            noc.params.amo_service_cycles).add_callback(self._serviced)

    def _serviced(self, _event) -> None:
        noc = self.noc
        self.value = self.router.amo_add(self.addr, self.operand)
        noc.sim.schedule(noc.params.response_latency, self._respond, None)

    def _respond(self, _arg) -> None:
        self.done.trigger(self.value)


def _trigger_at_now(event: Event) -> None:
    """Scheduler callback: trigger ``event`` with the current cycle."""
    event.trigger(event.sim.now)


@dataclasses.dataclass(frozen=True)
class WriteHandle:
    """The three milestones of a store.

    Attributes
    ----------
    issued:
        Port occupancy released — a *posted* store lets the initiator
        continue here.
    delivered:
        Functional write performed at the target.
    acked:
        Ack returned to the initiator — a *non-posted* store stalls the
        initiator until here.
    """

    issued: Event
    delivered: Event
    acked: Event


class Interconnect:
    """Routes timed control transactions through the address map."""

    def __init__(self, sim: Simulator, address_map: AddressMap,
                 params: typing.Optional[NocParams] = None,
                 num_clusters: int = 1) -> None:
        params = params or NocParams()
        params.validate()
        if num_clusters <= 0:
            raise ConfigError(f"need at least one cluster, got {num_clusters}")
        self.sim = sim
        self.address_map = address_map
        self.params = params
        self.host_port = SerialResource(sim, "noc.host_port")
        self.cluster_ports = [
            SerialResource(sim, f"noc.cluster{i}_port") for i in range(num_clusters)
        ]
        self.amo_port = SerialResource(sim, "noc.amo_port")
        #: Interned per-cluster source labels: one transaction is logged
        #: per control operation, so building the label with an f-string
        #: each time is measurable across a sweep.
        self._cluster_labels = tuple(
            f"cluster{i}" for i in range(num_clusters))
        self.transactions: typing.List[Transaction] = []
        #: Closed-form host store runs committed by
        #: :meth:`host_write_block` (and the stores they covered) —
        #: fast-forward visibility counters, mirrored into
        #: ``ManticoreSystem.fastforward_stats``.
        self.ff_store_runs = 0
        self.ff_stores = 0
        # Per-initiator routing handles: each port keeps its own
        # last-region hit slot, so one cluster's descriptor burst cannot
        # evict the host's completion-flag region from a shared cache.
        self._host_router = address_map.port_router()
        self._cluster_routers = [
            address_map.port_router() for _ in range(num_clusters)
        ]

    # ------------------------------------------------------------------
    # Host-initiated traffic
    # ------------------------------------------------------------------
    def host_write(self, addr: int, value: int) -> WriteHandle:
        """A host store to one target; see :class:`WriteHandle`."""
        self._log(TransactionKind.WRITE, "host", (addr,), value)
        return self._write(self.host_port, self.params.store_occupancy,
                           self.params.request_latency, (addr,), value,
                           self._host_router)

    def host_multicast_write(self, addresses: typing.Sequence[int],
                             value: int) -> WriteHandle:
        """One host store replicated to many targets (the extension).

        Raises
        ------
        ConfigError
            If the interconnect was built without multicast support.
        """
        if not self.params.multicast_enabled:
            raise ConfigError(
                "multicast store on an interconnect without the multicast "
                "extension (set NocParams.multicast_enabled)"
            )
        addresses = tuple(addresses)
        self._log(TransactionKind.MULTICAST_WRITE, "host", addresses, value)
        latency = self.params.request_latency + self.params.multicast_tree_latency
        return self._write(self.host_port, self.params.store_occupancy,
                           latency, addresses, value, self._host_router)

    def host_read(self, addr: int) -> Event:
        """A host load; the returned event's value is the data."""
        self._log(TransactionKind.READ, "host", (addr,), None)
        return self._read(self.host_port, self.params.load_occupancy, addr,
                          self._host_router)

    # ------------------------------------------------------------------
    # Cluster-initiated traffic
    # ------------------------------------------------------------------
    def cluster_write(self, cluster_id: int, addr: int, value: int) -> WriteHandle:
        """A cluster store (e.g. the posted sync-unit increment)."""
        port = self._cluster_port(cluster_id)
        self._log(TransactionKind.WRITE, self._cluster_labels[cluster_id],
                  (addr,), value)
        return self._write(port, self.params.cluster_port_occupancy,
                           self.params.request_latency, (addr,), value,
                           self._cluster_routers[cluster_id])

    def cluster_read(self, cluster_id: int, addr: int) -> Event:
        """A cluster load (e.g. the DM core fetching the job descriptor)."""
        port = self._cluster_port(cluster_id)
        self._log(TransactionKind.READ, self._cluster_labels[cluster_id],
                  (addr,), None)
        return self._read(port, self.params.cluster_port_occupancy, addr,
                          self._cluster_routers[cluster_id])

    def cluster_read_burst(self, cluster_id: int, addr: int,
                           nwords: int) -> Event:
        """A burst read of ``nwords`` consecutive words (AXI-style).

        Costs one round trip plus one beat per extra word; the event's
        value is the list of words.  Used by DM cores to fetch job
        descriptors in one or two bursts instead of word-by-word loads.
        """
        if nwords <= 0:
            raise ConfigError(f"burst length must be positive, got {nwords}")
        port = self._cluster_port(cluster_id)
        router = self._cluster_routers[cluster_id]
        self._log(TransactionKind.READ, self._cluster_labels[cluster_id],
                  (addr,), None)
        done = self.sim.event(name="noc.burst")
        flight = _ReadFlight(self, port, self.params.cluster_port_occupancy,
                             addr, nwords, False, router, done)
        self.sim.schedule(0, flight._kick, None)
        return done

    def cluster_amo_add(self, cluster_id: int, addr: int, operand: int) -> Event:
        """Atomic fetch-and-add from a cluster; event value is the *old* word.

        All AMOs serialize at the shared atomics port, so concurrent
        completion flags from many clusters queue up — the baseline
        synchronization cost the credit counter removes.
        """
        port = self._cluster_port(cluster_id)
        router = self._cluster_routers[cluster_id]
        self._log(TransactionKind.AMO_ADD, self._cluster_labels[cluster_id],
                  (addr,), operand)
        done = self.sim.event(name="noc.amo")
        flight = _AmoFlight(self, port, addr, operand, router, done)
        self.sim.schedule(0, flight._kick, None)
        return done

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cluster_port(self, cluster_id: int) -> SerialResource:
        if not 0 <= cluster_id < len(self.cluster_ports):
            raise ConfigError(
                f"cluster id {cluster_id} out of range "
                f"[0, {len(self.cluster_ports)})"
            )
        return self.cluster_ports[cluster_id]

    def _write(self, port: SerialResource, occupancy: int, latency: int,
               addresses: typing.Tuple[int, ...], value: int,
               router) -> WriteHandle:
        issued = port.request(occupancy)
        delivered = self.sim.event(name="write.delivered")
        acked = self.sim.event(name="write.acked")
        flight = _StoreFlight(self, issued, latency, addresses, value,
                              router, delivered, acked)
        # The kick-off hop keeps the issued-event callback registration
        # at the queue position a spawned body's first resume would use,
        # so waiter ordering on ``issued`` matches the process form.
        self.sim.schedule(0, flight._kick, None)
        return WriteHandle(issued=issued, delivered=delivered, acked=acked)

    def _read(self, port: SerialResource, occupancy: int, addr: int,
              router) -> Event:
        done = self.sim.event(name="noc.read")
        flight = _ReadFlight(self, port, occupancy, addr, 1, True, router,
                             done)
        self.sim.schedule(0, flight._kick, None)
        return done

    # ------------------------------------------------------------------
    # Analytic fast-forward support (see repro.runtime.protocol)
    # ------------------------------------------------------------------
    def host_write_block(
            self, blocks: typing.Sequence[
                typing.Tuple[int, typing.Sequence[int]]]
    ) -> typing.Optional[Event]:
        """Commit a run of back-to-back host stores in closed form.

        ``blocks`` lists ``(base_addr, words)`` runs of consecutive
        words — the offload setup phase's descriptor stores.  The
        reference loop issues every word as a posted store (the final
        one non-posted, the release fence) and parks on each ``issued``
        event in turn; this closed form charges the identical port
        occupancy, logs the identical transactions with their true
        issue cycles, performs the functional writes, and allocates a
        *single* scheduler event that fires at the fence's ack cycle.

        Safe only when nothing can observe the skipped intermediate
        cycles, so it refuses (returns ``None``, caller must run the
        reference loop) unless:

        - the scheduler is empty apart from the caller itself (the
          setup window is single-actor: clusters are parked on their
          doorbells and nothing else is in flight);
        - no watchpoint is armed (delivery-time visibility);
        - every block lies inside one plain-memory region (MMIO
          delivery has side effects at delivered-cycle granularity).
        """
        if self.sim.pending or self.address_map.has_watchpoints:
            return None
        targets = []
        for base, words in blocks:
            region = self._host_router.region_at(base)
            target = region.target
            if isinstance(target, MmioDevice) \
                    or base + 8 * len(words) > region.end:
                return None
            targets.append(target)
        sim = self.sim
        params = self.params
        now = sim.now
        occupancy = params.store_occupancy
        start = max(now, self.host_port.next_free)
        count = sum(len(words) for _base, words in blocks)
        # The reference loop logs each store at its call cycle: the
        # first at ``now``, each later one when its predecessor's
        # ``issued`` event released the host — an arithmetic
        # progression, charged as one vectorized int64 pass.
        issues = (start
                  + occupancy * numpy.arange(count, dtype=numpy.int64))
        if count:
            issues[0] = now
        issue_list = iter(issues.tolist())
        self.transactions.extend(
            Transaction(TransactionKind.WRITE, "host",
                        (base + 8 * index,), word, False, issued_at)
            for base, words in blocks
            for (index, word), issued_at in zip(enumerate(words),
                                                issue_list))
        for target, (base, words) in zip(targets, blocks):
            target.write_words(base, words)
        finish = start + count * occupancy
        self.host_port.charge_bulk(requests=count,
                                   busy_cycles=count * occupancy,
                                   next_free=finish)
        self.ff_store_runs += 1
        self.ff_stores += count
        acked = sim.event(name="noc.host_block.acked")
        sim.schedule(
            finish - now + params.request_latency + params.response_latency,
            _trigger_at_now, acked)
        return acked

    def charge_host_poll_reads(self, addr: int, first_issue: int,
                               period: int, count: int) -> None:
        """Account ``count`` host poll loads without simulating them.

        The virtualized completion-poll path computes analytically when
        each skipped load would have issued; this charges exactly what
        the simulated loads would have: one logged READ transaction per
        load (``issued_at`` at the true issue cycle) and the host
        port's occupancy and request count.  Entries are appended in
        one batch, so their *list position* relative to concurrent
        cluster traffic can differ from a fully simulated run — counts,
        timestamps, and port accounting are identical.
        """
        occupancy = self.params.load_occupancy
        # One vectorized pass over the whole poll segment: the issue
        # schedule is an arithmetic progression, so the per-read
        # multiply-adds collapse into a single int64 array op (the
        # logged records are identical, entry for entry).
        issues = (first_issue
                  + period * numpy.arange(count, dtype=numpy.int64)).tolist()
        target = (addr,)
        self.transactions.extend(
            Transaction(TransactionKind.READ, "host", target, None, False,
                        issued_at)
            for issued_at in issues)
        self.host_port.charge_bulk(
            requests=count, busy_cycles=count * occupancy,
            next_free=first_issue + (count - 1) * period + occupancy)

    def reset(self) -> None:
        """Restore boot state: empty transaction log, idle ports."""
        self.transactions.clear()
        self.ff_store_runs = 0
        self.ff_stores = 0
        self.host_port.reset()
        self.amo_port.reset()
        for port in self.cluster_ports:
            port.reset()

    def _log(self, kind: TransactionKind, source: str,
             addresses: typing.Tuple[int, ...],
             value: typing.Optional[int]) -> None:
        self.transactions.append(Transaction(
            kind=kind, source=source, addresses=addresses, value=value,
            posted=False, issued_at=self.sim.now,
        ))

    def count(self, kind: TransactionKind,
              source: typing.Optional[str] = None) -> int:
        """Number of logged transactions of a kind (optionally per source)."""
        return sum(
            1 for txn in self.transactions
            if txn.kind is kind and (source is None or txn.source == source)
        )
