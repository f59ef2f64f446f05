"""The Manticore-class MPSoC: construction and wiring.

``ManticoreSystem`` instantiates and connects every block from a
:class:`~repro.soc.config.SoCConfig`: the simulation kernel, shared main
memory and its two data channels, the control interconnect, the CVA6-
class host (LSU + interrupt controller), the credit-counter sync unit,
and one :class:`~repro.cluster.Cluster` per fabric slot (each with its
TCDM, DMA engine, mailbox, barrier and worker cores).  Cluster DM cores
start serving their mailboxes immediately.

System address map::

    0x0200_0000  sync unit registers
    0x0400_0000  cluster peripherals, one 64 KiB block per cluster
                 (mailbox at offset 0)
    0x1000_0000  cluster TCDMs, one 1 MiB-aligned block per cluster
    0x8000_0000  shared main memory

Construction is the expensive part of a measurement at sweep scale, so
instances are reusable: :meth:`ManticoreSystem.reset` restores boot
state bit-identically once a run has drained, in O(dirty state), and
:class:`repro.soc.pool.SystemPool` recycles the same instance through it
for successive same-config measurements.
"""

from __future__ import annotations

import typing

from repro.cluster.cluster import Cluster
from repro.cluster.mailbox import JOB_PTR_OFFSET, Mailbox
from repro.errors import ConfigError, QuiescenceError
from repro.host.cva6 import HostCore
from repro.host.irq import InterruptController
from repro.host.lsu import LoadStoreUnit
from repro.mem.map import AddressMap, Region
from repro.mem.memory import MainMemory
from repro.mem.tcdm import Tcdm
from repro.noc.multicast import multicast_targets
from repro.noc.xbar import Interconnect
from repro.sim import (
    AccessAuditor,
    QuiescenceAudit,
    QuiescenceReport,
    Simulator,
    ThroughputChannel,
    TraceRecorder,
)
from repro.soc.config import SoCConfig
from repro.soc.fabricbarrier import FabricBarrier
from repro.soc import syncunit as syncunit_regs
from repro.soc.syncunit import SyncUnit

SYNCUNIT_BASE = 0x0200_0000
SYNCUNIT_SIZE = 0x1000
CLUSTER_PERIPH_BASE = 0x0400_0000
CLUSTER_PERIPH_STRIDE = 0x0001_0000
CLUSTER_PERIPH_SIZE = 0x1000
TCDM_BASE = 0x1000_0000
TCDM_STRIDE = 0x0010_0000
DRAM_BASE = 0x8000_0000


class ManticoreSystem:
    """A fully-wired MPSoC instance ready to run offloads."""

    def __init__(self, config: typing.Optional[SoCConfig] = None,
                 record_trace: bool = True) -> None:
        self.config = config or SoCConfig()
        self.sim = Simulator()
        self.trace = TraceRecorder(self.sim, enabled=record_trace)
        #: Shared MMIO access auditor; every device built below reports
        #: anomalous accesses here (see ``repro.sim.diag``).
        self.auditor = AccessAuditor(self.sim)

        # --- Memory -------------------------------------------------------
        self.memory = MainMemory(
            size_bytes=self.config.main_memory_bytes, base=DRAM_BASE)
        self.address_map = AddressMap()
        self.address_map.add(Region(
            "dram", self.memory.base, self.memory.size_bytes, self.memory))
        # The channels' only requesters are the cluster DMA engines,
        # which all share one setup time — exactly the constant-lead
        # contract the reservation fast-forward needs (see
        # repro.sim.resource).
        self.read_channel = ThroughputChannel(
            self.sim, self.config.mem_read_width_bytes, name="mem.read",
            reserve_lead=self.config.dma_setup_cycles)
        self.write_channel = ThroughputChannel(
            self.sim, self.config.mem_write_width_bytes, name="mem.write",
            reserve_lead=self.config.dma_setup_cycles)

        # --- Host complex --------------------------------------------------
        self.irq = InterruptController(
            self.sim, wake_latency=self.config.host_wfi_wake_latency)
        self.syncunit = SyncUnit(
            self.sim, self.irq, irq_latency=self.config.syncunit_irq_latency,
            auditor=self.auditor)
        self.address_map.add_device(
            "syncunit", SYNCUNIT_BASE, SYNCUNIT_SIZE, self.syncunit)

        self.noc = Interconnect(
            self.sim, self.address_map, self.config.noc_params(),
            num_clusters=self.config.num_clusters)
        self.host = HostCore(
            self.sim,
            LoadStoreUnit(self.noc, multicast_capable=self.config.multicast),
            self.irq, trace=self.trace)

        # --- Accelerator fabric ----------------------------------------------
        self.fabric_barrier = FabricBarrier(
            self.sim,
            arrival_latency=self.config.fabric_barrier_arrival_latency,
            release_latency=self.config.fabric_barrier_release_latency)
        # Clusters are built per fabric group: each cluster slot gets
        # its group's resolved tile spec (worker count, TCDM shape,
        # dispatch/compute latencies).  Homogeneous configs resolve to
        # one default-class group whose tile equals the config knobs
        # exactly, so this loop is bit-identical to the legacy
        # homogeneous construction.
        self.clusters: typing.List[Cluster] = []
        for group in self.config.groups():
            tile = group.tile
            if tile.tcdm_bytes > TCDM_STRIDE:
                raise ConfigError(
                    f"tile group {group.name!r} (class {tile.class_name!r}) "
                    f"declares tcdm_bytes={tile.tcdm_bytes}, which exceeds "
                    f"the {TCDM_STRIDE}-byte per-cluster TCDM window")
            for cluster_id in range(group.start, group.start + group.count):
                mailbox = Mailbox(self.sim, cluster_id)
                mailbox.auditor = self.auditor
                self.address_map.add_device(
                    f"cluster{cluster_id}.periph",
                    CLUSTER_PERIPH_BASE + cluster_id * CLUSTER_PERIPH_STRIDE,
                    CLUSTER_PERIPH_SIZE, mailbox)
                tcdm = Tcdm(
                    size_bytes=tile.tcdm_bytes,
                    base=TCDM_BASE + cluster_id * TCDM_STRIDE,
                    num_banks=tile.tcdm_banks)
                self.address_map.add(Region(
                    f"cluster{cluster_id}.tcdm", tcdm.base, tcdm.size_bytes,
                    tcdm))
                cluster = Cluster(
                    self.sim, cluster_id, self.noc, self.memory, tcdm,
                    mailbox, self.read_channel, self.write_channel,
                    fabric_barrier=self.fabric_barrier,
                    num_workers=tile.cores_per_tile,
                    wake_latency=tile.wake_latency,
                    dm_decode_cycles=tile.dm_decode_cycles,
                    dma_setup_cycles=tile.dma_setup_cycles,
                    barrier_latency=tile.barrier_latency,
                    worker_wake_latency=tile.worker_wake_latency,
                    tile=tile,
                    trace=self.trace)
                cluster.start()
                self.clusters.append(cluster)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def mailbox_addr(self, cluster_id: int) -> int:
        """Doorbell (JOB_PTR) register address of one cluster."""
        if not 0 <= cluster_id < self.config.num_clusters:
            raise IndexError(
                f"cluster id {cluster_id} out of range "
                f"[0, {self.config.num_clusters})")
        return (CLUSTER_PERIPH_BASE + cluster_id * CLUSTER_PERIPH_STRIDE
                + JOB_PTR_OFFSET)

    def mailbox_addrs(self, num_clusters: int,
                      first_cluster: int = 0) -> typing.Tuple[int, ...]:
        """Doorbell addresses of the cluster range (multicast target set)."""
        if first_cluster < 0 or num_clusters <= 0 \
                or first_cluster + num_clusters > self.config.num_clusters:
            raise IndexError(
                f"cannot target clusters [{first_cluster}, "
                f"{first_cluster + num_clusters}) on a "
                f"{self.config.num_clusters}-cluster fabric")
        return multicast_targets(
            base=CLUSTER_PERIPH_BASE + first_cluster * CLUSTER_PERIPH_STRIDE,
            stride=CLUSTER_PERIPH_STRIDE,
            count=num_clusters, offset=JOB_PTR_OFFSET)

    @property
    def syncunit_threshold_addr(self) -> int:
        return SYNCUNIT_BASE + syncunit_regs.THRESHOLD_OFFSET

    @property
    def syncunit_increment_addr(self) -> int:
        return SYNCUNIT_BASE + syncunit_regs.INCREMENT_OFFSET

    @property
    def syncunit_count_addr(self) -> int:
        return SYNCUNIT_BASE + syncunit_regs.COUNT_OFFSET

    # ------------------------------------------------------------------
    # Reuse
    # ------------------------------------------------------------------
    def audit_quiescence(self) -> QuiescenceReport:
        """Verify every block is back at (resettable) boot state.

        A clean report means the previous run fully drained: no queued
        callbacks, no in-flight NoC or memory-channel transactions, no
        armed sync unit, no pending or awaited interrupts, no open
        barriers, and each cluster's DM core parked on its mailbox
        exactly as after boot.  :meth:`reset` runs this audit first and
        refuses to recycle a dirty system.
        """
        audit = QuiescenceAudit()
        audit.expect("sim", "pending callbacks", 0, self.sim.pending)
        audit.expect("noc.host_port", "backlog cycles", 0,
                     self.noc.host_port.backlog)
        audit.expect("noc.amo_port", "backlog cycles", 0,
                     self.noc.amo_port.backlog)
        for cluster_id, port in enumerate(self.noc.cluster_ports):
            audit.expect(f"noc.cluster_port[{cluster_id}]", "backlog cycles",
                         0, port.backlog)
        audit.expect("mem.read", "backlog cycles", 0,
                     self.read_channel.backlog)
        audit.expect("mem.write", "backlog cycles", 0,
                     self.write_channel.backlog)
        audit.expect("syncunit", "armed", False, self.syncunit.armed)
        audit.expect("irq", "parked waiters", {}, self.irq.parked_waiters())
        audit.expect("irq", "pending lines", (), self.irq.pending_lines())
        audit.expect("fabric_barrier", "open groups", (),
                     self.fabric_barrier.open_groups)
        for cluster in self.clusters:
            name = f"cluster{cluster.cluster_id}"
            audit.expect(f"{name}.barrier", "parties waiting", 0,
                         cluster.barrier.waiting)
            audit.expect(f"{name}.mailbox", "doorbell waiters", 1,
                         cluster.mailbox.waiters)
        return audit.report()

    def reset(self, audited: bool = False) -> None:
        """Restore the system to boot state for the next measurement.

        Safe only once the simulation has fully drained (``run()``
        returned with nothing pending): the clock rewinds to cycle 0,
        allocators, counters, peripherals, memory contents, transaction
        and trace logs all return to their post-construction values.
        The one intentional difference from a fresh instance is that
        each cluster's DM core is already parked on its mailbox event
        rather than pending its kick-off callback — timing-equivalent,
        because the host's setup phase strictly precedes the first
        doorbell (see ``tests/property/test_system_reuse.py``).

        Raises
        ------
        QuiescenceError
            If the boot-state audit finds residue from the previous run
            (queued callbacks, in-flight transactions, parked waiters).
            The failing :class:`~repro.sim.QuiescenceReport` is attached
            as the exception's ``report`` attribute.

        ``audited=True`` skips the audit; only callers that *just* ran
        it (e.g. :class:`~repro.soc.pool.SystemPool`, which audits on
        release and recycles with nothing running in between) may pass
        it.
        """
        if not audited:
            quiescence = self.audit_quiescence()
            if not quiescence.ok:
                error = QuiescenceError(
                    "cannot reset a non-quiescent system\n"
                    + quiescence.describe())
                error.report = quiescence
                raise error
        self.sim.reset()  # validates the queues are drained
        self.trace.clear()
        self.address_map.clear_watchpoints()
        self.memory.reset()
        self.read_channel.reset()
        self.write_channel.reset()
        self.noc.reset()
        self.irq.reset()
        self.syncunit.reset()
        self.fabric_barrier.reset()
        self.host.reset()
        for cluster in self.clusters:
            cluster.reset()
        self.auditor.clear()

    # ------------------------------------------------------------------
    # Fast-forward accounting
    # ------------------------------------------------------------------
    def fastforward_stats(self) -> typing.Dict[str, int]:
        """Aggregate hit/fallback counters of every fast-forward layer.

        A/B harnesses assert on these to prove the fast paths actually
        engaged (a bit-identical result proves nothing if the closed
        forms never ran).
        """
        return {
            "channel_requests": (self.read_channel.ff_requests
                                 + self.write_channel.ff_requests),
            "channel_conflicts": (self.read_channel.ff_conflicts
                                  + self.write_channel.ff_conflicts),
            "dma_transfers": sum(
                cluster.dma.ff_transfers for cluster in self.clusters),
            "dma_fallbacks": sum(
                cluster.dma.ff_fallbacks for cluster in self.clusters),
            "barrier_crossings": sum(
                cluster.barrier.ff_crossings for cluster in self.clusters),
            "compute_phases": sum(
                cluster.ff_compute_phases for cluster in self.clusters),
            "fabric_arrivals": self.fabric_barrier.ff_arrivals,
            "staged_store_runs": self.noc.ff_store_runs,
            "staged_stores": self.noc.ff_stores,
        }

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run(self, until=None) -> int:
        """Run the simulation (see :meth:`repro.sim.Simulator.run`)."""
        return self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ManticoreSystem {self.config.describe()}>"
