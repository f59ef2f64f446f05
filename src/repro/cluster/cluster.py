"""The cluster top-level: components + the DM core process."""

from __future__ import annotations

import typing

from repro import flags
from repro.cluster.barrier import Barrier
from repro.cluster.dm_core import LaunchContext, serve_jobs
from repro.cluster.dma import DmaEngine
from repro.cluster.mailbox import Mailbox
from repro.cluster.worker import WorkerCore, split_among_cores
from repro.mem.memory import MainMemory
from repro.mem.tcdm import Tcdm
from repro.noc.xbar import Interconnect
from repro.sim import Simulator, ThroughputChannel, TraceRecorder

if typing.TYPE_CHECKING:
    from repro.kernels.base import Kernel, KernelTiming, WorkSlice
    from repro.soc.fabricbarrier import FabricBarrier
    from repro.soc.tiles import ResolvedTile


def _worker_body(cluster: "Cluster", worker: WorkerCore, kernel: "Kernel",
                 sub: "WorkSlice", n: int,
                 timing: "KernelTiming") -> typing.Generator:
    """One spawned worker core: compute, then meet at the barrier.

    The reference compute-phase body, used when ``REPRO_NAIVE_BARRIER``
    disables the closed-form crossing.
    """
    yield from worker.compute(kernel, sub, n, timing)
    yield from cluster.barrier.wait()


class Cluster:
    """One compute cluster: DM core, worker cores, TCDM, DMA, barrier.

    The cluster is passive until :meth:`start` spawns the DM core's
    :func:`~repro.cluster.dm_core.serve_jobs` loop; after that it serves
    every job the host dispatches to its mailbox for the lifetime of the
    simulation.
    """

    def __init__(self, sim: Simulator, cluster_id: int, noc: Interconnect,
                 memory: MainMemory, tcdm: Tcdm, mailbox: Mailbox,
                 read_channel: ThroughputChannel,
                 write_channel: ThroughputChannel,
                 tile: "ResolvedTile", launch: LaunchContext,
                 fabric_barrier: typing.Optional["FabricBarrier"] = None,
                 trace: typing.Optional[TraceRecorder] = None) -> None:
        self.sim = sim
        self.cluster_id = cluster_id
        self.noc = noc
        self.memory = memory
        self.tcdm = tcdm
        self.mailbox = mailbox
        self.fabric_barrier = fabric_barrier
        #: The launch context this cluster's DM core reads at each
        #: doorbell (the system shares one across its clusters).
        self.launch = launch
        self.wake_latency = tile.wake_latency
        self.dm_decode_cycles = tile.dm_decode_cycles
        #: The resolved tile spec (core count, latencies, kernel rates)
        #: this cluster is built from.
        self.tile = tile
        self.trace = (trace if trace is not None
                      else TraceRecorder(sim, enabled=False))
        self.dma = DmaEngine(
            sim, read_channel, write_channel,
            setup_cycles=tile.dma_setup_cycles,
            name=f"cluster{cluster_id}.dma")
        self.workers = [
            WorkerCore(sim, cluster_id, core_id,
                       wake_latency=tile.worker_wake_latency)
            for core_id in range(tile.cores_per_tile)
        ]
        # Workers plus the DM core meet at the hardware barrier.
        self.barrier = Barrier(
            sim, parties=tile.cores_per_tile + 1,
            latency=tile.barrier_latency,
            name=f"cluster{cluster_id}.barrier")
        self.jobs_completed = 0
        #: Doorbell-to-completion cycles of every job served (the DM
        #: core's active time), charged as each completion is signalled.
        self.dm_active_cycles = 0
        #: Compute phases resolved through the barrier's closed-form
        #: crossing instead of one spawned process per worker core.
        self.ff_compute_phases = 0
        self._dm_process = None

    def compute_phase(self, kernel: "Kernel", work: "WorkSlice", n: int,
                      name_suffix: str = "") -> typing.Generator:
        """Run one worker compute phase over ``work`` (DM-core side).

        Fast path (default): every core's finish delay is known up
        front (wake latency plus calibrated loop cycles), so the phase
        charges all worker statistics now and crosses the barrier in
        closed form — two timer callbacks instead of ``num_workers``
        spawned processes.  ``REPRO_NAIVE_BARRIER`` selects the
        reference path: spawn one process per core, each arriving at
        the barrier individually.  Both paths resume the DM core at the
        identical cycle with identical event ordering.
        """
        if flags.naive_barrier():
            timing = self.tile.timing_for(kernel)
            sub_slices = split_among_cores(work, len(self.workers))
            label = f"cluster{self.cluster_id}"
            for worker, sub in zip(self.workers, sub_slices):
                self.sim.spawn(
                    _worker_body(self, worker, kernel, sub, n, timing),
                    name=f"{label}.core{worker.core_id}{name_suffix}",
                )
            yield from self.barrier.wait()
            return
        yield self.cross_compute_phase(
            self.phase_cycles(kernel, work.elements, n))

    def phase_cycles(self, kernel: "Kernel", elements: int,
                     n: int) -> typing.Tuple[int, ...]:
        """Per-worker cycles of a compute phase over ``elements`` items
        of an ``n``-item ``kernel`` job on this cluster's tile.

        The block schedule gives the first ``r`` of ``c`` cores ``q + 1``
        items and the rest ``q``, where ``q, r = divmod(elements, c)``,
        so the phase takes two timing evaluations whatever ``c`` is.
        """
        timing = self.tile.timing_for(kernel)
        cores = len(self.workers)
        q, r = divmod(elements, cores)
        return ((timing.cycles(kernel.work(q + 1, n)),) * r
                + (timing.cycles(kernel.work(q, n)),) * (cores - r))

    def cross_compute_phase(self, cycles: typing.Tuple[int, ...]
                            ) -> "typing.Any":
        """Charge each worker its ``cycles`` and cross the barrier in
        closed form; returns the release event for the caller to park
        on directly (the fast path of :meth:`compute_phase`, and the DM
        core's flattened one)."""
        return self.barrier.cross_all_known(
            self.charge_compute_phase(cycles))

    def charge_compute_phase(self, cycles: typing.Tuple[int, ...]) -> int:
        """Charge each worker its ``cycles`` of a closed-form compute
        phase; returns the last worker's barrier arrival delay."""
        last = 0
        for worker, worker_cycles in zip(self.workers, cycles):
            worker.jobs_executed += 1
            worker.busy_cycles += worker_cycles
            delay = worker.wake_latency + worker_cycles
            if delay > last:
                last = delay
        self.ff_compute_phases += 1
        return last

    def start(self):
        """Spawn the DM core's job-serving loop (idempotent)."""
        if self._dm_process is None:
            self._dm_process = self.sim.spawn(
                serve_jobs(self), name=f"cluster{self.cluster_id}.dm")
        return self._dm_process

    def reset(self) -> None:
        """Restore boot state after a drained run.

        The DM core's :func:`serve_jobs` process survives: parked on its
        mailbox event it is indistinguishable from a freshly-started
        loop, so it is *not* respawned (see
        :meth:`repro.soc.manticore.ManticoreSystem.reset` for the
        system-wide invariants).
        """
        self.jobs_completed = 0
        self.dm_active_cycles = 0
        self.ff_compute_phases = 0
        self.mailbox.reset()
        self.dma.reset()
        self.barrier.reset()
        for worker in self.workers:
            worker.reset()
        self.tcdm.reset()

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cluster {self.cluster_id} workers={self.num_workers} "
                f"jobs={self.jobs_completed}>")
