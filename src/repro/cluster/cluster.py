"""The cluster top-level: components + the DM core process."""

from __future__ import annotations

import functools
import typing

import numpy

from repro import flags
from repro.cluster.barrier import Barrier
from repro.cluster.dm_core import serve_jobs
from repro.cluster.dma import DmaEngine
from repro.cluster.mailbox import Mailbox
from repro.cluster.worker import WorkerCore, split_among_cores
from repro.errors import ConfigError
from repro.mem.memory import MainMemory
from repro.mem.tcdm import Tcdm
from repro.noc.xbar import Interconnect
from repro.sim import Simulator, ThroughputChannel, TraceRecorder

if typing.TYPE_CHECKING:
    from repro.kernels.base import Kernel, KernelTiming, WorkSlice
    from repro.soc.fabricbarrier import FabricBarrier
    from repro.soc.tiles import ResolvedTile


@functools.lru_cache(maxsize=4096)
def _phase_core_cycles(kernel: "Kernel", elements: int, num_cores: int,
                       n: int,
                       timing: "typing.Optional[KernelTiming]" = None
                       ) -> typing.Tuple[int, ...]:
    """Per-core compute cycles for one cluster compute phase.

    The whole phase's timing is a function of the cluster slice's
    element count alone (the block schedule splits counts, not
    positions), so one NumPy pass over the per-core counts — via the
    kernel's vectorized timing — covers every cluster and every job of
    a sweep that shares the shape.  Kernel instances are registry
    singletons and ``KernelTiming`` is frozen, so keying the memo on
    the objects is stable.  ``timing`` is a tile class's per-kernel
    rate override; ``None`` uses the kernel's own (default-class)
    timing, including any ``compute_cycles`` subclass override.
    """
    from repro.kernels.base import split_range
    counts = numpy.fromiter(
        (sub.hi - sub.lo for sub in split_range(elements, num_cores)),
        dtype=numpy.int64, count=num_cores)
    if timing is None:
        cycles = kernel.compute_cycles_array(counts, n)
    else:
        cycles = timing.cycles_array(counts)
    return tuple(int(c) for c in cycles)


def _worker_body(cluster: "Cluster", worker: WorkerCore, kernel: "Kernel",
                 sub: "WorkSlice", n: int,
                 timing: "typing.Optional[KernelTiming]"
                 ) -> typing.Generator:
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
                 fabric_barrier: typing.Optional["FabricBarrier"] = None,
                 num_workers: int = 8,
                 wake_latency: int = 4,
                 dm_decode_cycles: int = 12,
                 dma_setup_cycles: int = 8,
                 barrier_latency: int = 2,
                 worker_wake_latency: int = 2,
                 tile: "typing.Optional[ResolvedTile]" = None,
                 trace: typing.Optional[TraceRecorder] = None) -> None:
        if num_workers <= 0:
            raise ConfigError(
                f"cluster {cluster_id} needs at least one worker core, "
                f"got {num_workers}")
        if wake_latency < 0 or dm_decode_cycles < 0:
            raise ConfigError(
                f"cluster {cluster_id}: negative DM-core latency")
        self.sim = sim
        self.cluster_id = cluster_id
        self.noc = noc
        self.memory = memory
        self.tcdm = tcdm
        self.mailbox = mailbox
        self.fabric_barrier = fabric_barrier
        self.wake_latency = wake_latency
        self.dm_decode_cycles = dm_decode_cycles
        #: The resolved tile spec this cluster was built from (``None``
        #: for hand-built clusters, which behave as the default class).
        self.tile = tile
        self.trace = (trace if trace is not None
                      else TraceRecorder(sim, enabled=False))
        self.dma = DmaEngine(
            sim, read_channel, write_channel, setup_cycles=dma_setup_cycles,
            name=f"cluster{cluster_id}.dma")
        self.workers = [
            WorkerCore(sim, cluster_id, core_id,
                       wake_latency=worker_wake_latency)
            for core_id in range(num_workers)
        ]
        # Workers plus the DM core meet at the hardware barrier.
        self.barrier = Barrier(
            sim, parties=num_workers + 1, latency=barrier_latency,
            name=f"cluster{cluster_id}.barrier")
        self.jobs_completed = 0
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
            timing = self.compute_timing(kernel)
            sub_slices = split_among_cores(work, len(self.workers))
            label = f"cluster{self.cluster_id}"
            for worker, sub in zip(self.workers, sub_slices):
                self.sim.spawn(
                    _worker_body(self, worker, kernel, sub, n, timing),
                    name=f"{label}.core{worker.core_id}{name_suffix}",
                )
            yield from self.barrier.wait()
            return
        yield self.compute_phase_fast(kernel, work, n)

    def compute_phase_fast(self, kernel: "Kernel", work: "WorkSlice",
                           n: int) -> "typing.Any":
        """Non-generator form of :meth:`compute_phase`'s fast path.

        Charges every worker core now and returns the barrier release
        event for the caller to park on directly (the DM core's
        flattened fast path).  Callers must have checked
        ``REPRO_NAIVE_BARRIER`` themselves.
        """
        cycles = _phase_core_cycles(
            kernel, work.elements, len(self.workers), n,
            self.compute_timing(kernel))
        last = 0
        for worker, worker_cycles in zip(self.workers, cycles):
            worker.jobs_executed += 1
            worker.busy_cycles += worker_cycles
            delay = worker.wake_latency + worker_cycles
            if delay > last:
                last = delay
        self.ff_compute_phases += 1
        return self.barrier.cross_all_known(last)

    def compute_timing(self, kernel: "Kernel"
                       ) -> "typing.Optional[KernelTiming]":
        """This tile's per-core rate for ``kernel``, or ``None``.

        ``None`` means "use the kernel's own timing" — the default
        class and hand-built clusters, preserving bit-identity with the
        homogeneous fabric.  Rated tile classes must rate every kernel
        they run (``ConfigError`` otherwise, raised by the tile spec).
        """
        if self.tile is None:
            return None
        return self.tile.timing_for(kernel.name)

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
