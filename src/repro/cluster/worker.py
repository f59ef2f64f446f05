"""Worker-core compute timing.

Each of a cluster's 8 worker cores processes a contiguous sub-slice of
the cluster's work slice.  Compute cost per core comes from the kernel's
calibrated streaming-loop timing; the cluster's compute phase ends when
the *slowest* core finishes (uneven sub-slices produce real skew, which
is why measured runtimes deviate slightly from the smooth ``N/(M·8)``
model when the split is ragged — visible in the MAPE experiment).
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError
from repro.kernels.base import Kernel, KernelTiming, WorkSlice, split_range
from repro.sim import Simulator


class WorkerCore:
    """Timing model of one worker core."""

    def __init__(self, sim: Simulator, cluster_id: int, core_id: int,
                 wake_latency: int = 2) -> None:
        if wake_latency < 0:
            raise ConfigError(f"negative worker wake latency {wake_latency}")
        self.sim = sim
        self.cluster_id = cluster_id
        self.core_id = core_id
        self.wake_latency = wake_latency
        self.jobs_executed = 0
        self.busy_cycles = 0

    def compute(self, kernel: Kernel, sub_slice: WorkSlice, n: int,
                timing: KernelTiming) -> typing.Generator:
        """Run the kernel's loop over ``sub_slice`` (timing only).

        ``timing`` is the core's rate for ``kernel`` (its tile class's
        :meth:`~repro.soc.tiles.ResolvedTile.timing_for`).  Empty
        sub-slices still pay the wake latency (the core is released
        from the barrier and immediately re-parks).
        """
        cycles = timing.cycles(kernel.work(sub_slice.elements, n))
        self.jobs_executed += 1
        self.busy_cycles += cycles
        # One scheduler event instead of wake-then-compute: the core
        # resumes at the identical cycle, and nothing can observe the
        # intermediate wake instant (the core touches no shared
        # resource between waking and finishing its loop).
        delay = self.wake_latency + cycles
        if delay:
            yield delay

    def reset(self) -> None:
        """Zero the statistics counters (boot state)."""
        self.jobs_executed = 0
        self.busy_cycles = 0


def split_among_cores(work: WorkSlice, num_cores: int) -> typing.List[WorkSlice]:
    """Split a cluster's slice into per-core sub-slices (block schedule).

    Only the ``REPRO_NAIVE_BARRIER`` reference path spawns one process
    per sub-slice; the default path times the phase in closed form
    (:meth:`~repro.cluster.cluster.Cluster.phase_cycles`).
    """
    return [WorkSlice(sub.index, work.lo + sub.lo, work.lo + sub.hi)
            for sub in split_range(work.elements, num_cores)]
