"""Worker-core compute timing.

Each of a cluster's 8 worker cores processes a contiguous sub-slice of
the cluster's work slice.  Compute cost per core comes from the kernel's
calibrated streaming-loop timing; the cluster's compute phase ends when
the *slowest* core finishes (uneven sub-slices produce real skew, which
is why measured runtimes deviate slightly from the smooth ``N/(M·8)``
model when the split is ragged — visible in the MAPE experiment).
"""

from __future__ import annotations

import functools
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

    def charge(self, kernel: Kernel, sub_slice: WorkSlice, n: int,
               timing: typing.Optional[KernelTiming] = None) -> int:
        """Charge one compute phase's statistics and return the delay
        (wake plus loop cycles) until this core meets the barrier.

        The analytic twin of :meth:`compute`: the compute-phase
        fast-forward charges every core up front and resolves the phase
        to the maximum returned delay instead of parking one process
        per core.  ``timing`` overrides the kernel's own per-core rate
        (a heterogeneous tile class's rate table); ``None`` keeps the
        kernel timing, which is the default-class path.
        """
        if timing is None:
            cycles = kernel.compute_cycles(sub_slice.elements, n)
        else:
            cycles = timing.cycles(sub_slice.elements)
        self.jobs_executed += 1
        self.busy_cycles += cycles
        return self.wake_latency + cycles

    def compute(self, kernel: Kernel, sub_slice: WorkSlice, n: int,
                timing: typing.Optional[KernelTiming] = None
                ) -> typing.Generator:
        """Run the kernel's loop over ``sub_slice`` (timing only).

        Empty sub-slices still pay the wake latency (the core is
        released from the barrier and immediately re-parks).
        """
        # One scheduler event instead of wake-then-compute: the core
        # resumes at the identical cycle, and nothing can observe the
        # intermediate wake instant (the core touches no shared
        # resource between waking and finishing its loop).
        delay = self.charge(kernel, sub_slice, n, timing)
        if delay:
            yield delay

    def reset(self) -> None:
        """Zero the statistics counters (boot state)."""
        self.jobs_executed = 0
        self.busy_cycles = 0

@functools.lru_cache(maxsize=4096)
def _split_among_cores_cached(
        elements: int, lo: int,
        num_cores: int) -> typing.Tuple[WorkSlice, ...]:
    relative = split_range(elements, num_cores)
    return tuple(
        WorkSlice(index=sub.index, lo=lo + sub.lo, hi=lo + sub.hi)
        for sub in relative
    )


def split_among_cores(work: WorkSlice, num_cores: int) -> typing.List[WorkSlice]:
    """Split a cluster's slice into per-core sub-slices (block schedule).

    Memoized per ``(elements, lo, num_cores)`` the way ``split_range``
    is per ``(total, parts)``: a sweep recomputes the same splits for
    every job, and ``WorkSlice`` is frozen so cached slices are safely
    shared.
    """
    return list(_split_among_cores_cached(
        work.elements, work.lo, num_cores))
