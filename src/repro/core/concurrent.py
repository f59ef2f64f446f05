"""Concurrent space-shared offloads: several jobs, disjoint cluster ranges.

A 32-cluster fabric running one 16-cluster job leaves half the machine
idle; space sharing launches several jobs at once on disjoint cluster
ranges.  Because all jobs' constant offload overheads (descriptor
stores, dispatch, wake-up, synchronization) overlap in time — and the
shared memory channels serialize the same aggregate DMA either way —
space sharing amortizes exactly the overhead the paper attacks; see
experiment E10 (``repro concurrency``).

Cluster ranges are assigned contiguously in job order.  Completion uses
a single credit-counter threshold equal to the total cluster count (the
unit doubles as a cross-job completion barrier), or one AMO flag per
job on baseline hardware.

Each job is checked as a :class:`repro.core.staging.JobRequest` and
staged through :class:`repro.core.staging.JobBinding`, the same
binding the plain offload path uses; all checks run before any
staging.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

import numpy

from repro.core.staging import (
    DEFAULT_MAX_CYCLES,
    JobBinding,
    JobRequest,
    launch,
    released_memory,
)
from repro.runtime.protocol import make_runtime
from repro.runtime.trace import build_offload_trace
from repro.soc.manticore import ManticoreSystem


@dataclasses.dataclass(frozen=True)
class ConcurrentJob:
    """One job in a concurrent launch."""

    kernel_name: str
    n: int
    num_clusters: int
    scalars: typing.Optional[typing.Mapping[str, float]] = None
    inputs: typing.Optional[typing.Mapping[str, numpy.ndarray]] = None
    seed: int = 0
    exec_mode: str = "phased"


@dataclasses.dataclass(frozen=True)
class ConcurrentJobResult:
    """One job's outcome within a concurrent launch."""

    kernel_name: str
    n: int
    num_clusters: int
    first_cluster: int
    outputs: typing.Mapping[str, numpy.ndarray]
    #: Cycle at which this job's last cluster signalled completion.
    completed_cycle: int
    verified: typing.Optional[bool]


@dataclasses.dataclass(frozen=True)
class ConcurrentOffloadResult:
    """A whole concurrent launch."""

    jobs: typing.Tuple[ConcurrentJobResult, ...]
    start_cycle: int
    end_cycle: int
    variant: str

    @property
    def makespan_cycles(self) -> int:
        """Host-observed time from launch to all-jobs-complete."""
        return self.end_cycle - self.start_cycle

    def __str__(self) -> str:
        names = "+".join(job.kernel_name for job in self.jobs)
        return (f"concurrent[{names}] on "
                f"{sum(j.num_clusters for j in self.jobs)} clusters "
                f"[{self.variant}]: {self.makespan_cycles} cycles")


def offload_concurrent(system: ManticoreSystem,
                       jobs: typing.Sequence[ConcurrentJob],
                       variant: str = "auto", verify: bool = True,
                       max_cycles: int = DEFAULT_MAX_CYCLES
                       ) -> ConcurrentOffloadResult:
    """Launch several jobs at once on disjoint cluster ranges.

    Ranges are assigned contiguously in job order, so their total
    width must fit the fabric.  Every job is checked in full
    (:meth:`~repro.core.staging.JobRequest.offload`: kernel, exec mode,
    span, TCDM fit, inputs) before any job is staged, so a refused
    launch leaves the system's memory as it found it.

    Raises
    ------
    OffloadError
        On empty launches, over-wide totals, or invalid job requests,
        all before any simulation.
    """
    runtime = make_runtime(system, variant)
    firsts = list(itertools.accumulate(
        [0] + [job.num_clusters for job in jobs[:-1]]))
    requests = [
        JobRequest.offload(system.config, job.kernel_name, job.n,
                           job.num_clusters, scalars=job.scalars,
                           inputs=job.inputs, seed=job.seed,
                           exec_mode=job.exec_mode, first_cluster=first)
        for job, first in zip(jobs, firsts)]
    with released_memory(system):
        bindings = [JobBinding.stage(system, request, runtime)
                    for request in requests]
        result_box = launch(runtime, bindings, "offload.concurrent",
                            max_cycles)
        finished = [binding.finish(verify) for binding in bindings]

    trace = build_offload_trace(
        system.trace, result_box["start_cycle"], result_box["end_cycle"])
    completion_by_cluster = {
        phases.cluster_id: phases.completion_signalled
        for phases in trace.clusters
    }

    job_results = []
    for job, binding, (outputs, verified) in zip(jobs, bindings, finished):
        first_cluster = binding.desc.first_cluster
        completed = max(
            completion_by_cluster[cid]
            for cid in range(first_cluster,
                             first_cluster + job.num_clusters))
        job_results.append(ConcurrentJobResult(
            kernel_name=job.kernel_name, n=job.n,
            num_clusters=job.num_clusters, first_cluster=first_cluster,
            outputs=outputs, completed_cycle=completed, verified=verified))

    return ConcurrentOffloadResult(
        jobs=tuple(job_results),
        start_cycle=result_box["start_cycle"],
        end_cycle=result_box["end_cycle"],
        variant=runtime.name)
