"""Stochastic job arrivals: the traffic engine's front end.

Three arrival processes cover the sustained-load regimes the follow-up
paper (Taming Offload Overheads, arXiv:2505.05911) analyses:

- :class:`PoissonArrivals` — memoryless open traffic, the M/G/k
  baseline every queueing result is stated against;
- :class:`BurstyArrivals` — a Markov-modulated on/off process: bursts
  of closely spaced jobs separated by idle gaps, the shape real
  fine-grained offload streams have (one application phase issues many
  small jobs, then computes);
- :class:`TraceArrivals` — recorded-trace replay: a captured list of
  arrival offsets replayed (periodically, if the scenario outlasts the
  recording), for when the question is "what would this policy have
  done on *that* day".

:func:`generate_traffic` turns any process into a timestamped,
per-tenant :class:`~repro.workload.JobSpec` stream.  One
``numpy.random.Generator`` seeded from the scenario seed drives every
draw — arrival gaps, tenant assignment, kernel mix, sizes and per-job
input seeds — so a scenario is one integer to reproduce.
"""

from __future__ import annotations

import typing

import numpy

from repro.errors import TrafficError
from repro.workload import JobSpec, job_shape_sampler


class ArrivalProcess:
    """Base class: produces nondecreasing arrival cycles.

    Subclasses either implement :meth:`interarrival_cycles` (stochastic
    processes — arrivals are the running sum of gaps) or override
    :meth:`arrival_cycles` outright (trace replay).
    """

    name = "arrivals"

    def interarrival_cycles(self, rng: numpy.random.Generator) -> float:
        """Gap to the next arrival, in cycles (may be fractional)."""
        raise NotImplementedError

    def arrival_cycles(self, num_jobs: int,
                       rng: numpy.random.Generator) -> typing.List[int]:
        """``num_jobs`` nondecreasing absolute arrival cycles."""
        if num_jobs <= 0:
            raise TrafficError(
                f"traffic needs at least one job, got {num_jobs}")
        now = 0.0
        times = []
        for _ in range(num_jobs):
            gap = float(self.interarrival_cycles(rng))
            if gap < 0:
                raise TrafficError(
                    f"{self.name}: negative interarrival gap {gap}")
            now += gap
            times.append(int(now))
        return times


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals with exponential interarrival gaps."""

    name = "poisson"

    def __init__(self, mean_interarrival_cycles: float) -> None:
        if mean_interarrival_cycles <= 0:
            raise TrafficError(
                f"mean interarrival must be positive, got "
                f"{mean_interarrival_cycles}")
        self.mean_interarrival_cycles = float(mean_interarrival_cycles)

    def interarrival_cycles(self, rng: numpy.random.Generator) -> float:
        return rng.exponential(self.mean_interarrival_cycles)


class BurstyArrivals(ArrivalProcess):
    """Markov-modulated on/off arrivals: bursts separated by idle gaps.

    While ON, gaps are exponential with mean
    ``burst_interarrival_cycles``; after each job the process leaves
    the burst with probability ``1 / mean_burst_jobs``, inserting an
    exponential OFF gap of mean ``mean_idle_cycles`` before the next
    burst.  Mean rate is comparable to a Poisson process of mean gap
    ``burst_interarrival + idle / burst_jobs``, but arrivals cluster —
    which is what stresses admission control.
    """

    name = "bursty"

    def __init__(self, burst_interarrival_cycles: float,
                 mean_burst_jobs: float,
                 mean_idle_cycles: float) -> None:
        if burst_interarrival_cycles <= 0 or mean_idle_cycles <= 0:
            raise TrafficError(
                "burst interarrival and idle gaps must be positive, got "
                f"{burst_interarrival_cycles} and {mean_idle_cycles}")
        if mean_burst_jobs < 1:
            raise TrafficError(
                f"mean burst length must be >= 1 job, got {mean_burst_jobs}")
        self.burst_interarrival_cycles = float(burst_interarrival_cycles)
        self.mean_burst_jobs = float(mean_burst_jobs)
        self.mean_idle_cycles = float(mean_idle_cycles)

    def interarrival_cycles(self, rng: numpy.random.Generator) -> float:
        gap = rng.exponential(self.burst_interarrival_cycles)
        if rng.random() < 1.0 / self.mean_burst_jobs:
            gap += rng.exponential(self.mean_idle_cycles)
        return gap


class TraceArrivals(ArrivalProcess):
    """Replay a recorded list of arrival offsets.

    ``offsets`` are nondecreasing cycles within one recorded period;
    when the scenario asks for more jobs than the recording holds, the
    trace repeats shifted by ``period_cycles`` per lap.  No randomness
    is consumed for arrival times (the RNG still drives the job mix),
    so two policies replaying the same trace see identical timestamps.
    """

    name = "trace"

    def __init__(self, offsets: typing.Sequence[int],
                 period_cycles: typing.Optional[int] = None) -> None:
        offsets = [int(value) for value in offsets]
        if not offsets:
            raise TrafficError("a recorded trace needs at least one arrival")
        if any(value < 0 for value in offsets):
            raise TrafficError("trace offsets must be non-negative")
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise TrafficError("trace offsets must be nondecreasing")
        if period_cycles is None:
            period_cycles = offsets[-1] + 1
        if period_cycles <= offsets[-1]:
            raise TrafficError(
                f"trace period {period_cycles} must exceed the last "
                f"recorded offset {offsets[-1]}")
        self.offsets = offsets
        self.period_cycles = int(period_cycles)

    def arrival_cycles(self, num_jobs: int,
                       rng: numpy.random.Generator) -> typing.List[int]:
        if num_jobs <= 0:
            raise TrafficError(
                f"traffic needs at least one job, got {num_jobs}")
        times = []
        for index in range(num_jobs):
            lap, slot = divmod(index, len(self.offsets))
            times.append(lap * self.period_cycles + self.offsets[slot])
        return times


def generate_traffic(process: ArrivalProcess, num_jobs: int,
                     tenants: int = 2,
                     kernels: typing.Sequence[str] = ("daxpy", "memcpy"),
                     min_n: int = 16, max_n: int = 4096,
                     seed: int = 0) -> typing.List[JobSpec]:
    """A timestamped multi-tenant job stream from one arrival process.

    Sizes are log-uniform over ``[min_n, max_n]`` (the workload layer's
    fine-grained shape), tenants are drawn uniformly per job, and
    per-job input seeds come from the same generator — one RNG, one
    scenario.  Jobs come back sorted by arrival cycle.
    """
    if tenants <= 0:
        raise TrafficError(f"traffic needs at least one tenant, got {tenants}")
    draw = job_shape_sampler(kernels, min_n, max_n, TrafficError)
    rng = numpy.random.default_rng(seed)
    times = process.arrival_cycles(num_jobs, rng)
    jobs = []
    for arrival in times:
        kernel, n = draw(rng)
        jobs.append(JobSpec(
            kernel_name=kernel, n=n,
            seed=int(rng.integers(0, 2**63)),
            tenant=int(rng.integers(0, tenants)),
            arrival_cycle=int(arrival)))
    return jobs
