"""The admission/scheduling loop: Eq. 3 as a served policy.

:class:`TrafficEngine` is the virtual-time server of the
:class:`repro.workload.Policy` policies.  It replays a timestamped job
stream against the fitted platform models (an Eq.-1
:class:`~repro.core.model.OffloadModel` plus a
:class:`~repro.core.decision.HostExecutionModel` per kernel — exactly
what :func:`repro.workload.characterize_platform` fits) and a
virtual-time :class:`~repro.traffic.occupancy.FabricOccupancy`.  Each
job gets a deadline ``arrival + slack × t̂_host(N)``; the policy under
test decides where it runs:

- ``AlwaysHost`` / ``AlwaysOffload`` — the static baselines.  The
  host is one serial server (a FIFO queue); offloads reserve clusters.
- ``ModelDriven`` — E9's policy applied online: per job, the faster
  *predicted* side at the runtime-optimal width, blind to queues.
- :class:`DeadlineAware` — the paper's Eq. 3 served online:
  :func:`~repro.core.decision.min_clusters_for_deadline` gives the
  minimum width meeting the job's remaining budget, the occupancy
  model widens it past queued reservations if needed, the host absorbs
  jobs whose deadline Eq. 3 cannot meet at any width, and jobs no
  placement can serve in time are shed at admission instead of wasting
  capacity on a guaranteed miss.

Service durations are model predictions rounded up to whole cycles;
nothing here consumes randomness, so a scenario's outcome is a pure
function of the job stream and the fitted models.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.decision import HostExecutionModel, min_clusters_for_deadline
from repro.core.model import OffloadModel
from repro.errors import DecisionError, TrafficError
from repro.traffic.occupancy import FabricOccupancy
from repro.workload import JobSpec, Policy, characterized

#: Placement kinds a :class:`TrafficOutcome` can record.
PLACEMENT_OFFLOAD = "offload"
PLACEMENT_HOST = "host"
PLACEMENT_SHED = "shed"


@dataclasses.dataclass(frozen=True)
class TrafficOutcome:
    """One job's fate under a policy."""

    spec: JobSpec
    #: ``"offload"``, ``"host"`` or ``"shed"``.
    placement: str
    #: Offload width (0 for host and shed placements).
    num_clusters: int
    #: Admission deadline: ``arrival + slack × t̂_host(N)``.
    deadline_cycle: int
    #: Service start (shed jobs never start; both stay at -1).
    start_cycle: int = -1
    end_cycle: int = -1

    @property
    def admitted(self) -> bool:
        return self.placement != PLACEMENT_SHED

    @property
    def sojourn_cycles(self) -> int:
        """Arrival-to-completion time (admitted jobs only)."""
        if not self.admitted:
            raise TrafficError("a shed job has no sojourn time")
        return self.end_cycle - self.spec.arrival_cycle

    @property
    def missed_deadline(self) -> bool:
        """Shed jobs count as misses — nobody served them in time."""
        return (not self.admitted
                or self.end_cycle > self.deadline_cycle)


@dataclasses.dataclass(frozen=True)
class TrafficResult:
    """A job stream served under one policy."""

    policy_name: str
    arrival_name: str
    capacity: int
    slack: float
    outcomes: typing.Tuple[TrafficOutcome, ...]
    #: Total cluster-cycles reserved on the fabric.
    busy_cluster_cycles: int

    @property
    def horizon_cycle(self) -> int:
        """End of the scenario: the last completion (or deadline)."""
        return max(
            (o.end_cycle if o.admitted else o.deadline_cycle
             for o in self.outcomes),
            default=0)

    @property
    def utilization(self) -> float:
        """Cluster-cycles busy over ``[0, horizon)``."""
        horizon = self.horizon_cycle
        if horizon <= 0:
            return 0.0
        return self.busy_cluster_cycles / (self.capacity * horizon)


class DeadlineAware(Policy):
    """Online Eq. 3: admit at the minimum width meeting the deadline.

    The offline inversion
    (:func:`~repro.core.decision.min_clusters_for_deadline`) bounds the
    search from below — no narrower width could meet the deadline even
    on an idle fabric — and the occupancy model widens past it when
    queued reservations would push a narrow admission over the
    deadline (a wider offload is shorter, and a different width may
    find a different hole).  Jobs whose deadline Eq. 3 cannot meet at
    any width fall back to the host; when the host queue cannot meet
    it either, the job is shed at admission.  Only
    :class:`TrafficEngine` serves it: it needs the occupancy model.
    """

    name = "deadline_aware"

    def place(self, job: JobSpec, deadline: int,
              engine: "TrafficEngine") -> TrafficOutcome:
        model = engine.offload_model(job)
        arrival = job.arrival_cycle
        budget = deadline - arrival
        m_lo: typing.Optional[int]
        try:
            m_lo = min_clusters_for_deadline(model, job.n, budget,
                                             engine.capacity)
        except DecisionError:
            m_lo = None   # infeasible even on an idle fabric
        if m_lo is not None:
            for m in range(m_lo, engine.capacity + 1):
                duration = engine.duration(model, m, job.n)
                if duration > budget:
                    # Non-monotone models (d > 0): wider can be slower.
                    continue
                start = engine.occupancy.earliest_start(arrival, duration, m)
                if start + duration <= deadline:
                    return engine.offload_outcome(job, deadline, m,
                                                  start=start,
                                                  duration=duration)
        outcome = engine.host_outcome(job, deadline, peek=True)
        if outcome.end_cycle <= deadline:
            return engine.host_outcome(job, deadline)
        return TrafficOutcome(spec=job, placement=PLACEMENT_SHED,
                              num_clusters=0, deadline_cycle=deadline)


class TrafficEngine:
    """Serve a timestamped job stream under one policy.

    ``offload_models`` / ``host_models`` map kernel names to fitted
    models (pass a :class:`repro.workload.ModelDriven` to
    :meth:`from_platform` to reuse a characterization).  ``slack``
    scales the predicted host runtime into each job's deadline, so
    slack 1.0 means "as fast as the host would be, unqueued" and
    larger values are progressively laxer.
    """

    def __init__(self, offload_models: typing.Mapping[str, OffloadModel],
                 host_models: typing.Mapping[str, HostExecutionModel],
                 capacity: int, slack: float = 4.0) -> None:
        if capacity <= 0:
            raise TrafficError(
                f"fabric capacity must be positive, got {capacity}")
        if slack <= 0:
            raise TrafficError(f"deadline slack must be positive, got {slack}")
        self.offload_models = dict(offload_models)
        self.host_models = dict(host_models)
        self.capacity = int(capacity)
        self.slack = float(slack)
        self.occupancy = FabricOccupancy(capacity)
        self._host_free_cycle = 0

    @classmethod
    def from_platform(cls, platform, capacity: int,
                      slack: float = 4.0) -> "TrafficEngine":
        """Build from a characterized platform (e.g.
        :class:`repro.workload.ModelDriven`)."""
        return cls(platform.offload_models, platform.host_models,
                   capacity=capacity, slack=slack)

    # ------------------------------------------------------------------
    # Model access and timing helpers (the policies' vocabulary)
    # ------------------------------------------------------------------
    def offload_model(self, job: JobSpec) -> OffloadModel:
        return characterized(self.offload_models, job, TrafficError)

    def host_model(self, job: JobSpec) -> HostExecutionModel:
        return characterized(self.host_models, job, TrafficError)

    @staticmethod
    def duration(model: OffloadModel, m: int, n: int) -> int:
        """Offload service time at width m, in whole cycles."""
        return max(1, math.ceil(model.predict(m, n)))

    def deadline_for(self, job: JobSpec) -> int:
        """``arrival + slack × t̂_host(N)`` — every policy's target."""
        host = self.host_model(job)
        return job.arrival_cycle + max(
            1, math.ceil(self.slack * host.predict(job.n)))

    # ------------------------------------------------------------------
    # Placement primitives
    # ------------------------------------------------------------------
    def host_outcome(self, job: JobSpec, deadline: int,
                     peek: bool = False) -> TrafficOutcome:
        """Queue the job on the serial host server (``peek`` computes
        the outcome without committing the queue)."""
        duration = max(1, math.ceil(self.host_model(job).predict(job.n)))
        start = max(job.arrival_cycle, self._host_free_cycle)
        if not peek:
            self._host_free_cycle = start + duration
        return TrafficOutcome(
            spec=job, placement=PLACEMENT_HOST, num_clusters=0,
            deadline_cycle=deadline, start_cycle=start,
            end_cycle=start + duration)

    def offload_outcome(self, job: JobSpec, deadline: int, m: int,
                        start: typing.Optional[int] = None,
                        duration: typing.Optional[int] = None
                        ) -> TrafficOutcome:
        """Reserve ``m`` clusters at the earliest feasible start."""
        model = self.offload_model(job)
        if duration is None:
            duration = self.duration(model, m, job.n)
        if start is None:
            start = self.occupancy.earliest_start(
                job.arrival_cycle, duration, m)
        self.occupancy.reserve(start, duration, m)
        return TrafficOutcome(
            spec=job, placement=PLACEMENT_OFFLOAD, num_clusters=m,
            deadline_cycle=deadline, start_cycle=start,
            end_cycle=start + duration)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, jobs: typing.Sequence[JobSpec], policy: Policy,
            arrival_name: str = "") -> TrafficResult:
        """Admit every job in arrival order and return the outcomes.

        The engine is single-shot per run: occupancy and the host queue
        reset so policies never see each other's reservations.
        """
        if not jobs:
            raise TrafficError("empty traffic scenario")
        self.occupancy = FabricOccupancy(self.capacity)
        self._host_free_cycle = 0
        ordered = sorted(jobs, key=lambda job: job.arrival_cycle)
        outcomes = []
        for job in ordered:
            self.occupancy.prune(job.arrival_cycle)
            outcomes.append(policy.place(job, self.deadline_for(job), self))
        return TrafficResult(
            policy_name=policy.resolved_name(self.capacity),
            arrival_name=arrival_name, capacity=self.capacity,
            slack=self.slack, outcomes=tuple(outcomes),
            busy_cluster_cycles=self.occupancy.busy_cluster_cycles)
