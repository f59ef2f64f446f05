"""Workload-level execution: job streams, placement policies, servers.

The paper's introduction motivates offload-overhead reduction with
applications that issue many small, heterogeneous data-parallel jobs.
This module provides that workload layer:

- :class:`JobSpec` / :func:`generate_workload` — reproducible streams
  of kernel invocations with configurable size distributions;
- placement *policies* — always-host, always-offload at fixed M, and
  the paper's contribution applied at stream scale: a **model-driven
  adaptive** policy that characterizes the platform once (fits the
  Eq.-1 family per kernel plus a host model from measurements) and then
  decides per job whether and how wide to offload;
- :func:`run_workload` — execute a stream on one simulated system and
  account makespan and per-job placements.  Its back-to-back,
  event-simulated :class:`WorkloadServer` is one of the policies' two
  servers; the virtual-time :class:`repro.traffic.TrafficEngine` is
  the other.

``repro.experiments.scheduler_experiment`` compares the policies; the
adaptive one wins because it sends fine-grained jobs to the host (the
offload floor would dominate) and wide jobs to the fabric.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro.core.decision import HostExecutionModel
from repro.core.model import OffloadModel
from repro.core.offload import DEFAULT_MAX_CYCLES, offload, run_on_host
from repro.core.sweep import sweep
from repro.errors import OffloadError, ReproError, WorkloadError, annotated
from repro.kernels.registry import get_kernel
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One job in a workload stream.

    ``tenant`` and ``arrival_cycle`` carry the traffic layer's
    annotations (who submitted the job, and when); for the classic
    back-to-back streams both stay at their zero defaults.
    """

    kernel_name: str
    n: int
    scalars: typing.Mapping[str, float] = dataclasses.field(
        default_factory=dict)
    seed: int = 0
    tenant: int = 0
    arrival_cycle: int = 0

    def __post_init__(self) -> None:
        kernel = get_kernel(self.kernel_name)
        scalars = dict(self.scalars) or {
            name: 1.0 for name in kernel.scalar_names}
        object.__setattr__(self, "scalars", scalars)
        kernel.validate(self.n, scalars)
        if self.tenant < 0:
            raise OffloadError(f"tenant id must be non-negative, "
                               f"got {self.tenant}")
        if self.arrival_cycle < 0:
            raise OffloadError(f"arrival cycle must be non-negative, "
                               f"got {self.arrival_cycle}")


#: Mixed into the per-stream seed-derivation RNG so job seeds never
#: collide with the stream seed itself (or with neighbouring streams'
#: job seeds, which the old ``seed + index`` scheme guaranteed).
_JOB_SEED_STREAM = 0x6A0B_5EED


def job_shape_sampler(
        kernels: typing.Sequence[str], min_n: int, max_n: int,
        error: typing.Type[ReproError] = OffloadError,
        ) -> typing.Callable[[numpy.random.Generator], typing.Tuple[str, int]]:
    """Validate a stream's kernels and size range (raising ``error``),
    and return ``draw(rng)``: one job's uniform kernel and log-uniform
    size.  Both job generators draw their job shapes through it."""
    kernels = list(kernels)
    if not kernels:
        raise error("a job stream needs at least one kernel")
    if not 0 < min_n <= max_n:
        raise error(f"invalid size range [{min_n}, {max_n}]")
    log_min, log_max = numpy.log(min_n), numpy.log(max_n)

    def draw(rng: numpy.random.Generator) -> typing.Tuple[str, int]:
        kernel = str(rng.choice(kernels))
        n = int(numpy.exp(rng.uniform(log_min, log_max)))
        return kernel, max(min_n, min(max_n, n))

    return draw


def generate_workload(num_jobs: int,
                      kernels: typing.Sequence[str] = ("daxpy", "memcpy",
                                                       "scale", "dot"),
                      min_n: int = 16, max_n: int = 4096,
                      seed: int = 0, tenant: int = 0) -> typing.List[JobSpec]:
    """A reproducible stream of jobs with log-uniform sizes.

    Log-uniform sizes mirror real fine-grained workloads: most jobs are
    small (where offload overhead hurts) with a heavy tail of large
    ones (where the accelerator shines).

    Per-job input seeds are drawn from a dedicated RNG keyed on
    ``(seed, stream constant)``, so two streams with different seeds
    share no job seeds.  (The historical ``seed + index`` derivation
    made streams with seeds 0 and 1 share almost every job seed.)
    ``tenant`` tags every job in the stream — callers generating one
    stream per tenant should vary ``seed`` per tenant too, or the
    streams will be identical.
    """
    if num_jobs <= 0:
        raise OffloadError(f"workload needs at least one job, got {num_jobs}")
    draw = job_shape_sampler(kernels, min_n, max_n)
    rng = numpy.random.default_rng(seed)
    # A separate stream for job seeds keeps the kernel/size draws on
    # the historical sequence (E9's committed numbers depend on them).
    seed_rng = numpy.random.default_rng((seed, _JOB_SEED_STREAM))
    jobs = []
    for _index in range(num_jobs):
        kernel, n = draw(rng)
        job_seed = int(seed_rng.integers(0, 2**63))
        jobs.append(JobSpec(kernel_name=kernel, n=n, seed=job_seed,
                            tenant=tenant))
    return jobs


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
def characterized(models: typing.Mapping[str, typing.Any], job: JobSpec,
                  error: typing.Type[ReproError] = OffloadError):
    """``models[job.kernel_name]``, or ``error`` naming a kernel the
    platform was not characterized for."""
    try:
        return models[job.kernel_name]
    except KeyError:
        raise error(f"platform was not characterized for kernel "
                    f"{job.kernel_name!r}") from None


class Policy:
    """Base class: decides where one job runs on a server.

    ``place`` returns the server's outcome from one of its primitives,
    ``host_outcome(job, deadline)`` or ``offload_outcome(job, deadline,
    m)``, on a fabric of ``server.capacity`` clusters.  The servers are
    :class:`WorkloadServer` (back to back, no deadlines: ``None``) and
    :class:`repro.traffic.TrafficEngine`.
    """

    name = "policy"

    def place(self, job: JobSpec, deadline: typing.Optional[int],
              server: typing.Any) -> typing.Any:
        raise NotImplementedError

    def resolved_name(self, capacity: int) -> str:
        """The policy's name *on a ``capacity``-cluster fabric*.

        Policies whose behaviour depends on the fabric (e.g. a fixed
        offload width clamped to a smaller fabric) override this so
        result tables attribute measurements to what actually ran.
        """
        return self.name


class AlwaysHost(Policy):
    """Run everything on the host (the no-accelerator baseline)."""

    name = "always_host"

    def place(self, job, deadline, server):
        return server.host_outcome(job, deadline)


class AlwaysOffload(Policy):
    """Offload everything at a fixed width.

    ``place`` clamps the width to the fabric, so the *effective* width
    on a small fabric can be narrower than requested —
    :meth:`resolved_name` reports the width that actually runs (the
    bare :attr:`name` used to claim the requested width even when every
    placement was clamped, mislabeling experiment CSVs).
    """

    name = "always_offload"

    def __init__(self, num_clusters: int = 32) -> None:
        if num_clusters <= 0:
            raise OffloadError(
                f"offload width must be positive, got {num_clusters}")
        self.num_clusters = num_clusters
        self.name = f"always_offload_{num_clusters}"

    def resolved_name(self, capacity: int) -> str:
        return f"always_offload_{min(self.num_clusters, capacity)}"

    def place(self, job, deadline, server):
        return server.offload_outcome(
            job, deadline, min(self.num_clusters, server.capacity))


class ModelDriven(Policy):
    """The paper's decision model applied per job.

    Holds a fitted :class:`OffloadModel` and a fitted
    :class:`HostExecutionModel` per kernel (see
    :func:`characterize_platform`) and picks the faster predicted
    option, choosing the runtime-optimal M for offloads, blind to queues
    and deadlines.  Built without models, it reads the server's.
    """

    name = "model_driven"

    def __init__(self,
                 offload_models: typing.Optional[
                     typing.Mapping[str, OffloadModel]] = None,
                 host_models: typing.Optional[
                     typing.Mapping[str, HostExecutionModel]] = None,
                 ) -> None:
        self.offload_models = (None if offload_models is None
                               else dict(offload_models))
        self.host_models = None if host_models is None else dict(host_models)

    def place(self, job, deadline, server):
        platform = server if self.offload_models is None else self
        model = characterized(platform.offload_models, job)
        host = characterized(platform.host_models, job)
        best_m = model.best_m(job.n, server.capacity)
        if model.predict(best_m, job.n) < host.predict(job.n):
            return server.offload_outcome(job, deadline, best_m)
        return server.host_outcome(job, deadline)


def characterize_platform(
        config: SoCConfig,
        kernels: typing.Sequence[str],
        n_values: typing.Sequence[int] = (128, 256, 512, 1024),
        m_values: typing.Sequence[int] = (1, 2, 4, 8, 16, 32),
        ) -> ModelDriven:
    """Fit offload and host models for each kernel (done once, offline)."""
    m_values = [m for m in m_values if m <= config.num_clusters]
    offload_models, host_models = {}, {}
    # One SoC serves every host point: reset() returns it to boot state,
    # timing-identical to a fresh instance (property-tested).  A fresh
    # SoC per point would leave each one, with its cluster memories, for
    # the cyclic garbage collector to free.
    host_system = ManticoreSystem(config)
    for kernel in kernels:
        grid = sweep(config, kernel, n_values, m_values, verify=False)
        offload_models[kernel] = OffloadModel.fit(
            grid.triples(), label=f"platform/{kernel}")
        host_points = []
        for n in n_values:
            result = run_on_host(host_system, kernel, n, verify=False)
            host_system.reset()
            host_points.append((n, float(result.runtime_cycles)))
        host_models[kernel] = HostExecutionModel.fit(host_points)
    return ModelDriven(offload_models, host_models)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Placement:
    """Where one job ran: the host, or M clusters."""

    offload: bool
    num_clusters: int


@dataclasses.dataclass(frozen=True)
class JobOutcome:
    """One executed job: its placement and measured cycles."""

    spec: JobSpec
    placement: Placement
    cycles: int


@dataclasses.dataclass(frozen=True)
class WorkloadResult:
    """A workload stream executed under one policy."""

    policy_name: str
    outcomes: typing.Tuple[JobOutcome, ...]

    @property
    def makespan_cycles(self) -> int:
        """Total cycles to drain the stream (jobs run back to back)."""
        return sum(outcome.cycles for outcome in self.outcomes)

    @property
    def offloaded_jobs(self) -> int:
        return sum(1 for o in self.outcomes if o.placement.offload)

    @property
    def host_jobs(self) -> int:
        return len(self.outcomes) - self.offloaded_jobs


class WorkloadServer:
    """Serves a job stream back to back on one event-simulated system.

    The second server of the :class:`Policy` protocol, beside the
    virtual-time :class:`repro.traffic.TrafficEngine`: each primitive
    runs the job to completion on :attr:`system` before the next job
    starts, and returns a :class:`JobOutcome` with the measured cycles.
    """

    def __init__(self, system: ManticoreSystem, verify: bool = False,
                 max_cycles: int = DEFAULT_MAX_CYCLES) -> None:
        self.system = system
        self.capacity = system.config.num_clusters
        self.verify = verify
        self.max_cycles = max_cycles
        # It executes rather than predicts: no models for ModelDriven().
        self.offload_models = self.host_models = {}
        # The job being served, for a failing job's WorkloadError.
        self._index, self._total, self._policy_name = 0, 0, ""

    def host_outcome(self, job: JobSpec,
                     deadline: typing.Optional[int]) -> JobOutcome:
        return self._execute(job, Placement(offload=False, num_clusters=0))

    def offload_outcome(self, job: JobSpec, deadline: typing.Optional[int],
                        m: int) -> JobOutcome:
        return self._execute(job, Placement(offload=True, num_clusters=m))

    def _execute(self, job: JobSpec, placement: Placement) -> JobOutcome:
        try:
            if placement.offload:
                result = offload(self.system, job.kernel_name, job.n,
                                 placement.num_clusters, scalars=job.scalars,
                                 seed=job.seed, verify=self.verify,
                                 max_cycles=self.max_cycles)
            else:
                result = run_on_host(self.system, job.kernel_name, job.n,
                                     scalars=job.scalars, seed=job.seed,
                                     verify=self.verify,
                                     max_cycles=self.max_cycles)
        except ReproError as err:
            where = (f"{placement.num_clusters} clusters"
                     if placement.offload else "the host")
            raise annotated(
                WorkloadError(
                    f"job {self._index}/{self._total} of policy "
                    f"{self._policy_name!r} failed: {job.kernel_name}"
                    f"(n={job.n}) on {where}: {err}"),
                job=job, job_index=self._index, placement=placement,
                report=getattr(err, "report", None)) from err
        return JobOutcome(spec=job, placement=placement,
                          cycles=result.runtime_cycles)

    def run(self, jobs: typing.Sequence[JobSpec],
            policy: Policy) -> WorkloadResult:
        """Place and execute every job in stream order."""
        if not jobs:
            raise OffloadError("empty workload")
        self._total = len(jobs)
        self._policy_name = policy.resolved_name(self.capacity)
        outcomes = []
        for index, job in enumerate(jobs):
            self._index = index
            outcomes.append(policy.place(job, None, self))
        return WorkloadResult(policy_name=self._policy_name,
                              outcomes=tuple(outcomes))


def run_workload(system: ManticoreSystem, jobs: typing.Sequence[JobSpec],
                 policy: Policy, verify: bool = False,
                 max_cycles: int = DEFAULT_MAX_CYCLES) -> WorkloadResult:
    """Execute a job stream under a placement policy on one system.

    ``max_cycles`` bounds each job's simulation individually (host and
    offloaded placements alike), not the whole stream.

    Raises
    ------
    WorkloadError
        If any job fails mid-stream.  The message names the job's
        index, kernel, size and placement; the failing job is on the
        ``job`` attribute, the original error is chained as
        ``__cause__``, and the simulation post-mortem (see
        :mod:`repro.sim.diag`) rides through on ``report`` when the
        underlying failure carried one.  The system is left for the
        caller to audit — a half-run instance is exactly what
        :meth:`repro.soc.pool.SystemPool.release` quiescence-checks
        (it drops dirty systems instead of recycling them), so
        releasing after a failure is safe.
    """
    return WorkloadServer(system, verify, max_cycles).run(jobs, policy)
