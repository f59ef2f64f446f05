"""E13: traffic-driven scenarios — Eq. 3 as a served admission policy.

The scheduler experiment (E9) showed the paper's model routing a
*back-to-back* job stream; E13 puts the same fitted models under
sustained multi-tenant load.  Jobs arrive over virtual time (Poisson,
bursty, and recorded-trace processes), each with a deadline of
``slack × t̂_host(N)``, and four policies serve the stream on one
shared fabric:

- ``always_host`` — one serial host core; the stream queues behind it.
- ``always_offload_M`` — every job takes the whole fabric; jobs
  serialize at full width.
- ``model_driven`` — E9's policy online: the faster predicted side at
  the runtime-optimal (widest) M, blind to queues and deadlines.
- ``deadline_aware`` — the paper's Eq. 3 served per job:
  :func:`~repro.core.decision.min_clusters_for_deadline` admits each
  job at the *minimum* feasible width, so the fabric space-shares many
  narrow jobs instead of serializing wide ones.

The headline: under load, picking the minimum width that meets the
deadline beats picking the fastest width — the deadline-aware policy
turns the same fabric into an order of magnitude more deadline
capacity than always-offload.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.tables import Table
from repro.experiments.base import Experiment
from repro.soc.config import SoCConfig

#: Kernels the E13 platform characterization fits (kept to two so the
#: committed artifact regenerates in seconds).
TRAFFIC_KERNELS = ("daxpy", "memcpy")

#: A "recorded" arrival trace: one period of a bursty application
#: phase — two tight bursts and a sparse tail — replayed periodically.
#: Offsets in cycles within one period.
RECORDED_TRACE = (0, 45, 90, 135, 180, 225, 270, 315,
                  2400, 2430, 2460, 2490, 2520, 2550,
                  4200, 4800, 5400)

#: Period of the recorded trace, in cycles.
RECORDED_TRACE_PERIOD = 6000


@dataclasses.dataclass(frozen=True)
class TrafficExperiment(Experiment):
    """Policy × arrival-process metrics over one traffic scenario."""

    num_jobs: int
    tenants: int
    capacity: int
    slack: float
    seed: int
    #: One entry per (arrival, policy), in run order.
    metrics: typing.Tuple["TrafficMetrics", ...]   # noqa: F821

    def miss_rate(self, arrival: str, policy: str) -> float:
        for entry in self.metrics:
            if entry.arrival_name == arrival and entry.policy_name == policy:
                return entry.miss_rate
        raise KeyError(f"no metrics for {policy!r} under {arrival!r}")

    @property
    def arrival_names(self) -> typing.Tuple[str, ...]:
        seen: typing.List[str] = []
        for entry in self.metrics:
            if entry.arrival_name not in seen:
                seen.append(entry.arrival_name)
        return tuple(seen)

    def csv_columns(self) -> typing.Sequence[str]:
        return ("arrival", "policy", "tenant", "jobs", "admitted", "shed",
                "offloaded", "deadline_misses", "miss_rate",
                "p50_sojourn_cycles", "p99_sojourn_cycles", "utilization",
                "jain_fairness")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for entry in self.metrics:
            yield (entry.arrival_name, entry.policy_name, "all",
                   entry.jobs, entry.admitted, entry.shed, entry.offloaded,
                   entry.deadline_misses, entry.miss_rate,
                   entry.p50_sojourn_cycles, entry.p99_sojourn_cycles,
                   entry.utilization, entry.jain_fairness)
            for tenant in entry.per_tenant:
                yield (entry.arrival_name, entry.policy_name, tenant.tenant,
                       tenant.jobs, tenant.admitted, tenant.shed, None,
                       tenant.deadline_misses, tenant.miss_rate,
                       tenant.p50_sojourn_cycles, tenant.p99_sojourn_cycles,
                       None, None)

    def render(self) -> str:
        sections = []
        for arrival in self.arrival_names:
            table = Table(
                ["policy", "miss rate", "shed", "offloaded",
                 "p50 sojourn", "p99 sojourn", "util", "Jain"],
                title=f"E13: {self.num_jobs} jobs / {self.tenants} tenants "
                      f"under {arrival} arrivals (fabric {self.capacity}, "
                      f"slack {self.slack:g})")
            for entry in self.metrics:
                if entry.arrival_name != arrival:
                    continue
                table.add_row([
                    entry.policy_name, round(entry.miss_rate, 3),
                    entry.shed, entry.offloaded,
                    round(entry.p50_sojourn_cycles, 1),
                    round(entry.p99_sojourn_cycles, 1),
                    round(entry.utilization, 3),
                    round(entry.jain_fairness, 3)])
            sections.append(table.render())
        tenants = Table(
            ["tenant", "jobs", "misses", "miss rate", "p50", "p99"],
            title="deadline_aware per tenant "
                  f"({self.arrival_names[0]} arrivals)")
        for entry in self.metrics:
            if (entry.arrival_name == self.arrival_names[0]
                    and entry.policy_name == "deadline_aware"):
                for tenant in entry.per_tenant:
                    tenants.add_row([
                        tenant.tenant, tenant.jobs, tenant.deadline_misses,
                        round(tenant.miss_rate, 3),
                        round(tenant.p50_sojourn_cycles, 1),
                        round(tenant.p99_sojourn_cycles, 1)])
        sections.append(tenants.render())
        sections.append(
            "the deadline-aware policy admits each job at the *minimum* "
            "width Eq. 3 says meets its deadline, space-sharing the fabric "
            "across tenants — always-offload serializes full-width jobs "
            "and misses most deadlines under the same load")
        return "\n\n".join(sections)


def traffic_experiment(num_jobs: int = 160, tenants: int = 3,
                       num_clusters: int = 32, seed: int = 7,
                       slack: float = 3.0,
                       mean_interarrival_cycles: float = 300.0,
                       kernels: typing.Sequence[str] = TRAFFIC_KERNELS,
                       n_values: typing.Sequence[int] = (128, 256, 512, 1024),
                       m_values: typing.Sequence[int] = (1, 2, 4, 8, 16, 32),
                       min_n: int = 16, max_n: int = 4096,
                       **config_overrides) -> TrafficExperiment:
    """Serve one multi-tenant traffic scenario under every policy.

    The platform is characterized once (Eq.-1 offload fits plus a host
    model per kernel, all from measurements on the extended config —
    exactly E9's procedure), then each arrival process generates one
    job stream and every policy serves it on a fresh virtual-time
    fabric.  The traffic replay itself is closed-form.
    """
    from repro.traffic import (
        BurstyArrivals,
        DeadlineAware,
        PoissonArrivals,
        TraceArrivals,
        TrafficEngine,
        compute_metrics,
        generate_traffic,
    )
    from repro.workload import AlwaysHost, AlwaysOffload, characterize_platform

    config = SoCConfig.extended(num_clusters=num_clusters,
                                **config_overrides)
    platform = characterize_platform(config, kernels, n_values=n_values,
                                     m_values=m_values)
    arrivals = (
        PoissonArrivals(mean_interarrival_cycles),
        BurstyArrivals(
            burst_interarrival_cycles=mean_interarrival_cycles / 5,
            mean_burst_jobs=8.0,
            mean_idle_cycles=mean_interarrival_cycles * 8),
        TraceArrivals(RECORDED_TRACE, period_cycles=RECORDED_TRACE_PERIOD),
    )
    # The characterized platform is E9's model-driven policy itself.
    policies = (AlwaysHost(), AlwaysOffload(num_clusters), platform,
                DeadlineAware())
    engine = TrafficEngine.from_platform(platform, capacity=num_clusters,
                                         slack=slack)
    metrics = []
    for process in arrivals:
        stream = generate_traffic(process, num_jobs, tenants=tenants,
                                  kernels=kernels, min_n=min_n, max_n=max_n,
                                  seed=seed)
        for policy in policies:
            result = engine.run(stream, policy, arrival_name=process.name)
            metrics.append(compute_metrics(result))
    return TrafficExperiment(
        num_jobs=num_jobs, tenants=tenants, capacity=num_clusters,
        slack=slack, seed=seed, metrics=tuple(metrics))
