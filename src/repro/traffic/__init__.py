"""Traffic-driven scenario engine: multi-tenant job streams served online.

Turns the paper's decision model from a figure into a *served policy*.
The package layers four pieces on top of the workload and decision
layers:

- :mod:`repro.traffic.arrivals` — stochastic arrival processes
  (Poisson, Markov-modulated bursty, recorded-trace replay) generating
  timestamped, per-tenant :class:`repro.workload.JobSpec` streams from
  a single RNG;
- :mod:`repro.traffic.occupancy` — a virtual-time occupancy model of
  the cluster fabric (clusters as a reservable resource over arrival
  time);
- :mod:`repro.traffic.engine` — the admission/scheduling loop, a
  second server for the placement policies of :mod:`repro.workload`
  (``AlwaysHost``, ``AlwaysOffload``, ``ModelDriven``) plus the one
  that needs the occupancy model, :class:`DeadlineAware`: each
  arriving job gets a deadline (slack × predicted host runtime), and
  the deadline-aware policy inverts the fitted Eq.-1 model online
  (:func:`repro.core.decision.min_clusters_for_deadline`) to admit it
  at the minimum feasible width, queueing behind reservations, falling
  back to the host when Eq. 3 is infeasible, and shedding jobs no
  placement can serve in time;
- :mod:`repro.traffic.metrics` — deadline-miss rate, p50/p99 sojourn,
  cluster utilization and Jain's fairness index, per policy and per
  tenant.

Everything is closed-form over the fitted models (no event simulation
per job), so a thousand-job scenario runs in milliseconds and the same
seed reproduces byte-identical metrics.  Experiment E13
(:func:`repro.experiments.traffic_experiment`, ``repro traffic``)
compares the policies under all three arrival processes.
"""

from __future__ import annotations

from repro.traffic.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    TraceArrivals,
    generate_traffic,
)
from repro.traffic.engine import (
    DeadlineAware,
    TrafficEngine,
    TrafficOutcome,
    TrafficResult,
)
from repro.traffic.metrics import (
    TenantMetrics,
    TrafficMetrics,
    compute_metrics,
)
from repro.traffic.occupancy import FabricOccupancy
from repro.workload import AlwaysHost, AlwaysOffload, ModelDriven

# The policies' former traffic-layer names: perfbench imports them.
TrafficAlwaysHost = AlwaysHost
TrafficAlwaysOffload = AlwaysOffload
TrafficModelDriven = ModelDriven
TrafficDeadlineAware = DeadlineAware

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "generate_traffic",
    "FabricOccupancy",
    "DeadlineAware",
    "TrafficEngine",
    "TrafficOutcome",
    "TrafficResult",
    "TenantMetrics",
    "TrafficMetrics",
    "compute_metrics",
]
