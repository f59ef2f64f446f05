"""Per-layer tracing: spans and counters around the simulator's entry points.

:class:`Layers` replaces public entry points with wrappers that record a
span on the benchmark's :class:`~harness.Tracer` (and, where the layer
keeps counters, the counter deltas of the call).  The simulator itself is
not modified; :meth:`Layers.uninstall` puts every original back.

Where a module imported a function by name, the name is replaced in
that module too, so every call site the workloads reach is covered.
"""

from __future__ import annotations

import collections
import importlib
import typing

from repro.core.batch import BatchPlanner
from repro.core.cache import SweepCache
from repro.core.executor import SweepExecutor
from repro.core.model import OffloadModel
from repro.core.staging import JobBinding
from repro.sim import Simulator
from repro.soc.pool import SystemPool
from repro.traffic.engine import TrafficEngine
from repro.traffic.occupancy import FabricOccupancy

from harness import Tracer

# By module path: some package ``__init__`` files re-export a function
# under its module's name (``repro.core.offload`` is also a function).
_module = importlib.import_module
EXECUTOR = _module("repro.core.executor")
OFFLOAD = _module("repro.core.offload")
TRAFFIC = _module("repro.traffic")
TRAFFIC_ENGINE = _module("repro.traffic.engine")
TRAFFIC_METRICS = _module("repro.traffic.metrics")
WORKLOAD = _module("repro.workload")

#: Traffic policies by resolved name on the 32-cluster fabric.
POLICIES = ("always_host", "always_offload_32", "model_driven",
            "deadline_aware")

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("executor.run_self_s", "s"),
    ("batch.consume_self_s", "s"),
    ("batch.calibration_sims", "count"),
    ("batch.planned_points", "count"),
    ("batch.fallback_points", "count"),
    ("batch.plan_hit_rate", "ratio"),
    ("batch.prefixes_predicted", "count"),
    ("batch.holdout_fallbacks", "count"),
    ("cache.put_s", "s"),
    ("cache.put_calls", "count"),
    ("cache.get_s", "s"),
    ("cache.get_calls", "count"),
    ("cache.point_hit_rate", "ratio"),
    ("cache.get_record_s", "s"),
    ("cache.store_hit_rate", "ratio"),
    ("cache.put_record_s", "s"),
    ("pool.acquire_s", "s"),
    ("pool.release_s", "s"),
    ("pool.hits", "count"),
    ("pool.builds", "count"),
    ("pool.restores", "count"),
    ("pool.dropped", "count"),
    ("sim.run_s", "s"),
    ("sim.run_calls", "count"),
    ("sim.resumes", "count"),
    ("sim.host_us_per_resume", "us"),
    ("sim.simulated_cycles", "cycles"),
    ("offload.offload_self_s", "s"),
    ("offload.run_on_host_self_s", "s"),
    ("staging.bind_s", "s"),
    ("staging.finish_s", "s"),
    ("trace.build_s", "s"),
    ("hw.read_channel_busy_cycles", "cycles"),
    ("hw.write_channel_busy_cycles", "cycles"),
    ("hw.host_port_busy_cycles", "cycles"),
    ("hw.amo_port_requests", "count"),
    ("workload.characterize_s", "s"),
    ("model.fit_s", "s"),
    ("decision.min_clusters_s", "s"),
    ("decision.min_clusters_calls", "count"),
    ("traffic.earliest_start_s", "s"),
    ("traffic.earliest_start_calls", "count"),
    ("traffic.peak_usage_calls", "count"),
    ("traffic.reserve_s", "s"),
    ("traffic.prune_s", "s"),
    ("traffic.mean_reservations", "count"),
    *((f"traffic.place_s.{p}", "s") for p in POLICIES),
    *((f"traffic.p99_sojourn_cycles.{p}", "cycles") for p in POLICIES),
    ("traffic.metrics_s", "s"),
    ("host.sys_s", "s"),
    ("trace.spans_per_pass", "count"),
    ("trace.overhead_pct", "%"),
)


class Layers:
    """Installs span and counter wrappers on the simulator's entry points."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: typing.Counter[str] = collections.Counter()
        #: Kernel CPU seconds of the traced passes (the caller adds them).
        self.kernel_seconds = 0.0
        self._saved: typing.List[typing.Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _function(self, owners: typing.Sequence[object], attr: str,
                  name: str) -> None:
        """Wrap a module-level function in every module that holds it."""
        traced = self.tracer.wrap(name, getattr(owners[0], attr))
        for owner in owners:
            self._set(owner, attr, traced)

    def _method(self, cls: type, attr: str, name: str,
                snapshot: typing.Optional[typing.Callable[
                    [typing.Any], typing.Mapping[str, int]]] = None,
                on_result: typing.Optional[typing.Callable[
                    [typing.Any], None]] = None) -> None:
        """Wrap a method.  ``snapshot(instance)`` reads the instance's own
        counters; their change over the call is added to :attr:`counts`.
        ``on_result(result)`` counts what the call returned."""
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer, counts = self.tracer, self.counts

        def traced(first, *args, **kwargs):
            if not tracer.active:
                return func(first, *args, **kwargs)
            before = snapshot(first) if snapshot else {}
            span = tracer.begin(name)
            try:
                result = func(first, *args, **kwargs)
            finally:
                tracer.end(span)
            if snapshot:
                for key, value in snapshot(first).items():
                    counts[key] += value - before[key]
            if on_result:
                on_result(result)
            return result

        self._set(cls, attr, classmethod(traced) if is_classmethod
                  else traced)

    def _count_only(self, cls: type, attr: str, name: str) -> None:
        func = cls.__dict__[attr]
        tracer, counts = self.tracer, self.counts

        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return func(*args, **kwargs)

        self._set(cls, attr, counted)

    def install(self) -> None:
        counts = self.counts
        fn, meth = self._function, self._method

        def hits(key):
            def count(result):
                counts[key] += result is not None
            return count

        def planner(p):
            return {"batch.calibration_sims": p.calibration_points,
                    "batch.planned_points": p.planned_points,
                    "batch.fallback_points": p.fallback_points,
                    "batch.prefixes_predicted": p.prefixes_predicted,
                    "batch.holdout_fallbacks": p.holdout_fallbacks}

        def pool(p):
            return {"pool.hits": p.hits, "pool.builds": p.builds,
                    "pool.restores": p.restores, "pool.dropped": p.dropped}

        def simulator(sim):
            return {"sim.resumes": sim.resumes,
                    "sim.simulated_cycles": sim.now}

        meth(SweepExecutor, "run", "executor.run")
        meth(BatchPlanner, "consume", "batch.consume", planner)
        meth(SweepCache, "get", "cache.get",
             on_result=hits("cache.get_hits"))
        meth(SweepCache, "put", "cache.put")
        meth(SweepCache, "get_record", "cache.get_record",
             on_result=hits("cache.get_record_hits"))
        meth(SweepCache, "put_record", "cache.put_record")
        meth(SystemPool, "acquire", "pool.acquire", pool)
        meth(SystemPool, "release", "pool.release", pool)
        meth(Simulator, "run", "sim.run", simulator)
        fn((OFFLOAD, EXECUTOR, WORKLOAD), "offload", "offload.offload")
        fn((OFFLOAD, WORKLOAD), "run_on_host", "offload.run_on_host")
        meth(JobBinding, "bind", "staging.bind")
        meth(JobBinding, "bind_host", "staging.bind")
        meth(JobBinding, "finish", "staging.finish")
        fn((OFFLOAD,), "build_offload_trace", "trace.build")
        meth(OffloadModel, "fit", "model.fit")
        fn((WORKLOAD,), "characterize_platform", "workload.characterize")
        fn((WORKLOAD,), "run_workload", "workload.run_workload")
        fn((TRAFFIC_ENGINE,), "min_clusters_for_deadline",
           "decision.min_clusters")
        meth(TrafficEngine, "run", "traffic.engine_run")
        meth(FabricOccupancy, "earliest_start", "traffic.earliest_start")
        meth(FabricOccupancy, "reserve", "traffic.reserve")
        meth(FabricOccupancy, "prune", "traffic.prune")
        self._count_only(FabricOccupancy, "peak_usage",
                         "traffic.peak_usage_calls")
        fn((TRAFFIC, TRAFFIC_METRICS), "compute_metrics", "traffic.metrics")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def metrics(self, passes: int, extras: typing.Mapping[str, float],
                overhead_pct: float) -> typing.Dict[str, float]:
        """Every :data:`PER_LAYER` metric, per traced pass.

        Span totals and counts are divided by ``passes``; the set-up
        layers (``workload.characterize_s``, ``model.fit_s``) come from
        the traced set-up instead, and ``extras`` supplies the
        simulated figures the workload computes itself.
        """
        run = self.tracer.totals(lambda span: span.op_id >= 0)
        setup = self.tracer.totals(lambda span: span.op_id < 0)
        c = self.counts

        def span(name, field="duration", totals=run, per=passes):
            return totals.get(name, {}).get(field, 0.0) / per

        def share(part, whole):
            return part / whole if whole else 0.0

        planned = c["batch.planned_points"]
        out = {
            "executor.run_self_s": span("executor.run", "self"),
            "batch.consume_self_s": span("batch.consume", "self"),
            "batch.plan_hit_rate": share(
                planned, planned + c["batch.fallback_points"]),
            "cache.put_s": span("cache.put"),
            "cache.put_calls": span("cache.put", "calls"),
            "cache.get_s": span("cache.get"),
            "cache.get_calls": span("cache.get", "calls"),
            "cache.point_hit_rate": share(
                c["cache.get_hits"], span("cache.get", "calls", per=1)),
            "cache.get_record_s": span("cache.get_record"),
            "cache.store_hit_rate": share(
                c["cache.get_record_hits"],
                span("cache.get_record", "calls", per=1)),
            "cache.put_record_s": span("cache.put_record"),
            "pool.acquire_s": span("pool.acquire"),
            "pool.release_s": span("pool.release"),
            "sim.run_s": span("sim.run"),
            "sim.run_calls": span("sim.run", "calls"),
            "sim.host_us_per_resume": share(
                span("sim.run", per=1) * 1e6, c["sim.resumes"]),
            "offload.offload_self_s": span("offload.offload", "self"),
            "offload.run_on_host_self_s": span("offload.run_on_host",
                                               "self"),
            "staging.bind_s": span("staging.bind"),
            "staging.finish_s": span("staging.finish"),
            "trace.build_s": span("trace.build"),
            "workload.characterize_s": span("workload.characterize",
                                            totals=setup, per=1),
            "model.fit_s": span("model.fit", totals=setup, per=1),
            "decision.min_clusters_s": span("decision.min_clusters"),
            "decision.min_clusters_calls":
                span("decision.min_clusters", "calls"),
            "traffic.earliest_start_s": span("traffic.earliest_start"),
            "traffic.earliest_start_calls":
                span("traffic.earliest_start", "calls"),
            "traffic.reserve_s": span("traffic.reserve"),
            "traffic.prune_s": span("traffic.prune"),
            "traffic.metrics_s": span("traffic.metrics"),
            "host.sys_s": self.kernel_seconds / passes,
            "trace.spans_per_pass": sum(
                entry["calls"] for entry in run.values()) / passes,
            "trace.overhead_pct": overhead_pct,
        }
        for policy in POLICIES:
            out[f"traffic.place_s.{policy}"] = span(
                f"traffic.place.{policy}")
        for name in ("batch.calibration_sims", "batch.planned_points",
                     "batch.fallback_points", "batch.prefixes_predicted",
                     "batch.holdout_fallbacks", "pool.hits", "pool.builds",
                     "pool.restores", "pool.dropped", "sim.resumes",
                     "sim.simulated_cycles", "traffic.peak_usage_calls"):
            out[name] = c[name] / passes
        out.update(extras)
        return {name: float(out.get(name, 0.0)) for name, _unit in PER_LAYER}
