"""The benchmark's four workloads, each driving one public entry point.

Every workload runs in-process from one caller with ``jobs=1`` and no
worker pool.  A workload has a set-up (everything a user pays before the
first result: imports are timed by the caller), then timed *passes*;
each pass is a fixed unit of work made of *operations*:

=============  ==========================  ============================
workload       one operation               one pass
=============  ==========================  ============================
``sweep_cold`` one ``sweep()`` call (one   every kernel × variant grid
               kernel × variant grid)      into a new empty store
``sweep_warm`` one ``sweep()`` call        every grid again, with three
                                           unseen N values added, from
                                           the store seeded in set-up
``stream``     one ``run_workload`` call   a new stream of jobs on a
               (one job)                   fresh system
``traffic``    one admission decision      every arrival process ×
               (``policy.place``)          policy over new scenarios
=============  ==========================  ============================

Inputs come only from ``seed``.  Operations are timed in CPU seconds of
this process, with each workload's :attr:`Workload.clock`.  Output
checks run outside the timed region and record failures against the
operation they concern.
"""

from __future__ import annotations

import tempfile
import time
import typing

import numpy

import repro.workload
from repro import traffic as trf
from repro.core.cache import SweepCache
from repro.core.executor import measure_point
from repro.core.mape import mape
from repro.core.model import OffloadModel
from repro.core.sweep import sweep
from repro.kernels.registry import kernel_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.traffic.engine import PLACEMENT_OFFLOAD

from harness import Ledger, Tracer, digest, user_seconds

#: Fabric size for every workload (the paper's Manticore fabric).
CLUSTERS = 32

#: ``gemv`` keeps its whole matrix row block in one cluster's TCDM, so
#: M=1 does not fit at these N; every other registered kernel streams.
SWEEP_KERNELS = tuple(k for k in kernel_names() if k != "gemv")
SWEEP_N = (256, 1024, 2048, 4096)
SWEEP_M = tuple(range(1, CLUSTERS + 1))
#: Problem sizes the warm store has never seen (multiples of 64 strictly
#: inside the seeded range); each pass takes the next three of a seeded
#: permutation.
UNSEEN_N = tuple(n for n in range(320, 4096, 64) if n not in SWEEP_N)
#: One sweep pass starts every this many seconds of a run.
SWEEP_SLOT_S = 2.5
#: Planner-timed points re-simulated by the event engine per pass.
RESIM_SAMPLE = 6

STREAM_KERNELS = ("daxpy", "memcpy", "scale", "dot")
STREAM_JOBS = 500           # jobs per pass, served on one fresh system
STREAM_RESIM_SAMPLE = 4     # pass-0 jobs re-run on a fresh system

TRAFFIC_KERNELS = ("daxpy", "memcpy")
TRAFFIC_JOBS = 150          # jobs per arrival stream
TRAFFIC_STREAMS = 5         # scenario seeds per pass
TRAFFIC_TENANTS = 3
TRAFFIC_SLACK = 3.0
#: E13's mean inter-arrival time, and 3x its load.
TRAFFIC_MEANS = (300.0, 100.0)
#: ``characterize_platform``'s default grid, on which ``model_mape_pct``
#: is measured for the stream and traffic workloads.
PLATFORM_N = (128, 256, 512, 1024)
PLATFORM_M = (1, 2, 4, 8, 16, 32)


def input_seed(seed: int, index: int) -> int:
    """Generator seed of input set ``index``: the workload seed itself for
    the first, then a stream of seeds derived from it."""
    if index == 0:
        return seed
    return int(numpy.random.default_rng((seed, index)).integers(2**63))


def _configs() -> typing.Tuple[typing.Tuple[SoCConfig, str], ...]:
    """``(config, variant)`` for both runtime variants, as ``repro sweep``
    builds them."""
    return ((SoCConfig.extended(num_clusters=CLUSTERS), "extended"),
            (SoCConfig.baseline(num_clusters=CLUSTERS), "baseline"))


def _point_row(point) -> tuple:
    return (point.kernel_name, point.variant, point.n, point.num_clusters,
            point.runtime_cycles, tuple(sorted(point.phases.items())))


def _fit_mape(triples: typing.Sequence[typing.Tuple[int, int, float]],
              model: typing.Optional[OffloadModel] = None) -> float:
    """Eq. 2 MAPE of ``model`` (fitted to ``triples`` if not given)."""
    if model is None:
        model = OffloadModel.fit(triples)
    return mape([c for _m, _n, c in triples],
                [model.predict(m, n) for m, n, _c in triples])


class PassResult(typing.NamedTuple):
    units: int                    # points / jobs / admissions done
    seconds: float                # CPU time inside the timed calls
    latencies: typing.List[float]  # CPU seconds per operation


class Workload:
    """One named workload: :meth:`setup`, then :meth:`run_pass` N times."""

    name = ""
    #: ``None``: passes run back to back until the time is up.  A number
    #: of seconds: one pass starts at the beginning of each such slot.
    pass_slot_s: typing.Optional[float] = None
    #: The clock operations are timed with: this thread's CPU time, which
    #: resolves the microsecond-scale admissions of ``traffic``.
    clock = staticmethod(time.thread_time)
    #: Whether every pass runs the same list of operations, so each
    #: operation's latency can be taken as its median over passes.
    same_ops_every_pass = False

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed: make pass ``index``'s inputs ready (pass 0's are made
        in :meth:`setup`)."""

    def run_pass(self, index: int, ledger: Ledger,
                 tracer: Tracer) -> PassResult:
        raise NotImplementedError

    def fingerprint(self) -> typing.Dict[str, typing.Any]:
        """Simulated outputs of pass 0, compared with the reference."""
        raise NotImplementedError

    def model_mape_pct(self) -> float:
        raise NotImplementedError

    def notes(self) -> typing.List[str]:
        """Extra report lines (simulated figures shown beside the metrics)."""
        return []

    def layer_extras(self) -> typing.Dict[str, float]:
        """Simulated per-layer figures this workload provides."""
        return {}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    """``sweep_cold`` (``warm=False``) and ``sweep_warm`` (``warm=True``).

    Every pass of ``sweep_cold`` writes a new empty store directory.
    ``sweep_warm`` reads the store seeded in set-up, through a fresh
    :class:`SweepCache` instance per pass (so its memory layer starts
    empty), and adds a grid of N values no earlier pass used.  The seeded
    records are never rewritten, so every pass sees the seeded state plus
    points its own keys never hit.  Passes are paced (see
    :attr:`Workload.pass_slot_s`): each writes thousands of small store
    files, and pacing bounds what a run leaves to delete.
    """

    pass_slot_s = SWEEP_SLOT_S
    same_ops_every_pass = True
    #: User-mode time only: the store's file creation costs kernel time
    #: that depends on the file system's recent history (see
    #: :func:`harness.user_seconds`).
    clock = staticmethod(user_seconds)

    def __init__(self, seed: int, scratch: str, warm: bool) -> None:
        super().__init__(seed, scratch)
        self.warm = warm
        self.name = "sweep_warm" if warm else "sweep_cold"
        self.first: typing.Optional[typing.List[tuple]] = None
        #: ``(kernel, config index)`` -> rows set-up wrote (warm only).
        self.seeded_rows: typing.Dict[tuple, typing.List[tuple]] = {}

    def setup(self) -> None:
        self.configs = _configs()
        rng = numpy.random.default_rng((self.seed, 0x5EED))
        self.unseen_order = [int(n) for n in rng.permutation(UNSEEN_N)]
        self.unseen_used = 0
        # Pool warm-up: one event-simulated point per config, so passes
        # lease restored systems instead of constructing them.
        for config, variant in self.configs:
            measure_point(config, "daxpy", SWEEP_N[0], 1, variant, None,
                          self.seed, True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        if self.warm:
            cache = SweepCache(self.store)
            for grid in self.grids(seeded_only=True):
                result = self._sweep(grid, cache)
                self.seeded_rows[grid[:2]] = [_point_row(p) for p in result]

    def prepare(self, index: int) -> None:
        """Cold: a new empty store.  Warm: the next three unseen N values
        (per call, so a traced re-run of a pass gets unseen ones too)."""
        if self.warm:
            slot = 3 * (self.unseen_used % (len(self.unseen_order) // 3))
            self.unseen_n = tuple(sorted(self.unseen_order[slot:slot + 3]))
            self.unseen_used += 1
        else:
            self.store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)

    def grids(self, seeded_only: bool = False
              ) -> typing.Iterator[typing.Tuple[str, int, tuple]]:
        """``(kernel, config index, N values)`` for every sweep call.

        A warm call sweeps the seeded N values and the pass's unseen ones
        together, so every call does the same mix of reads and planning.
        """
        n_values = SWEEP_N
        if self.warm and not seeded_only:
            n_values = tuple(sorted(SWEEP_N + self.unseen_n))
        for kernel in SWEEP_KERNELS:
            for config_index in range(len(self.configs)):
                yield (kernel, config_index, n_values)

    def _sweep(self, grid, cache):
        kernel, index, n_values = grid
        config, variant = self.configs[index]
        return sweep(config, kernel, n_values, SWEEP_M, variant=variant,
                     seed=self.seed, verify=True, cache=cache)

    def run_pass(self, index: int, ledger: Ledger,
                 tracer: Tracer) -> PassResult:
        cache = SweepCache(self.store)
        latencies, units, rows, owners = [], 0, [], []
        results = []
        for grid in self.grids():
            op = ledger.attempt()
            tracer.op_id = op
            start = self.clock()
            try:
                result = self._sweep(grid, cache)
            except Exception as err:  # any error fails the operation
                ledger.fail(op, f"{grid}: {err!r}")
                continue
            finally:
                latencies.append(self.clock() - start)
            units += len(result)
            results.append((op, grid, result))
        with tracer.paused():
            for op, grid, result in results:
                grid_rows = [_point_row(p) for p in result]
                if self.warm:
                    seeded = [r for r in grid_rows if r[2] in SWEEP_N]
                    ledger.check(op, seeded == self.seeded_rows[grid[:2]],
                                 f"{grid}: store read differs from write")
                rows.extend(grid_rows)
                owners.extend([op] * len(grid_rows))
            self._resimulate(index, rows, owners, ledger)
            if self.first is None:
                self.first = rows
            elif not self.warm and owners and rows != self.first:
                ledger.fail(owners[0], f"pass {index} differs from pass 0")
        return PassResult(units, sum(latencies), latencies)

    def _resimulate(self, index, rows, owners, ledger) -> None:
        """Re-run a seeded sample of points through the event engine."""
        if not rows:
            return
        rng = numpy.random.default_rng((self.seed, index, 0xC4EC))
        by_variant = {variant: config for config, variant in self.configs}
        for slot in rng.choice(len(rows), size=min(RESIM_SAMPLE, len(rows)),
                               replace=False):
            kernel, variant, n, m, cycles, phases = rows[int(slot)]
            try:
                point = measure_point(by_variant[variant], kernel, n, m,
                                      variant, None, self.seed, True)
                ok = (point.runtime_cycles == cycles
                      and tuple(sorted(point.phases.items())) == phases)
            except Exception:  # any error fails the check
                ok = False
            ledger.check(owners[int(slot)], ok,
                         f"re-simulated {kernel}/{variant} N={n} M={m} "
                         f"differs from {cycles} cycles")

    def fingerprint(self):
        return {"points": len(self.first), "cycles": digest(self.first),
                "model_mape_pct": self.model_mape_pct()}

    def model_mape_pct(self) -> float:
        """Mean over kernels of Eq. 1 fitted to the extended grid."""
        errors = []
        for kernel in SWEEP_KERNELS:
            triples = [(m, n, float(c)) for k, v, n, m, c, _p in self.first
                       if k == kernel and v == "extended" and n in SWEEP_N]
            errors.append(_fit_mape(triples))
        return float(numpy.mean(errors))



# ----------------------------------------------------------------------
# Event-simulated job stream
# ----------------------------------------------------------------------
def _platform_mape(config, platform, kernels) -> float:
    """Mean over kernels of the characterized Eq. 1 on its own grid."""
    errors = []
    for kernel in kernels:
        grid = sweep(config, kernel, PLATFORM_N, PLATFORM_M, verify=False)
        errors.append(_fit_mape(grid.triples(),
                                platform.offload_models[kernel]))
    return float(numpy.mean(errors))


class StreamWorkload(Workload):
    """E9-style back-to-back jobs under ``ModelDriven`` on one system.

    Each pass serves a new stream of :data:`STREAM_JOBS` jobs on a fresh
    system: a system's trace grows with every job it serves, so per-job
    cost rises along a stream and a pass must start from boot state.
    """

    name = "stream"

    def setup(self) -> None:
        self.config = SoCConfig.extended(num_clusters=CLUSTERS)
        self.platform = repro.workload.characterize_platform(
            self.config, STREAM_KERNELS)
        self.inputs = {0: self._generate(0)}
        self.system = ManticoreSystem(self.config)
        self.first: typing.Optional[typing.List[tuple]] = None
        self.first_outcomes: typing.List = []

    def _generate(self, index: int):
        return repro.workload.generate_workload(
            STREAM_JOBS, kernels=STREAM_KERNELS, min_n=16, max_n=4096,
            seed=input_seed(self.seed, index))

    def prepare(self, index: int) -> None:
        if index not in self.inputs:
            self.inputs = {index: self._generate(index)}
        if self.system is None:
            self.system = ManticoreSystem(self.config)

    def run_pass(self, index: int, ledger: Ledger,
                 tracer: Tracer) -> PassResult:
        latencies, outcomes, ops = [], [], []
        for job in self.inputs[index]:
            op = ledger.attempt()
            tracer.op_id = op
            start = self.clock()
            try:
                result = repro.workload.run_workload(
                    self.system, [job], self.platform, verify=True)
            except Exception as err:  # any error fails the operation
                latencies.append(self.clock() - start)
                ledger.fail(op, f"job {job}: {err!r}")
                # A failed job may leave the system mid-run.
                self.system = ManticoreSystem(self.config)
                continue
            latencies.append(self.clock() - start)
            outcomes.append(result.outcomes[0])
            ops.append(op)
        self.system = None
        with tracer.paused():
            if index == 0 and self.first is None:
                self.first_outcomes = outcomes
                self.first = [(o.spec.kernel_name, o.spec.n,
                               o.placement.offload,
                               o.placement.num_clusters, o.cycles)
                              for o in outcomes]
                self._resimulate(outcomes, ops, ledger)
        return PassResult(len(outcomes), sum(latencies), latencies)

    def _resimulate(self, outcomes, ops, ledger) -> None:
        """A seeded sample of jobs must time the same on a fresh system."""
        rng = numpy.random.default_rng((self.seed, 0x57EA))
        for slot in rng.choice(len(outcomes),
                               size=min(STREAM_RESIM_SAMPLE, len(outcomes)),
                               replace=False):
            outcome = outcomes[int(slot)]
            try:
                again = repro.workload.run_workload(
                    ManticoreSystem(self.config), [outcome.spec],
                    self.platform, verify=True).outcomes[0]
                ok = again == outcome
            except Exception:  # any error fails the check
                ok = False
            ledger.check(ops[int(slot)], ok,
                         f"job {outcome.spec} differs on a fresh system")

    def held_out_mape_pct(self) -> float:
        """Eq. 1 from ``characterize_platform`` against the event-simulated
        cycles of pass 0's offloaded jobs, which it was not fitted on."""
        rows = [r for r in self.first if r[2]]
        return mape([float(c) for *_x, c in rows],
                    [self.platform.offload_models[k].predict(m, n)
                     for k, n, _o, m, _c in rows])

    def fingerprint(self):
        return {"jobs": len(self.first), "cycles": digest(self.first),
                "model_mape_pct": self.model_mape_pct(),
                "held_out_mape_pct": self.held_out_mape_pct()}

    def model_mape_pct(self) -> float:
        return _platform_mape(self.config, self.platform, STREAM_KERNELS)

    def notes(self) -> typing.List[str]:
        return [f"held-out MAPE {self.held_out_mape_pct():.4f} % over pass "
                "0's offloaded jobs (simulated)"]

    def layer_extras(self) -> typing.Dict[str, float]:
        """Resource busy figures of pass 0's jobs on a fresh system."""
        from repro.analysis.utilization import collect_utilization

        system = ManticoreSystem(self.config)
        repro.workload.run_workload(
            system, [o.spec for o in self.first_outcomes], self.platform,
            verify=False)
        usage = {u.name: u for u in collect_utilization(system,
                                                        include_idle=True)}
        return {
            "hw.read_channel_busy_cycles":
                usage[system.read_channel.name].busy_cycles,
            "hw.write_channel_busy_cycles":
                usage[system.write_channel.name].busy_cycles,
            "hw.host_port_busy_cycles":
                usage[system.noc.host_port.name].busy_cycles,
            "hw.amo_port_requests":
                usage[system.noc.amo_port.name].requests,
        }


# ----------------------------------------------------------------------
# E13 admission under load
# ----------------------------------------------------------------------
class TimedPolicy:
    """Times every ``place`` call of the wrapped traffic policy (or, while
    tracing, records it as a span instead)."""

    def __init__(self, policy, latencies: typing.List[float],
                 tracer: Tracer, name: str,
                 clock: typing.Callable[[], float]) -> None:
        self.policy = policy
        self.clock = clock
        self.latencies = latencies
        self.tracer = tracer
        self.span_name = f"traffic.place.{name}"
        self.reservations = 0

    def resolved_name(self, capacity: int) -> str:
        return self.policy.resolved_name(capacity)

    def place(self, job, deadline, engine):
        if self.tracer.active:
            self.reservations += len(engine.occupancy)
            span = self.tracer.begin(self.span_name)
            try:
                return self.policy.place(job, deadline, engine)
            finally:
                self.tracer.end(span)
        start = self.clock()
        try:
            return self.policy.place(job, deadline, engine)
        finally:
            self.latencies.append(self.clock() - start)


def _check_traffic(result, ledger: Ledger, op: int) -> None:
    """Invariants every served stream must satisfy."""
    events = []
    for o in result.outcomes:
        if not o.admitted:
            continue
        ledger.check(op, o.start_cycle >= o.spec.arrival_cycle
                     and o.end_cycle > o.start_cycle,
                     f"{result.policy_name}: job served before arrival")
        if o.placement == PLACEMENT_OFFLOAD:
            events.append((o.start_cycle, o.num_clusters))
            events.append((o.end_cycle, -o.num_clusters))
        if result.policy_name == "deadline_aware":
            ledger.check(op, o.end_cycle <= o.deadline_cycle,
                         "deadline_aware admitted a job it cannot finish")
    usage = 0
    for _cycle, delta in sorted(events):
        usage += delta
        if usage > result.capacity:
            ledger.fail(op, f"{result.policy_name}: {usage} clusters busy "
                            f"on a {result.capacity}-cluster fabric")
            break


class TrafficWorkload(Workload):
    """E13: every policy over Poisson, bursty and trace arrivals.

    A pass serves :data:`TRAFFIC_STREAMS` scenarios (one per derived
    seed), each with every arrival process and every policy.
    """

    name = "traffic"

    def setup(self) -> None:
        from repro.experiments.traffic import (RECORDED_TRACE,
                                               RECORDED_TRACE_PERIOD)

        self.config = SoCConfig.extended(num_clusters=CLUSTERS)
        self.platform = repro.workload.characterize_platform(
            self.config, TRAFFIC_KERNELS)
        self.processes = {}
        for mean in TRAFFIC_MEANS:
            self.processes[f"poisson@{mean:g}"] = trf.PoissonArrivals(mean)
            self.processes[f"bursty@{mean:g}"] = trf.BurstyArrivals(
                burst_interarrival_cycles=mean / 5, mean_burst_jobs=8.0,
                mean_idle_cycles=mean * 8)
        self.processes["trace"] = trf.TraceArrivals(
            RECORDED_TRACE, period_cycles=RECORDED_TRACE_PERIOD)
        self.inputs = {0: self._generate(0)}
        self.engine = trf.TrafficEngine.from_platform(
            self.platform, capacity=CLUSTERS, slack=TRAFFIC_SLACK)
        self.policies = (trf.TrafficAlwaysHost(),
                         trf.TrafficAlwaysOffload(CLUSTERS),
                         trf.TrafficModelDriven(),
                         trf.TrafficDeadlineAware())
        self.first: typing.Optional[typing.List[tuple]] = None
        self.first_metrics: typing.List = []
        self.reservations = 0
        self.admissions_traced = 0

    def _generate(self, index: int):
        """``(label, jobs)`` for every scenario seed and arrival process."""
        streams = []
        for k in range(TRAFFIC_STREAMS):
            seed = input_seed(self.seed, index * TRAFFIC_STREAMS + k)
            for label, process in self.processes.items():
                streams.append((label, trf.generate_traffic(
                    process, TRAFFIC_JOBS, tenants=TRAFFIC_TENANTS,
                    kernels=TRAFFIC_KERNELS, min_n=16, max_n=4096,
                    seed=seed)))
        return streams

    def prepare(self, index: int) -> None:
        if index not in self.inputs:
            self.inputs = {index: self._generate(index)}

    def run_pass(self, index: int, ledger: Ledger,
                 tracer: Tracer) -> PassResult:
        latencies: typing.List[float] = []
        seconds, units, served = 0.0, 0, []
        for label, stream in self.inputs[index]:
            for policy in self.policies:
                op = ledger.attempt()
                tracer.op_id = op
                timed = TimedPolicy(policy, latencies, tracer,
                                    policy.resolved_name(CLUSTERS),
                                    self.clock)
                start = self.clock()
                try:
                    result = self.engine.run(stream, timed,
                                             arrival_name=label)
                except Exception as err:  # any error fails the operation
                    seconds += self.clock() - start
                    ledger.fail(op, f"{label}/{policy.name}: {err!r}")
                    continue
                seconds += self.clock() - start
                units += len(result.outcomes)
                served.append((op, result, trf.compute_metrics(result)))
                self.reservations += timed.reservations
                if tracer.active:
                    self.admissions_traced += len(result.outcomes)
        with tracer.paused():
            for op, result, _metrics in served:
                _check_traffic(result, ledger, op)
            if index == 0 and self.first is None:
                self.first_metrics = [m for _op, _r, m in served]
                self.first = [
                    (r.arrival_name, r.policy_name,
                     [(o.placement, o.num_clusters, o.start_cycle,
                       o.end_cycle, o.deadline_cycle) for o in r.outcomes])
                    for _op, r, _m in served]
        return PassResult(units, seconds, latencies)

    def deadline_miss_rate(self) -> float:
        """``deadline_aware`` misses (sheds included) over pass 0."""
        runs = [m for m in self.first_metrics
                if m.policy_name == "deadline_aware"]
        return (sum(m.deadline_misses for m in runs)
                / sum(m.jobs for m in runs))

    def fingerprint(self):
        return {"runs": len(self.first), "outcomes": digest(self.first),
                "model_mape_pct": self.model_mape_pct(),
                "deadline_miss_rate": self.deadline_miss_rate()}

    def model_mape_pct(self) -> float:
        return _platform_mape(self.config, self.platform, TRAFFIC_KERNELS)

    def notes(self) -> typing.List[str]:
        return [f"deadline_miss_rate {self.deadline_miss_rate():.4f} "
                "(deadline_aware over every arrival process and rate in "
                "pass 0, sheds counted as misses; simulated)"]

    def layer_extras(self) -> typing.Dict[str, float]:
        extras: typing.Dict[str, float] = {
            "traffic.mean_reservations":
                self.reservations / max(1, self.admissions_traced)}
        for policy in self.policies:
            name = policy.resolved_name(CLUSTERS)
            # The worst arrival process's p99, per policy.
            extras[f"traffic.p99_sojourn_cycles.{name}"] = max(
                m.p99_sojourn_cycles for m in self.first_metrics
                if m.policy_name == name)
        return extras


WORKLOADS = {
    "sweep_cold": lambda seed, scratch: SweepWorkload(seed, scratch, False),
    "sweep_warm": lambda seed, scratch: SweepWorkload(seed, scratch, True),
    "stream": StreamWorkload,
    "traffic": TrafficWorkload,
}


def make(name: str, seed: int, scratch: str) -> Workload:
    return WORKLOADS[name](seed, scratch)

