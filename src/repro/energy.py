"""First-order energy accounting for offload experiments.

The paper motivates reducing offload overheads for both "runtime and
energy consumption"; this module quantifies the energy side.  An
:class:`EnergyMeter` snapshots the system's cumulative activity
counters, lets any number of offloads (or host executions) run, and
integrates a :class:`PowerBudget` over the activity deltas:

- the **host** burns active power while executing or polling, and only
  idle power while clock-gated in WFI (the sync-unit extension's energy
  win: the baseline's poll loop keeps the host hot);
- **worker cores** burn active power for their busy cycles and idle
  power otherwise;
- **DM cores** are active from doorbell to completion signal (each
  cluster counts those cycles as each job's completion signal lands);
- **data movement** costs energy per byte on the shared channels;
- **control traffic** costs energy per interconnect transaction;
- everything else is **static/idle** power × elapsed time.

Every input is a monotonic counter that the simulated blocks keep —
host sleep cycles, worker busy cycles, DM-core active cycles, channel
bytes, NoC transactions — so a window costs two snapshots however long
the system has run.  The trace and the NoC log are not read: they hold
only the latest run (see :func:`repro.core.staging.run_program`).

The default budget's magnitudes are placeholder 22 nm-class numbers
(pJ/cycle = mW at the paper's 1 GHz); they are configuration, not
measurement — substitute your own silicon's numbers.  What the
experiments rely on is only the *structure*: which design keeps which
component busy for how long, which the simulator measures exactly.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import ConfigError
from repro.soc.manticore import ManticoreSystem


@dataclasses.dataclass(frozen=True)
class PowerBudget:
    """Per-component power in pJ/cycle (equivalently mW at 1 GHz),
    plus per-event energies in pJ."""

    host_active: float = 250.0
    host_idle: float = 25.0
    worker_active: float = 12.0
    worker_idle: float = 1.2
    dm_core_active: float = 10.0
    dm_core_idle: float = 1.0
    #: Per byte moved on a shared memory channel (covers SRAM/PHY).
    memory_per_byte: float = 1.2
    #: Per control-interconnect transaction.
    noc_per_transaction: float = 6.0
    #: Static power of the uncore (sync unit, barrier, clock tree).
    uncore_static: float = 8.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ConfigError(
                    f"PowerBudget.{field.name} must be >= 0")


#: The default placeholder budget (see the module docstring).
DEFAULT_POWER_BUDGET = PowerBudget()


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one measurement window, by component (pJ)."""

    window_cycles: int
    host: float
    workers: float
    dm_cores: float
    memory: float
    interconnect: float
    uncore: float

    @property
    def total(self) -> float:
        return (self.host + self.workers + self.dm_cores + self.memory
                + self.interconnect + self.uncore)

    def render(self) -> str:
        lines = [f"energy over {self.window_cycles} cycles:"]
        for name in ("host", "workers", "dm_cores", "memory",
                     "interconnect", "uncore"):
            value = getattr(self, name)
            share = 100 * value / self.total if self.total else 0.0
            lines.append(f"  {name:12s} {value:12.1f} pJ ({share:4.1f} %)")
        lines.append(f"  {'total':12s} {self.total:12.1f} pJ")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class _Snapshot:
    cycle: int
    host_slept: int
    worker_busy: int
    dm_active: int
    bytes_moved: int
    noc_transactions: int


class EnergyMeter:
    """Integrates a power budget over a window of system activity.

    Usage::

        meter = EnergyMeter(system)
        meter.start()
        offload_daxpy(system, n=1024, num_clusters=8)
        report = meter.stop()
        print(report.render())

    The meter only reads cumulative counters, never the trace or the
    NoC log (both hold only the latest run), so any mix of offloads and
    host executions inside the window is accounted correctly, at a cost
    that does not grow with the jobs the system served before.
    """

    def __init__(self, system: ManticoreSystem,
                 budget: typing.Optional[PowerBudget] = None) -> None:
        self.system = system
        self.budget = budget or DEFAULT_POWER_BUDGET
        self._start: typing.Optional[_Snapshot] = None

    # ------------------------------------------------------------------
    # Counter snapshots
    # ------------------------------------------------------------------
    def _snapshot(self) -> _Snapshot:
        system = self.system
        clusters = system.clusters
        worker_busy = sum(worker.busy_cycles
                          for cluster in clusters
                          for worker in cluster.workers)
        bytes_moved = (system.read_channel.bytes_moved
                       + system.write_channel.bytes_moved)
        return _Snapshot(
            cycle=system.sim.now,
            host_slept=system.host.slept_cycles,
            worker_busy=worker_busy,
            dm_active=sum(cluster.dm_active_cycles for cluster in clusters),
            bytes_moved=bytes_moved,
            noc_transactions=system.noc.transactions_logged,
        )

    # ------------------------------------------------------------------
    # Window control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the measurement window at the current cycle."""
        self._start = self._snapshot()

    def stop(self) -> EnergyBreakdown:
        """Close the window and return its energy breakdown.

        DM-core active time is charged whole (doorbell to completion
        signal) when the job's completion lands in the window, so a
        doorbell still open when the window starts counts in full.

        Raises
        ------
        ConfigError
            If :meth:`start` was not called first.
        """
        if self._start is None:
            raise ConfigError("EnergyMeter.stop() before start()")
        begin, end = self._start, self._snapshot()
        self._start = None
        budget = self.budget
        window = end.cycle - begin.cycle

        host_slept = end.host_slept - begin.host_slept
        host_active = window - host_slept
        host = (budget.host_active * host_active
                + budget.host_idle * host_slept)

        total_workers = sum(c.num_workers for c in self.system.clusters)
        worker_busy = end.worker_busy - begin.worker_busy
        worker_idle = max(0, total_workers * window - worker_busy)
        workers = (budget.worker_active * worker_busy
                   + budget.worker_idle * worker_idle)

        dm_busy = end.dm_active - begin.dm_active
        dm_idle = max(0, len(self.system.clusters) * window - dm_busy)
        dm_cores = (budget.dm_core_active * dm_busy
                    + budget.dm_core_idle * dm_idle)

        memory = budget.memory_per_byte * (end.bytes_moved
                                           - begin.bytes_moved)
        interconnect = budget.noc_per_transaction * (
            end.noc_transactions - begin.noc_transactions)
        uncore = budget.uncore_static * window

        return EnergyBreakdown(
            window_cycles=window, host=host, workers=workers,
            dm_cores=dm_cores, memory=memory, interconnect=interconnect,
            uncore=uncore)


def measure_offload_energy(config, kernel_name: str, n: int,
                           num_clusters: int,
                           budget: typing.Optional[PowerBudget] = None,
                           **offload_kwargs) -> typing.Tuple[
                               "EnergyBreakdown", int]:
    """Energy and runtime of one offload on a fresh system.

    Returns ``(breakdown, runtime_cycles)``.
    """
    from repro.core.offload import offload

    system = ManticoreSystem(config)
    meter = EnergyMeter(system, budget)
    meter.start()
    result = offload(system, kernel_name, n, num_clusters, **offload_kwargs)
    return meter.stop(), result.runtime_cycles
