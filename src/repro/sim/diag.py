"""Simulation-integrity diagnostics: loud, structured failure reports.

The paper's contribution is validated on cycle counts with < 1 % MAPE
headroom, so a silently mis-attributed marker or a half-drained reused
system corrupts the very data the model is fitted on.  This module
turns the simulator's silent failure modes into structured diagnostics:

:class:`SimulationReport`
    Built when a run deadlocks (the event queue drains with the awaited
    event untriggered) or trips its cycle budget.  Names every blocked
    process, classifies what it waits on (mailbox, IRQ, barrier,
    resource, event, join), and carries the tail of the trace log —
    instead of a bare ``DeadlockError``/``CycleLimitError`` message.
:class:`QuiescenceReport`
    The result of auditing a system back to boot state before reuse
    (``SystemPool.release``, ``ManticoreSystem.reset``): every
    component that is *not* at boot state contributes a
    :class:`QuiescenceViolation` instead of being silently dropped or —
    worse — reused dirty.
:class:`AccessAuditor`
    Collects MMIO access anomalies (stale sync-unit credits, doorbells
    nobody is waiting on, writes to read-only registers, unknown
    offsets).  Anomalies that are otherwise silent raise
    :class:`~repro.errors.ProtocolError` in strict mode
    (``REPRO_STRICT``, or ``AccessAuditor(strict=True)``).

This module sits at the very bottom of the simulation layer: it may
import only :mod:`repro.errors`, :mod:`repro.flags`, and the kernel's
leaf modules (``sim.event``, ``sim.process``, ``sim.record``) — never
``sim.kernel`` — so the kernel itself (and every layer above it) can
depend on it without cycles.  ``tools/check_imports.py`` enforces this.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import flags
from repro.errors import ProtocolError
from repro.sim.event import AllOf, AnyOf, Event
from repro.sim.process import Process
from repro.sim.record import TraceRecord

if typing.TYPE_CHECKING:
    from repro.sim.kernel import Simulator

#: How many trailing trace records a report carries.
TRACE_TAIL = 12


class IntegrityWarning(UserWarning):
    """Non-fatal integrity diagnostic (dropped pooled system, malformed
    cache record).  Strict mode escalates the fatal-able ones."""


# ----------------------------------------------------------------------
# Wait classification
# ----------------------------------------------------------------------
def classify_wait(target: typing.Any) -> typing.Tuple[str, str]:
    """``(kind, detail)`` describing what a blocked process waits on.

    Classification is by event identity and the naming conventions the
    hardware models already use (``mailbox3.ring``, ``irq.syncunit``,
    ``cluster0.barrier.gen2``, ``mem.read-done@120``), so it needs no
    knowledge of the upper layers.
    """
    if isinstance(target, Process):
        return "join", f"process {target.name or hex(id(target))!r}"
    if isinstance(target, AllOf):
        missing = [e.name or hex(id(e)) for e in target.events
                   if not e.triggered]
        return "all-of", f"{len(missing)} untriggered: {', '.join(missing)}"
    if isinstance(target, AnyOf):
        names = [e.name or hex(id(e)) for e in target.events]
        return "any-of", ", ".join(names)
    if isinstance(target, Event):
        name = target.name or hex(id(target))
        if ".ring" in name and name.startswith("mailbox"):
            return "mailbox", name
        if name.startswith("irq."):
            return "irq", name[len("irq."):]
        if name.startswith("fabric_barrier.") or ".gen" in name:
            return "barrier", name
        if "-done@" in name:
            return "resource", name
        if name.startswith("timer@"):
            return "timer", name
        return "event", name
    if isinstance(target, int):
        return "delay", f"{target} cycles"
    return "unknown", repr(target)


@dataclasses.dataclass(frozen=True)
class BlockedProcess:
    """One parked process and the classified reason it is parked."""

    name: str
    wait_kind: str
    wait_detail: str
    since_cycle: int

    def describe(self) -> str:
        return (f"{self.name}: waiting on {self.wait_kind} "
                f"({self.wait_detail}) since cycle {self.since_cycle}")


@dataclasses.dataclass(frozen=True)
class SimulationReport:
    """Structured post-mortem of a wedged or budget-tripped run."""

    #: ``"deadlock"`` or ``"cycle-limit"``.
    reason: str
    #: Simulated cycle at which the run stopped.
    cycle: int
    #: Queued callbacks at the stop (0 for a true deadlock).
    pending: int
    #: Every live process parked on an untriggered event.
    blocked: typing.Tuple[BlockedProcess, ...]
    #: The event the run was waiting for, if any (``run(until=event)``).
    awaited: typing.Optional[str] = None
    #: Last few trace records before the stop (empty without a recorder).
    trace_tail: typing.Tuple[TraceRecord, ...] = ()

    def describe(self) -> str:
        """Multi-line human-readable rendering (the error message)."""
        lines = [
            f"simulation {self.reason} at cycle {self.cycle}: "
            f"{len(self.blocked)} blocked process(es), "
            f"{self.pending} pending callback(s)"
        ]
        if self.awaited:
            lines.append(f"  awaited event: {self.awaited}")
        for entry in self.blocked:
            lines.append(f"  - {entry.describe()}")
        if self.trace_tail:
            lines.append(f"  last {len(self.trace_tail)} trace record(s):")
            for record in self.trace_tail:
                lines.append(
                    f"    [cycle {record.cycle}] {record.source}: "
                    f"{record.label}")
        return "\n".join(lines)

    def blocked_named(self, name: str) -> BlockedProcess:
        """The blocked entry for ``name`` (KeyError if not blocked)."""
        for entry in self.blocked:
            if entry.name == name:
                return entry
        raise KeyError(f"process {name!r} is not in the blocked set")

    def __str__(self) -> str:
        return self.describe()


def build_report(sim: "Simulator", reason: str,
                 awaited: typing.Optional[Event] = None) -> SimulationReport:
    """Assemble a :class:`SimulationReport` from a simulator's state.

    Runs only on failure paths; the per-yield bookkeeping it reads
    (``Process.waiting_on``) is two attribute stores in the resume hot
    path and never perturbs event ordering or simulated time.
    """
    blocked = []
    for process in sim.live_processes:
        target = process.waiting_on
        if not isinstance(target, Event) or target.triggered:
            continue  # running, delayed, or about to resume
        kind, detail = classify_wait(target)
        blocked.append(BlockedProcess(
            name=process.name or hex(id(process)),
            wait_kind=kind, wait_detail=detail,
            since_cycle=process.waiting_since))
    blocked.sort(key=lambda entry: (entry.since_cycle, entry.name))
    recorder = getattr(sim, "trace", None)
    tail: typing.Tuple[TraceRecord, ...] = ()
    if recorder is not None:
        tail = recorder.tail(TRACE_TAIL)
    return SimulationReport(
        reason=reason, cycle=sim.now, pending=sim.pending,
        blocked=tuple(blocked),
        awaited=(awaited.name or hex(id(awaited))) if awaited is not None
        else None,
        trace_tail=tail)


# ----------------------------------------------------------------------
# Quiescence audit
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class QuiescenceViolation:
    """One component found away from boot state."""

    component: str
    check: str
    expected: typing.Any
    actual: typing.Any

    def describe(self) -> str:
        return (f"{self.component}: {self.check} "
                f"(expected {self.expected!r}, found {self.actual!r})")


@dataclasses.dataclass(frozen=True)
class QuiescenceReport:
    """Outcome of auditing a system back to boot state."""

    violations: typing.Tuple[QuiescenceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "system is quiescent"
        lines = [f"{len(self.violations)} quiescence violation(s):"]
        lines.extend(f"  - {v.describe()}" for v in self.violations)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class QuiescenceAudit:
    """Collector used by component walks (``ManticoreSystem.audit_quiescence``)."""

    def __init__(self) -> None:
        self._violations: typing.List[QuiescenceViolation] = []

    def expect(self, component: str, check: str, expected: typing.Any,
               actual: typing.Any) -> None:
        """Record a violation unless ``actual == expected``."""
        if actual != expected:
            self._violations.append(QuiescenceViolation(
                component=component, check=check,
                expected=expected, actual=actual))

    def report(self) -> QuiescenceReport:
        return QuiescenceReport(violations=tuple(self._violations))


# ----------------------------------------------------------------------
# MMIO access auditing
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AccessViolation:
    """One anomalous MMIO access."""

    cycle: int
    device: str
    kind: str
    offset: int
    value: typing.Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        text = (f"[cycle {self.cycle}] {self.device}+{self.offset:#x}: "
                f"{self.kind}")
        if self.value is not None:
            text += f" (value {self.value})"
        if self.detail:
            text += f" — {self.detail}"
        return text


class AccessAuditor:
    """Collects MMIO access anomalies; escalates them in strict mode.

    Devices report two classes of anomaly:

    - *fatal* ones (unknown offset, write to a read-only register) that
      the device raises on regardless — the auditor just records them so
      a post-mortem sees the full picture;
    - *silent* ones (a stale credit to a disarmed sync unit, a doorbell
      with no core listening) that historically only corrupted the
      measurement.  These are recorded, and raise
      :class:`~repro.errors.ProtocolError` when strict mode is on —
      either per-instance (``strict=True``) or globally via the
      ``REPRO_STRICT`` environment flag.
    """

    def __init__(self, sim: typing.Optional["Simulator"] = None,
                 strict: bool = False) -> None:
        self.sim = sim
        self._strict = strict
        self.violations: typing.List[AccessViolation] = []

    @property
    def strict(self) -> bool:
        """Instance override OR the ``REPRO_STRICT`` environment gate."""
        return self._strict or flags.strict()

    def report(self, device: str, kind: str, offset: int,
               value: typing.Optional[int] = None, detail: str = "",
               fatal: bool = False) -> None:
        """Record one anomaly.

        ``fatal=True`` marks anomalies the caller raises on anyway (the
        auditor never double-raises those); silent anomalies raise
        :class:`ProtocolError` here when strict mode is enabled.
        """
        violation = AccessViolation(
            cycle=self.sim.now if self.sim is not None else 0,
            device=device, kind=kind, offset=offset, value=value,
            detail=detail)
        self.violations.append(violation)
        if not fatal and self.strict:
            raise ProtocolError(
                f"strict mode: {violation.describe()}")

    def count(self, kind: typing.Optional[str] = None) -> int:
        """Number of recorded violations (optionally of one kind)."""
        if kind is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.kind == kind)

    def clear(self) -> None:
        """Drop recorded violations (system reset)."""
        self.violations.clear()
