"""Structured trace recording for simulations.

The offload runtimes annotate phase boundaries (descriptor written,
dispatch done, cluster N woke, DMA-in done, compute done, completion
signalled, host notified) so experiments can break a measured runtime
down into the same components the paper discusses.  The recorder is a
plain append-only log with query helpers; it never affects timing.

A record enters the log in one of two ways.  :meth:`TraceRecorder.record`
stamps the current cycle and appends at once.  :meth:`TraceRecorder.
record_at` takes a cycle the caller already knows — the DM cores know
when their DMA-in, compute and completion store end as soon as they
commit them — and keeps the record pending until the clock reaches that
cycle, so no scheduler callback has to run just to append it (a drain
still settles where that callback would have left the clock).  A
pending record is invisible until then; from then on every query sees
it, merged into the log in cycle order.

On a system the log is per run: every host program starts by clearing
it (see :func:`repro.core.staging.run_program`), so after an offload
it holds that offload's records only, however many jobs the system
served before.  Activity totals across runs live in counters instead
(see :mod:`repro.energy`).
"""

from __future__ import annotations

import operator
import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:
    from repro.sim.kernel import Simulator


class TraceRecord(typing.NamedTuple):
    """One timestamped trace entry.

    A named tuple rather than a dataclass: simulations append tens of
    thousands of these per measurement, and tuple construction is the
    cheapest immutable record Python offers.

    Attributes
    ----------
    cycle:
        Simulation time at which the entry was recorded.
    source:
        Component that recorded it (e.g. ``"host"``, ``"cluster3.dm"``).
    label:
        Event kind (e.g. ``"dispatch_done"``).
    data:
        Optional payload (small dict or scalar), for debugging.
    """

    cycle: int
    source: str
    label: str
    data: typing.Any = None


_cycle = operator.itemgetter(0)


class TraceRecorder:
    """Append-only, queryable log of :class:`TraceRecord` entries.

    The log is sorted by ``cycle``: :meth:`record` stamps the
    simulator's ``now``, which only moves forward while the simulation
    runs.  Whoever rewinds the clock must :meth:`clear` the log with
    it, as ``ManticoreSystem.reset()`` does.  :meth:`window` relies on
    that order to find a cycle range by binary search instead of a scan.
    Each run on a system also starts with a :meth:`clear`, so the log
    (and the memory it holds) never outgrows one run.

    Records that :meth:`record_at` stamps for a later cycle wait in a
    pending list beside :attr:`records`.  Every query first calls
    :meth:`merge_due`, which moves the records whose cycle the clock has
    reached into :attr:`records`, each ahead of the records
    :meth:`record` made in its cycle, where the heap callback it stands
    in for would have appended it; stamped records of one cycle keep
    their stamping order.  So a query never sees a record from beyond
    the current cycle, the log stays sorted, and where a record lands
    does not depend on when it was merged.  Code that reads
    :attr:`records` directly sees the due records once something has
    merged them; every run on a system ends with a merge (see
    :func:`repro.core.staging.run_program`).
    """

    def __init__(self, sim: typing.Optional["Simulator"],
                 enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        self.records: typing.List[TraceRecord] = []
        #: Records stamped for a cycle the clock has not reached yet.
        self._pending: typing.List[TraceRecord] = []
        # The first recorder built on a simulator becomes its system
        # recorder: deadlock/cycle-limit reports quote its tail.
        # (ManticoreSystem builds its recorder right after the kernel,
        # so later per-component fallback recorders never shadow it.)
        if sim is not None and getattr(sim, "trace", None) is None:
            sim.trace = self

    def record(self, source: str, label: str, data: typing.Any = None) -> None:
        """Append an entry stamped with the current cycle (if enabled)."""
        if not self.enabled:
            return
        # ``tuple.__new__`` builds the record without the named tuple's
        # Python-level ``__new__`` frame; the fields are the same.
        self.records.append(
            tuple.__new__(TraceRecord, (self.sim.now, source, label, data)))

    def record_at(self, cycle: int, source: str, label: str,
                  data: typing.Any = None) -> None:
        """Stamp an entry for ``cycle``, which must not have passed.

        The entry stays pending, invisible to every query, until the
        clock reaches ``cycle`` (see the class docstring).  For
        ``cycle == now`` this is :meth:`record`.  Either way the clock
        is held at ``cycle`` (:meth:`~repro.sim.kernel.Simulator.
        hold_until`), so a drain settles where a callback recording the
        entry would have left it, tracing on or off.
        """
        sim = self.sim
        now = sim.now
        if cycle <= now:
            if cycle < now:
                raise SimulationError(
                    f"cannot stamp a trace record for cycle {cycle} at "
                    f"cycle {now}")
            self.record(source, label, data)
            return
        sim.hold_until(cycle)
        if self.enabled:
            self._pending.append(
                tuple.__new__(TraceRecord, (cycle, source, label, data)))

    def merge_due(self) -> None:
        """Move every pending record whose cycle the clock has reached
        into :attr:`records` (see the class docstring).

        Sorts only the log's tail from the earliest due cycle on, which
        in a run's log starts a few records after the run's start.
        """
        pending = self._pending
        if not pending:
            return
        now = self.sim.now
        pending.sort(key=_cycle)
        split = len(pending)
        while split and pending[split - 1][0] > now:
            split -= 1
        if not split:
            return
        due = pending[:split]
        del pending[:split]
        records = self.records
        start = self._lower_bound(due[0][0], 0)
        # Stable: a due record goes ahead of the records made in its
        # cycle, and due records of one cycle keep their stamping order.
        due += records[start:]
        due.sort(key=_cycle)
        records[start:] = due

    def copy(self) -> "TraceRecorder":
        """A detached copy of the log as queries see it now.

        Holds no simulator, takes no new records, and later records,
        merges and clears on this recorder leave it alone.
        """
        self.merge_due()
        copy = TraceRecorder(None, enabled=False)
        # A slice, not list(): a test may swap in a list that forbids
        # iterating the whole log.
        copy.records = self.records[:]
        return copy

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window(self, start_cycle: int,
               end_cycle: int) -> typing.Iterator[TraceRecord]:
        """Records with ``start_cycle <= cycle < end_cycle``, in log order.

        O(log L + W) for a log of L records and a window of W: the
        window is one contiguous run of the sorted log, whose bounds
        are found by binary search.  Returns an iterator over that run
        rather than a copy, so reading a window allocates nothing per
        record; do not append to the log while iterating.
        """
        self.merge_due()
        first = self._lower_bound(start_cycle, 0)
        stop = self._lower_bound(end_cycle, first)
        return map(self.records.__getitem__, range(first, stop))

    def _lower_bound(self, cycle: int, low: int) -> int:
        """Index of the first record at or after ``low`` with
        ``record.cycle >= cycle`` (``len`` if none).

        Hand-written because ``bisect``'s ``key=`` needs Python 3.10.
        """
        records = self.records
        high = len(records)
        while low < high:
            middle = (low + high) // 2
            if records[middle].cycle < cycle:
                low = middle + 1
            else:
                high = middle
        return low

    def filter(self, source: typing.Optional[str] = None,
               label: typing.Optional[str] = None) -> typing.List[TraceRecord]:
        """All records matching the given source and/or label."""
        self.merge_due()
        result = self.records
        if source is not None:
            result = [r for r in result if r.source == source]
        if label is not None:
            result = [r for r in result if r.label == label]
        return list(result)

    def first(self, label: str) -> typing.Optional[TraceRecord]:
        """Earliest record with the given label, or None."""
        self.merge_due()
        for record in self.records:
            if record.label == label:
                return record
        return None

    def last(self, label: str) -> typing.Optional[TraceRecord]:
        """Latest record with the given label, or None."""
        self.merge_due()
        for record in reversed(self.records):
            if record.label == label:
                return record
        return None

    def cycle_of(self, label: str) -> int:
        """Cycle of the first record with the label.

        Raises
        ------
        KeyError
            If no record carries the label.
        """
        record = self.first(label)
        if record is None:
            raise KeyError(f"no trace record labelled {label!r}")
        return record.cycle

    def span(self, start_label: str, end_label: str) -> int:
        """Cycles elapsed between the first records of the two labels."""
        return self.cycle_of(end_label) - self.cycle_of(start_label)

    def labels(self) -> typing.List[str]:
        """Distinct labels in first-appearance order."""
        self.merge_due()
        seen: typing.Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.label, None)
        return list(seen)

    def tail(self, count: int) -> typing.Tuple[TraceRecord, ...]:
        """The last ``count`` records up to the current cycle."""
        self.merge_due()
        return tuple(self.records[-count:]) if count > 0 else ()

    def clear(self) -> None:
        """Drop all records, pending ones too."""
        self.records.clear()
        self._pending.clear()

    def __len__(self) -> int:
        self.merge_due()
        return len(self.records)

    def __iter__(self) -> typing.Iterator[TraceRecord]:
        self.merge_due()
        return iter(self.records)
