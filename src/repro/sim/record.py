"""Structured trace recording for simulations.

The offload runtimes annotate phase boundaries (descriptor written,
dispatch done, cluster N woke, DMA-in done, compute done, completion
signalled, host notified) so experiments can break a measured runtime
down into the same components the paper discusses.  The recorder is a
plain append-only log with query helpers; it never affects timing.
"""

from __future__ import annotations

import typing

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


class TraceRecorder:
    """Append-only, queryable log of :class:`TraceRecord` entries.

    The log is sorted by ``cycle``: :meth:`record` stamps the
    simulator's ``now``, which only moves forward while the simulation
    runs.  Whoever rewinds the clock must :meth:`clear` the log with
    it, as ``ManticoreSystem.reset()`` does.  :meth:`window` relies on
    that order to find a cycle range by binary search instead of a scan.
    """

    def __init__(self, sim: "Simulator", enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        self.records: typing.List[TraceRecord] = []
        # The first recorder built on a simulator becomes its system
        # recorder: deadlock/cycle-limit reports quote its tail.
        # (ManticoreSystem builds its recorder right after the kernel,
        # so later per-component fallback recorders never shadow it.)
        if getattr(sim, "trace", None) is None:
            sim.trace = self

    def record(self, source: str, label: str, data: typing.Any = None) -> None:
        """Append an entry stamped with the current cycle (if enabled)."""
        if not self.enabled:
            return
        self.records.append(TraceRecord(self.sim.now, source, label, data))

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
        result = self.records
        if source is not None:
            result = [r for r in result if r.source == source]
        if label is not None:
            result = [r for r in result if r.label == label]
        return list(result)

    def first(self, label: str) -> typing.Optional[TraceRecord]:
        """Earliest record with the given label, or None."""
        for record in self.records:
            if record.label == label:
                return record
        return None

    def last(self, label: str) -> typing.Optional[TraceRecord]:
        """Latest record with the given label, or None."""
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
        seen: typing.Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.label, None)
        return list(seen)

    def clear(self) -> None:
        """Drop all records."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> typing.Iterator[TraceRecord]:
        return iter(self.records)
