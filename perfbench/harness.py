"""Measurement helpers for the host-time benchmark.

Nothing here imports the simulator, so the arithmetic can be unit
tested on its own (see ``perfbench/tests``):

- :func:`user_seconds` is the clock set-up and the sweeps are timed with;
- :class:`Tracer` keeps spans in memory — name, start, end, parent span
  and operation id — and computes each span's *self time*: its
  duration minus the part of it that child spans cover;
- :func:`percentile` / :func:`summarize` report timings as a median and
  a tail percentile together with the sample count;
- :class:`Ledger` counts attempted and failed operations, where an
  operation fails if it raised or if any of its output checks failed;
- :func:`compare_reference` checks a run's simulated fingerprint
  against the stored reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import time
import typing


def user_seconds() -> float:
    """User-mode CPU seconds this process has used.

    Set-up and the sweep workloads are timed with this clock.  Kernel
    time is left out: creating a store file there costs from 20 to 300
    microseconds, depending on how many files were deleted in the last
    minute or so, which would drown the store's own work.  Kernel time
    is reported on its own as the ``host.sys_s`` per-layer metric.  The
    resolution is one microsecond.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def system_seconds() -> float:
    """Kernel-mode CPU seconds this process has used."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclasses.dataclass(slots=True)
class Span:
    """One traced call: ``[start, end)`` in ``perf_counter`` seconds."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int          # span id of the caller's span, -1 at the top
    op_id: int           # the benchmark operation the call served

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: typing.Iterable[typing.Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``.

    Intervals are clipped to the window first, so a child that leaks
    past its parent (it cannot in a single thread, but the arithmetic
    does not rely on that) never makes self time negative.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo: typing.Optional[float] = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span recorder for one single-threaded run.

    :meth:`begin` / :meth:`end` bracket a call; the innermost open span
    becomes the parent of the next one, and every span carries the
    operation id current when it began (:attr:`op_id`, set by the
    benchmark loop before each operation).  Wrapped calls record
    nothing while :attr:`active` is false.
    """

    def __init__(self, clock: typing.Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: typing.List[Span] = []
        self.op_id = -1
        self.active = False
        self._stack: typing.List[Span] = []

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (used around output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else -1
        span = Span(len(self.spans), name, self.clock(), math.nan, parent,
                    self.op_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {popped.name!r} was open")

    def wrap(self, name: str, func: typing.Callable) -> typing.Callable:
        """``func`` recording one span per call."""
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            span = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(span)
        traced.__wrapped__ = func
        return traced

    def self_times(self) -> typing.Dict[int, float]:
        """Self time of every closed span, by span id."""
        children: typing.Dict[int, typing.List[Span]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        return {
            span.span_id: span.duration - covered(
                ((c.start, c.end) for c in children.get(span.span_id, ())),
                span.start, span.end)
            for span in self.spans if not math.isnan(span.end)}

    def totals(self, select: typing.Callable[[Span], bool] = lambda s: True
               ) -> typing.Dict[str, typing.Dict[str, float]]:
        """Per span name: ``calls``, total ``duration`` and ``self`` time
        over the spans ``select`` accepts."""
        selfs = self.self_times()
        out: typing.Dict[str, typing.Dict[str, float]] = {}
        for span in self.spans:
            if span.span_id not in selfs or not select(span):
                continue
            entry = out.setdefault(span.name,
                                   {"calls": 0, "duration": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["duration"] += span.duration
            entry["self"] += selfs[span.span_id]
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    {"id": s.span_id, "name": s.name, "start": s.start,
                     "end": s.end, "parent": s.parent, "op": s.op_id}))
                handle.write("\n")


# ----------------------------------------------------------------------
# Timing summaries
# ----------------------------------------------------------------------
def percentile(values: typing.Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values: typing.Sequence[float]) -> typing.Dict[str, float]:
    """Median and p99 of ``values`` with the sample count behind them.

    ``beyond_p99`` is how many samples lie above the p99, so a reader
    can tell whether the tail figure rests on at least ten of them.
    """
    p99 = percentile(values, 99)
    return {"samples": len(values), "p50": percentile(values, 50),
            "p99": p99, "beyond_p99": sum(1 for v in values if v > p99)}


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class Ledger:
    """Attempted and failed operations, with the first few reasons.

    An operation is counted once however many of its checks fail.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: typing.Set[int] = set()
        self.reasons: typing.List[str] = []

    def attempt(self) -> int:
        """Register one operation and return its id."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        if not 0 <= op < self.attempted:
            raise ValueError(f"unknown operation {op}")
        self._failed.add(op)
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, op: int, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op, reason)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Reference fingerprints
# ----------------------------------------------------------------------
def digest(value: typing.Any) -> str:
    """SHA-256 of ``value``'s canonical JSON form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare_reference(fingerprint: typing.Mapping[str, typing.Any],
                      reference: typing.Mapping[str, typing.Any]
                      ) -> typing.List[str]:
    """Names of the fingerprint entries that differ from ``reference``.

    Every key of either side must be present and equal on the other;
    floats are compared exactly, since they come from deterministic
    simulated cycle counts.
    """
    keys = sorted(set(fingerprint) | set(reference))
    return [key for key in keys
            if fingerprint.get(key, None) != reference.get(key, None)]
