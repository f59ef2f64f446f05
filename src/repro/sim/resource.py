"""FIFO-served shared resources: the bus/port/channel timing model.

Nearly every contended piece of hardware in the SoC — the host's NoC
request port, the shared-memory read and write channels, the L2 atomics
port — serializes requests in arrival order, each occupying the resource
for a known number of cycles.  :class:`SerialResource` models exactly
that with O(1) bookkeeping: it tracks when the resource next becomes
free and hands each request a completion event.

:class:`ThroughputChannel` specializes it for byte streams with a fixed
width (bytes per cycle), which is how the paper's N/4 memory term arises
(16·N bytes of DAXPY operands over a 64 B/cycle channel).

Reservations (the channel fast-forward)
---------------------------------------
A resource constructed with ``reserve_lead=L`` additionally accepts
*reservations* via :meth:`SerialResource.request_at`: a request that the
naive simulation would issue exactly ``L`` cycles from now, committed
analytically at call time.  The requester suspends on one completion
event instead of waking once for the issue delay and once for the
channel — the issue delay degrades to a plain timer callback that only
places the completion entry.  FIFO order is preserved because the
lead is a per-resource constant: two reservations committed at ``t1 <=
t2`` would naively issue at ``t1+L <= t2+L`` in the same relative order
(equal commit cycles resolve by call order, which is also the naive
issue order because the naive setup waits are heap entries scheduled in
call order).  Requesters whose lead differs from the resource's constant
must use the plain event path — :meth:`can_reserve` tells them so.  A
plain :meth:`request` landing *inside* an open reservation window (an
unexpected arrival the closed form did not account for) permanently
poisons the reservation path on this resource, so every later transfer
falls back to the event loop; the conflict is counted in
:attr:`ff_conflicts`.  The SoC wires ``reserve_lead`` to the uniform DMA
setup time, so on real configurations the window is conflict-free by
construction.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.sim.event import Event

if typing.TYPE_CHECKING:
    from repro.sim.kernel import Simulator


def _fire_completion(event: Event) -> None:
    """Trigger a completion event with the current cycle as its value.

    Module-level so :meth:`SerialResource.request` allocates no closure
    per request — requests are one of the hottest allocation sites in a
    full-system simulation.
    """
    event.trigger(event.sim.now)


def _issue_reserved(payload: typing.Tuple["SerialResource", Event,
                                          int]) -> None:
    """Schedule a reservation's completion at its naive issue cycle.

    The completion heap entry must be *created* exactly where the naive
    path creates it (when the deferred request would issue), so that
    same-cycle ties against unrelated events resolve in the same order —
    the occupancy arithmetic was already committed at reservation time.
    """
    resource, done, finish = payload
    sim = resource.sim
    sim.schedule(finish - sim.now, _fire_completion, done)


class SerialResource:
    """A resource that serves one request at a time, FIFO.

    A request for ``cycles`` of service issued at time ``t`` completes at
    ``max(t, next_free) + cycles`` and pushes ``next_free`` to that time.
    This is the standard "single server, deterministic service time"
    queue and matches an in-order bus or memory port.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Label used in traces and error messages.
    reserve_lead:
        When not ``None``, enables :meth:`request_at` for requesters
        whose issue lead equals this constant (see module docstring).
    """

    def __init__(self, sim: "Simulator", name: str = "resource",
                 reserve_lead: typing.Optional[int] = None) -> None:
        if reserve_lead is not None and reserve_lead < 0:
            raise SimulationError(
                f"{name}: negative reserve lead {reserve_lead}"
            )
        self.sim = sim
        self.name = name
        #: Completion-event label; the ``-done@`` suffix is what the
        #: diagnostics classify resource waits by.  Precomputed because
        #: every request allocates one event (tens of thousands per
        #: measurement).
        self._done_name = name + "-done@"
        self.reserve_lead = reserve_lead
        self._next_free = 0
        self._busy_cycles = 0
        self._requests = 0
        #: Requests committed analytically through :meth:`request_at`.
        self.ff_requests = 0
        #: Plain requests that landed inside an open reservation window
        #: and poisoned the reservation path (see module docstring).
        self.ff_conflicts = 0
        #: Latest naive issue cycle of any committed reservation; a
        #: plain request strictly before this is an unexpected arrival.
        self._reserve_horizon = 0
        self._reserve_poisoned = False

    def request(self, cycles: int) -> Event:
        """Enqueue a request; returns an event triggered at completion.

        The event's value is the completion cycle.
        """
        if cycles < 0:
            raise SimulationError(
                f"{self.name}: negative service time {cycles}"
            )
        now = self.sim.now
        if now < self._reserve_horizon and not self._reserve_poisoned:
            # Unexpected arrival inside a committed reservation window:
            # the closed form assumed a fixed waiter set.  Fall back to
            # the event loop for everything from here on.
            self._reserve_poisoned = True
            self.ff_conflicts += 1
        start = max(now, self._next_free)
        finish = start + cycles
        self._next_free = finish
        self._busy_cycles += cycles
        self._requests += 1
        done = Event(self.sim, name=self._done_name)
        # The event fires exactly at ``finish``, so triggering with the
        # then-current cycle carries the completion time without a
        # per-request closure capturing ``finish``.
        self.sim.schedule(finish - now, _fire_completion, done)
        return done

    def can_reserve(self, lead: int) -> bool:
        """Whether :meth:`request_at` is valid for a ``lead``-cycle issue.

        False when reservations are disabled, the lead differs from the
        resource's constant, or a past conflict poisoned the fast path —
        in every case the caller must take the plain event path.
        """
        return (self.reserve_lead is not None
                and lead == self.reserve_lead
                and not self._reserve_poisoned)

    def request_at(self, lead: int, cycles: int) -> Event:
        """Commit a request the naive path would issue ``lead`` cycles
        from now; returns its completion event (value: completion cycle).

        Requires :meth:`can_reserve` — the caller checks it and falls
        back to ``yield lead`` + :meth:`request` when it is false.
        Occupancy and statistics advance exactly as the deferred plain
        request would have advanced them.
        """
        if not self.can_reserve(lead):
            raise SimulationError(
                f"{self.name}: invalid reservation (lead={lead}, "
                f"reserve_lead={self.reserve_lead}, "
                f"poisoned={self._reserve_poisoned})"
            )
        if cycles < 0:
            raise SimulationError(
                f"{self.name}: negative service time {cycles}"
            )
        now = self.sim.now
        issue = now + lead
        start = max(issue, self._next_free)
        finish = start + cycles
        self._next_free = finish
        self._busy_cycles += cycles
        self._requests += 1
        self.ff_requests += 1
        if issue > self._reserve_horizon:
            self._reserve_horizon = issue
        done = Event(self.sim, name=self._done_name)
        if lead:
            # The requester parks once (on ``done``) instead of once on
            # its issue delay and once on the channel; the hop keeps the
            # completion entry's heap-sequence position identical to the
            # naive path's (see :func:`_issue_reserved`).
            self.sim.schedule(lead, _issue_reserved, (self, done, finish))
        else:
            self.sim.schedule(finish - now, _fire_completion, done)
        return done

    def acquire(self, cycles: int) -> typing.Generator:
        """Process-style helper: ``yield from resource.acquire(n)``."""
        finish = yield self.request(cycles)
        return finish

    @property
    def next_free(self) -> int:
        """Earliest cycle at which a new request could start service."""
        return max(self.sim.now, self._next_free)

    @property
    def backlog(self) -> int:
        """Cycles of service still owed beyond ``now`` (0 when idle).

        A non-zero backlog on a "drained" system means a request was
        charged whose completion lies in the future — the quiescence
        audit treats that as an in-flight transaction.
        """
        return max(0, self._next_free - self.sim.now)

    @property
    def busy_cycles(self) -> int:
        """Total cycles of service granted so far (utilization numerator)."""
        return self._busy_cycles

    @property
    def requests(self) -> int:
        """Number of requests served or in flight."""
        return self._requests

    def utilization(self) -> float:
        """Fraction of elapsed time the resource has been busy."""
        if self.sim.now == 0:
            return 0.0
        return min(1.0, self._busy_cycles / self.sim.now)

    def charge_bulk(self, requests: int, busy_cycles: int,
                    next_free: int) -> None:
        """Account ``requests`` analytically computed requests at once.

        Used by fast-forward paths (e.g. virtualized host polling) that
        skip simulating individual requests but must leave the resource's
        statistics and availability exactly as the simulated requests
        would have: ``requests``/``busy_cycles`` grow by the given
        amounts and ``next_free`` advances (never rewinds) to the
        completion of the last skipped request.
        """
        if requests < 0 or busy_cycles < 0:
            raise SimulationError(
                f"{self.name}: negative bulk charge "
                f"(requests={requests}, busy_cycles={busy_cycles})"
            )
        self._requests += requests
        self._busy_cycles += busy_cycles
        if next_free > self._next_free:
            self._next_free = next_free

    def reset(self) -> None:
        """Restore boot state (idle, zero counters).

        Only valid once the simulator has drained: there must be no
        in-flight request whose completion event is still queued.
        """
        self._next_free = 0
        self._busy_cycles = 0
        self._requests = 0
        self.ff_requests = 0
        self.ff_conflicts = 0
        self._reserve_horizon = 0
        self._reserve_poisoned = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SerialResource {self.name} next_free={self._next_free} "
            f"requests={self._requests}>"
        )


class ThroughputChannel(SerialResource):
    """A byte-stream channel with a fixed width in bytes per cycle.

    A transfer of ``nbytes`` occupies the channel for
    ``ceil(nbytes / width)`` cycles.  Used for the shared-memory read and
    write channels that all cluster DMA engines contend on.
    """

    def __init__(self, sim: "Simulator", width_bytes: int,
                 name: str = "channel",
                 reserve_lead: typing.Optional[int] = None) -> None:
        if width_bytes <= 0:
            raise SimulationError(
                f"{name}: channel width must be positive, got {width_bytes}"
            )
        super().__init__(sim, name=name, reserve_lead=reserve_lead)
        self.width_bytes = width_bytes
        self._bytes_moved = 0

    def cycles_for(self, nbytes: int) -> int:
        """Service time for an ``nbytes`` transfer (ceil division)."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size {nbytes}")
        return -(-nbytes // self.width_bytes)

    def transfer(self, nbytes: int) -> Event:
        """Enqueue an ``nbytes`` transfer; event fires at completion."""
        self._bytes_moved += nbytes
        return self.request(self.cycles_for(nbytes))

    def reserve_transfer(self, lead: int, nbytes: int) -> Event:
        """Commit an ``nbytes`` transfer the naive path would issue
        ``lead`` cycles from now (see :meth:`SerialResource.request_at`).
        """
        self._bytes_moved += nbytes
        return self.request_at(lead, self.cycles_for(nbytes))

    @property
    def bytes_moved(self) -> int:
        """Total bytes accepted by the channel so far."""
        return self._bytes_moved

    def reset(self) -> None:
        """Restore boot state, including the byte counter."""
        super().reset()
        self._bytes_moved = 0
