"""The simulation kernel: event queue, clock, and run loop."""

from __future__ import annotations

import collections
import heapq
import typing

from repro.errors import (
    CycleLimitError,
    DeadlockError,
    SimulationError,
    annotated,
)
from repro.sim import diag
from repro.sim.event import AllOf, AnyOf, Event
from repro.sim.process import Process


def _fire_timer(event: Event) -> None:
    """Module-level timer callback (no per-timer closure allocation)."""
    event.trigger(event.sim.now)


class Simulator:
    """Owns simulated time and the pending-callback queue.

    Time is an integer cycle count starting at 0.  All model code runs
    inside callbacks popped from two cooperating queues:

    - a priority queue keyed on ``(cycle, sequence)`` for future
      callbacks; the sequence number guarantees FIFO order for
      same-cycle callbacks, which makes every simulation
      bit-reproducible;
    - a plain FIFO for *zero-delay* callbacks (event triggers, process
      kick-offs).  These are by far the most common schedules in the
      hardware models, and a deque append/popleft is much cheaper than
      a heap push/pop.

    The ordering contract is unchanged by the split: once ``now``
    reaches a cycle, every heap entry for that cycle predates (was
    scheduled before) every zero-delay entry created *during* that
    cycle, so draining heap-then-FIFO per cycle reproduces the single
    ``(cycle, sequence)`` order exactly.

    Typical use::

        sim = Simulator()
        done = sim.spawn(my_model(sim), name="model")
        sim.run()
        assert done.finished
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list = []
        self._now_queue: collections.deque = collections.deque()
        self._sequence = 0
        #: Latest cycle passed to :meth:`hold_until`.
        self._horizon = 0
        self._running = False
        self._spawned = 0
        #: Total process-body resumptions (generator ``send`` calls).
        #: Monotonic diagnostics counter — the interpreter cost of a run
        #: is dominated by these, so sweep statistics and the profiling
        #: helper report it; deliberately *not* part of reset state
        #: (it measures host work, not simulated state).
        self.resumes = 0
        #: Live (unfinished) processes, which deadlock reports
        #: enumerate.  Parked DM cores stay here while their system
        #: lives; when it dies, :meth:`teardown` closes them.
        self._processes: set = set()
        #: The system's trace recorder, if one registered (the first
        #: :class:`~repro.sim.record.TraceRecorder` built on this
        #: simulator); deadlock reports quote its tail.
        self.trace = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback, argument=None) -> None:
        """Run ``callback(argument)`` after ``delay`` cycles (``>= 0``)."""
        if delay == 0:
            self._now_queue.append((callback, argument))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(
            self._queue, (self.now + delay, self._sequence, callback, argument)
        )

    def hold_until(self, cycle: int) -> None:
        """Keep the clock from settling before ``cycle``.

        Stands in for a callback at ``cycle`` that does nothing — a
        response no one waits for — without queuing one: a drain that
        runs out of callbacks earlier advances :attr:`now` to the
        latest held cycle, as popping such a callback would have.
        """
        if cycle > self._horizon:
            self._horizon = cycle

    def _settle(self) -> None:
        """Advance an empty queue's clock to the held horizon."""
        if self._horizon > self.now:
            self.now = self._horizon

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def all_of(self, events: typing.Sequence[Event], name: str = "") -> AllOf:
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events, name=name)

    def any_of(self, events: typing.Sequence[Event], name: str = "") -> AnyOf:
        """Event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events, name=name)

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        """Start a new process running ``generator`` this cycle."""
        self._spawned += 1
        if not name:
            name = f"process-{self._spawned}"
        return Process(self, generator, name=name)

    def timer(self, delay: int, name: str = "") -> Event:
        """An event that triggers ``delay`` cycles from now."""
        event = Event(self, name=name or f"timer@{self.now + delay}")
        self.schedule(delay, _fire_timer, event)
        return event

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Pop and run one callback.  Returns False if nothing is queued.

        Heap entries for the current cycle run before FIFO entries: they
        carry strictly older sequence numbers (zero-delay schedules can
        only be appended once ``now`` has already reached their cycle).
        """
        queue = self._queue
        if queue and queue[0][0] == self.now:
            _when, _seq, callback, argument = heapq.heappop(queue)
            callback(argument)
            return True
        now_queue = self._now_queue
        if now_queue:
            callback, argument = now_queue.popleft()
            callback(argument)
            return True
        if queue:
            when, _seq, callback, argument = heapq.heappop(queue)
            self.now = when
            callback(argument)
            return True
        return False

    def run(self, until: typing.Optional[typing.Union[int, Event]] = None,
            max_cycles: typing.Optional[int] = None) -> int:
        """Run the simulation and return the final cycle count.

        Parameters
        ----------
        until:
            ``None``
                Run until the event queue drains.
            ``int``
                Run until simulated time reaches that cycle (events
                scheduled exactly at ``until`` do run).
            :class:`Event`
                Run until the event triggers; raises
                :class:`DeadlockError` if the queue drains first.
        max_cycles:
            Only with an :class:`Event` ``until``: raise
            :class:`CycleLimitError` instead of advancing time past
            this cycle (a runaway-protocol guard; the check costs one
            comparison per time advance, never per event).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            if until is None:
                # The drain-everything loop is the simulator's hottest
                # code; inline step() and hoist lookups out of it.
                queue = self._queue
                now_queue = self._now_queue
                pop = heapq.heappop
                popleft = now_queue.popleft
                while True:
                    while queue and queue[0][0] == self.now:
                        item = pop(queue)
                        item[2](item[3])
                    if now_queue:
                        callback, argument = popleft()
                        callback(argument)
                        continue
                    if not queue:
                        self._settle()
                        return self.now
                    item = pop(queue)
                    self.now = item[0]
                    item[2](item[3])
            if isinstance(until, int):
                if until < self.now:
                    raise SimulationError(
                        f"cannot run until cycle {until}: already at {self.now}"
                    )
                while self._now_queue or (
                        self._queue and self._queue[0][0] <= until):
                    self.step()
                self.now = max(self.now, until)
                return self.now
            if isinstance(until, Event):
                # Same inlined dispatch as the drain loop above; every
                # measured offload runs through here.
                queue = self._queue
                now_queue = self._now_queue
                pop = heapq.heappop
                popleft = now_queue.popleft
                while not until._triggered:
                    if queue and queue[0][0] == self.now:
                        item = pop(queue)
                        item[2](item[3])
                    elif now_queue:
                        callback, argument = popleft()
                        callback(argument)
                    elif queue:
                        if max_cycles is not None and queue[0][0] > max_cycles:
                            raise self._cycle_limit(queue[0][0], until,
                                                    max_cycles)
                        item = pop(queue)
                        self.now = item[0]
                        item[2](item[3])
                    else:
                        if max_cycles is not None \
                                and self._horizon > max(self.now, max_cycles):
                            raise self._cycle_limit(self._horizon, until,
                                                    max_cycles)
                        self._settle()
                        report = diag.build_report(
                            self, reason="deadlock", awaited=until)
                        raise annotated(DeadlockError(
                            f"event queue drained at cycle {self.now} but "
                            f"{until!r} never triggered\n" + report.describe()
                        ), report=report)
                return self.now
            raise SimulationError(f"invalid 'until' argument: {until!r}")
        finally:
            self._running = False

    def _cycle_limit(self, cycle: int, until: Event,
                     max_cycles: int) -> CycleLimitError:
        report = diag.build_report(self, reason="cycle-limit", awaited=until)
        error = CycleLimitError(
            f"next event at cycle {cycle} exceeds the {max_cycles}-cycle "
            "budget\n" + report.describe()
        )
        error.report = report
        return error

    def reset(self) -> None:
        """Rewind the clock to cycle 0 for a fresh measurement.

        Only legal once the queues have drained (``run()`` returned with
        nothing pending): a queued callback carries an absolute cycle
        and would fire at a nonsense time after the rewind.  Processes
        parked on untriggered events (e.g. DM cores waiting on their
        mailboxes) hold no queue entries and survive a reset unharmed.
        """
        if self._queue or self._now_queue:
            raise SimulationError(
                f"cannot reset with {self.pending} pending callbacks; "
                "run the simulator to completion first"
            )
        if self._running:
            raise SimulationError("cannot reset while running")
        self.now = 0
        self._sequence = 0
        self._horizon = 0

    def teardown(self) -> None:
        """Break the simulator's reference cycles once its owner is gone.

        Every live process and this simulator reference each other, a
        parked process's frame reaches the models it drives, and the
        system trace recorder points back here.  Closing each live
        process (see :meth:`Process.close`), dropping the queued
        callbacks and detaching the recorder lets reference counting
        free all of it, without waiting for a full collection.  Only
        for a simulator that will not run again.
        """
        for process in tuple(self._processes):
            process.close()
        self._queue.clear()
        self._now_queue.clear()
        self.trace = None

    @property
    def pending(self) -> int:
        """Number of queued callbacks (a rough liveness indicator)."""
        return len(self._queue) + len(self._now_queue)

    @property
    def live_processes(self) -> typing.Tuple[Process, ...]:
        """Every spawned process whose body has not yet returned.

        Parked processes (e.g. DM cores waiting on their mailboxes)
        remain live across :meth:`reset`; diagnostics iterate this to
        name what a wedged simulation is blocked on.
        """
        return tuple(self._processes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending}>"
