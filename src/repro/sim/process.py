"""Generator-coroutine processes scheduled by the simulation kernel."""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.sim.event import Event

if typing.TYPE_CHECKING:
    from repro.sim.kernel import Simulator

#: Things a process body may ``yield``: a cycle delay, an event, or
#: another process (join).  Combinators are events themselves.
Waitable = typing.Union[int, Event, "Process"]


class Process(Event):
    """A running simulation process.

    Wraps a generator whose ``yield`` statements suspend it:

    - ``yield n`` (``int``): resume ``n`` cycles later (``n >= 0``).
    - ``yield event``: resume when the event triggers; the ``yield``
      expression evaluates to the event's value.
    - ``yield process``: join — resume when the process finishes; the
      ``yield`` expression evaluates to its return value.

    A process is itself an :class:`Event` that triggers when the body
    returns, carrying the body's return value, so joining and combinator
    composition (``AllOf([p1, p2])``) come for free.

    Use :meth:`Simulator.spawn` to create processes; do not instantiate
    directly.
    """

    __slots__ = ("generator", "_send", "_failure", "_waiting_on",
                 "_waiting_since")

    def __init__(self, sim: "Simulator", generator: typing.Generator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name)
        self.generator = generator
        self._send = generator.send
        self._failure: typing.Optional[BaseException] = None
        #: Current waitable (int delay or Event), for deadlock reports.
        self._waiting_on: typing.Optional[Waitable] = None
        self._waiting_since = sim.now
        # Kick off on the current cycle, through the queue for determinism.
        sim.schedule(0, self._resume, None)
        sim._processes.add(self)

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _resume(self, event: typing.Optional[Event]) -> None:
        """Advance the body one step, handing it the wake-up value.

        This runs once per yield of every process in the system — the
        per-yield hot path.  The wake-up argument is always either
        ``None`` (delay expiry) or the :class:`Event` that fired.
        """
        self.sim.resumes += 1
        try:
            target = self._send(None if event is None else event._value)
        except StopIteration as stop:
            self._waiting_on = None
            self.sim._processes.discard(self)
            self.trigger(stop.value)
            return
        except BaseException as exc:
            # Record and re-raise through the kernel so a broken model
            # never passes silently.
            self._failure = exc
            self.sim._processes.discard(self)
            raise
        # Two stores of wait bookkeeping keep deadlock reports able to
        # name what every parked process waits on; they never touch the
        # queues, so event ordering (and measured cycles) are unchanged.
        self._waiting_on = target
        self._waiting_since = self.sim.now
        # Integer delays are the most common waitable; test them first
        # with an exact type check (bool is not a sane delay anyway).
        if type(target) is int:
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {target}"
                )
            self.sim.schedule(target, self._resume, None)
            return
        if isinstance(target, Event):
            target.add_callback(self._resume)
            return
        self._wait_on(target)

    def _wait_on(self, target: Waitable) -> None:
        if isinstance(target, Event):
            target.add_callback(self._resume)
            return
        if isinstance(target, int):
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {target}"
                )
            self.sim.schedule(target, self._resume, None)
            return
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; expected an int "
            "delay, an Event, or a Process"
        )

    def close(self) -> None:
        """End a body that will never be resumed.

        Closes the generator (its frame, and everything the frame
        holds, goes with it) and forgets the wait, so neither the
        process nor the event it was parked on keeps the other alive.
        A wake-up still queued for the process finds the body closed
        and finishes it with value ``None``.
        """
        self.generator.close()
        self._waiting_on = None
        self.sim._processes.discard(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the body has returned."""
        return self.triggered

    @property
    def failure(self) -> typing.Optional[BaseException]:
        """The exception that killed the body, if any."""
        return self._failure

    @property
    def waiting_on(self) -> typing.Optional[Waitable]:
        """The waitable the process is currently parked on (diagnostics)."""
        return self._waiting_on

    @property
    def waiting_since(self) -> int:
        """Cycle at which the current wait began (diagnostics)."""
        return self._waiting_since

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.triggered else "running"
        label = self.name or hex(id(self))
        return f"<Process {label} {state}>"
