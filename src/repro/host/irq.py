"""Interrupt controller for the host core.

Minimal CLINT/PLIC-style model: named lines with level-pending
semantics.  A device raises a line; the host's WFI consumes the pending
bit and resumes after a wake-up latency.  If the line was already
pending when WFI executes, the sleep falls through immediately (as the
RISC-V WFI specification allows), which prevents the classic lost-wakeup
race between job completion and the host reaching its WFI.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.sim import Event, Simulator


class InterruptController:
    """Named interrupt lines with pending bits and waiter wake-up."""

    def __init__(self, sim: Simulator, wake_latency: int = 5) -> None:
        if wake_latency < 0:
            raise SimulationError(
                f"wake latency must be >= 0, got {wake_latency}"
            )
        self.sim = sim
        self.wake_latency = wake_latency
        self._pending: typing.Dict[str, bool] = {}
        self._waiters: typing.Dict[str, typing.List[Event]] = {}
        self._raise_counts: typing.Dict[str, int] = {}

    def register_line(self, name: str) -> None:
        """Declare an interrupt line; raising an unknown line is an error."""
        if name in self._pending:
            raise SimulationError(f"interrupt line {name!r} already registered")
        self._pending[name] = False
        self._waiters[name] = []
        self._raise_counts[name] = 0

    def raise_line(self, name: str) -> None:
        """Assert a line: set pending and wake any waiter."""
        self._check_line(name)
        self._pending[name] = True
        self._raise_counts[name] += 1
        waiters, self._waiters[name] = self._waiters[name], []
        for event in waiters:
            event.trigger(self.sim.now)

    def is_pending(self, name: str) -> bool:
        """Whether the line is currently pending."""
        self._check_line(name)
        return self._pending[name]

    def raise_count(self, name: str) -> int:
        """How many times the line has been asserted."""
        self._check_line(name)
        return self._raise_counts[name]

    def clear(self, name: str) -> None:
        """Deassert a pending line (the handler acknowledging it)."""
        self._check_line(name)
        self._pending[name] = False

    def wait(self, name: str) -> typing.Generator:
        """Process-style wait: resume once the line is pending, and consume it.

        Returns the number of cycles slept (0 if the line was already
        pending).  Callers add the core's wake-up latency themselves —
        see :meth:`repro.host.cva6.HostCore.wfi`.
        """
        self._check_line(name)
        started = self.sim.now
        if not self._pending[name]:
            event = self.sim.event(name=f"irq.{name}")
            self._waiters[name].append(event)
            yield event
        self._pending[name] = False
        return self.sim.now - started

    def parked_waiters(self) -> typing.Dict[str, int]:
        """Lines with processes parked in :meth:`wait` (line -> count).

        Empty on a quiescent controller; used by the boot-state audit.
        """
        return {name: len(waiters)
                for name, waiters in self._waiters.items() if waiters}

    def pending_lines(self) -> typing.Tuple[str, ...]:
        """Lines currently pending (empty on a quiescent controller)."""
        return tuple(name for name, flag in self._pending.items() if flag)

    def reset(self) -> None:
        """Restore boot state: no line pending, zero raise counts.

        Registered lines survive (the devices driving them persist too).
        Raises if any process is still parked in :meth:`wait` — reset is
        only legal on a drained system.
        """
        for name, waiters in self._waiters.items():
            if waiters:
                raise SimulationError(
                    f"cannot reset: {len(waiters)} waiter(s) parked on "
                    f"interrupt line {name!r}")
        for name in self._pending:
            self._pending[name] = False
            self._raise_counts[name] = 0

    def _check_line(self, name: str) -> None:
        if name not in self._pending:
            raise SimulationError(f"unknown interrupt line {name!r}")
