"""The CVA6-class host core timing model.

The host executes offload *programs*: Python generators composed from
the timed primitives below (every ``yield from host.<primitive>(...)``
advances simulated time the way the corresponding instruction sequence
would on the real core).  This is deliberately not an ISA interpreter —
the paper's offload routines are short, and what determines their cost
is the number and kind of memory-system interactions, which these
primitives model exactly.

Primitives
----------
``execute(cycles)``
    Straight-line ALU/branch work (address computation, loop overhead).
``store / store_posted``
    Non-posted stores stall until the ack returns; posted stores stall
    only for the LSU/port occupancy.
``multicast_store``
    One posted store delivered to many clusters (requires the extension).
``load``
    Stalls for the full round trip; returns the loaded word.
``wfi(line)``
    Sleep until the interrupt line is pending, then pay the pipeline
    wake-up latency.
"""

from __future__ import annotations

import typing

from repro.host.irq import InterruptController
from repro.host.lsu import LoadStoreUnit
from repro.sim import Event, Simulator, TraceRecorder


class HostCore:
    """Timed execution engine for offload programs."""

    def __init__(self, sim: Simulator, lsu: LoadStoreUnit,
                 irq: InterruptController,
                 trace: typing.Optional[TraceRecorder] = None,
                 name: str = "host") -> None:
        self.sim = sim
        self.lsu = lsu
        self.irq = irq
        self.trace = (trace if trace is not None
                      else TraceRecorder(sim, enabled=False))
        self.name = name
        self.retired_operations = 0
        #: Cycles spent asleep in WFI (energy accounting: the core is
        #: clock-gated while waiting, unlike a poll loop).
        self.slept_cycles = 0

    # ------------------------------------------------------------------
    # Timed primitives (all are generators: ``yield from host.xxx()``)
    # ------------------------------------------------------------------
    def execute(self, cycles: int) -> typing.Generator:
        """Spend ``cycles`` of straight-line compute."""
        self.retired_operations += 1
        if cycles:
            yield cycles
        return None

    def store(self, addr: int, value: int) -> typing.Generator:
        """Non-posted store: stalls until the ack returns."""
        self.retired_operations += 1
        handle = self.lsu.store(addr, value)
        yield handle.acked
        return None

    def store_posted(self, addr: int, value: int) -> typing.Generator:
        """Posted store: stalls only while the port accepts the store."""
        self.retired_operations += 1
        handle = self.lsu.store(addr, value)
        yield handle.issued
        return handle

    def store_block(
            self, blocks: typing.Sequence[
                typing.Tuple[int, typing.Sequence[int]]]
    ) -> typing.Optional[Event]:
        """Closed-form run of posted stores ending in a release fence.

        The cycle-exact equivalent of issuing every word of every
        ``(base_addr, words)`` block with :meth:`store_posted` and the
        final word with :meth:`store` — statistics included — but
        resolved as one scheduler event.  Returns the fence-ack event
        to ``yield`` on, or ``None`` (charging nothing) when the
        closed form cannot be proven safe and the caller must loop.
        """
        done = self.lsu.store_block(blocks)
        if done is not None:
            self.retired_operations += sum(
                len(words) for _base, words in blocks)
        return done

    def multicast_store(self, addresses: typing.Sequence[int],
                        value: int) -> typing.Generator:
        """Posted multicast store to every address in ``addresses``."""
        self.retired_operations += 1
        handle = self.lsu.multicast_store(addresses, value)
        yield handle.issued
        return handle

    def load(self, addr: int) -> typing.Generator:
        """Load a word: stalls for the round trip, returns the data."""
        self.retired_operations += 1
        done = self.lsu.load(addr)
        value = yield done
        return value

    def wfi(self, line: str) -> typing.Generator:
        """Wait-for-interrupt on ``line``, then pay the wake-up latency."""
        self.retired_operations += 1
        self.trace.record(self.name, "wfi_enter", line)
        slept = yield from self.irq.wait(line)
        self.slept_cycles += slept
        if self.irq.wake_latency:
            yield self.irq.wake_latency
        self.trace.record(self.name, "wfi_exit", line)
        return None

    def reset(self) -> None:
        """Zero the statistics counters (boot state)."""
        self.retired_operations = 0
        self.slept_cycles = 0
        self.lsu.reset()

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run_program(self, program: typing.Generator, name: str = ""):
        """Spawn an offload program as a simulation process."""
        return self.sim.spawn(program, name=name or f"{self.name}.program")
