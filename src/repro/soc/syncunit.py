"""The credit-counter synchronization unit — the paper's dedicated block.

Quoting the paper's design: the host "sets the number of accelerator
clusters selected for offload as a threshold for the counter.  When a
cluster is done with the job, it atomically increments the counter by
writing to a register which triggers the increment as a side effect.
As soon as the counter reaches the threshold value set by CVA6, it
automatically fires an interrupt notifying CVA6 of job completion."

Register map (word offsets from the unit's base address):

====== =========== ====================================================
offset register    behaviour
====== =========== ====================================================
0x00   THRESHOLD   read/write; writing re-arms the unit and clears the
                   counter for the next offload
0x08   COUNT       read-only credit counter
0x10   INCREMENT   write-to-increment (+1 per store, data ignored)
0x18   CLEAR       write: zero the counter, disarm, and cancel any
                   interrupt already in flight from this unit
0x20   FIRED       read-only count of interrupts delivered (statistics)
====== =========== ====================================================

The completion interrupt is delivered to the host's interrupt
controller ``irq_latency`` cycles after the threshold-matching
increment arrives.  A ``CLEAR`` (or :meth:`reset`) landing inside that
delivery window *cancels* the in-flight interrupt — a cleared or
reused unit must never spuriously interrupt the host on behalf of a
job that was abandoned (epoch-tagged delivery; see :meth:`_increment`).

Increments that arrive while the unit is disarmed are *stale credits*:
a completion signal with no job armed to receive it.  They never bump
``COUNT``; they are counted in :attr:`stale_credits`, reported to the
system's MMIO access auditor, and raise
:class:`~repro.errors.ProtocolError` in strict mode.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError, ProtocolError
from repro.host.irq import InterruptController
from repro.mem.map import MmioDevice
from repro.sim import Simulator

if typing.TYPE_CHECKING:
    from repro.sim.diag import AccessAuditor

THRESHOLD_OFFSET = 0x00
COUNT_OFFSET = 0x08
INCREMENT_OFFSET = 0x10
CLEAR_OFFSET = 0x18
FIRED_OFFSET = 0x20

#: Name of the interrupt line the unit drives.
IRQ_LINE = "syncunit"


class SyncUnit(MmioDevice):
    """Centralized credit counter with threshold interrupt."""

    def __init__(self, sim: Simulator, irq: InterruptController,
                 irq_latency: int = 4,
                 auditor: typing.Optional["AccessAuditor"] = None) -> None:
        if irq_latency < 0:
            raise ConfigError(f"negative sync-unit IRQ latency {irq_latency}")
        self.sim = sim
        self.irq = irq
        self.irq_latency = irq_latency
        self.auditor = auditor
        self.threshold = 0
        self.count = 0
        self.interrupts_fired = 0
        #: Increments received while disarmed (a completion signal with
        #: no armed job — always a protocol bug somewhere upstream).
        self.stale_credits = 0
        self._armed = False
        #: Bumped by CLEAR/reset; an in-flight interrupt delivery
        #: carries the epoch it was scheduled under and is dropped if
        #: the unit was cleared in the meantime.
        self._epoch = 0
        irq.register_line(IRQ_LINE)

    # ------------------------------------------------------------------
    # MMIO interface
    # ------------------------------------------------------------------
    def read_register(self, offset: int) -> int:
        if offset == THRESHOLD_OFFSET:
            return self.threshold
        if offset == COUNT_OFFSET:
            return self.count
        if offset == FIRED_OFFSET:
            return self.interrupts_fired
        return super().read_register(offset)

    def write_register(self, offset: int, value: int) -> None:
        if offset == THRESHOLD_OFFSET:
            if value <= 0:
                # A runtime MMIO write gone wrong is a protocol bug in
                # the simulated software, not a construction-time
                # configuration error.
                self.audit("invalid-threshold", offset, value=value,
                           fatal=True)
                raise ProtocolError(
                    f"sync-unit threshold must be positive, got {value}")
            self.threshold = value
            self.count = 0
            self._armed = True
            return
        if offset == INCREMENT_OFFSET:
            self._increment()
            return
        if offset == CLEAR_OFFSET:
            self.count = 0
            self._armed = False
            self._epoch += 1  # cancel any in-flight interrupt delivery
            return
        if offset in (COUNT_OFFSET, FIRED_OFFSET):
            self.audit("read-only-write", offset, value=value, fatal=True)
            raise ProtocolError(
                f"sync-unit register at +{offset:#x} is read-only")
        super().write_register(offset, value)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _increment(self) -> None:
        if not self._armed:
            # Disarmed unit: the credit belongs to no armed job.  Count
            # it as a stale-credit event (and escalate in strict mode)
            # instead of silently corrupting the next job's COUNT.
            self.stale_credits += 1
            self.audit("stale-credit", INCREMENT_OFFSET,
                       detail="increment while disarmed")
            return
        self.count += 1
        if self.count >= self.threshold:
            self._armed = False
            epoch = self._epoch

            def deliver(_arg: typing.Any) -> None:
                if epoch != self._epoch:
                    return  # cleared/reset while the IRQ was in flight
                self.interrupts_fired += 1
                self.irq.raise_line(IRQ_LINE)

            self.sim.schedule(self.irq_latency, deliver)

    @property
    def armed(self) -> bool:
        """Whether a threshold is set and the interrupt has not fired yet."""
        return self._armed

    def reset(self) -> None:
        """Restore boot state (threshold cleared, counters zeroed).

        Like ``CLEAR``, cancels any interrupt delivery still in flight.
        """
        self.threshold = 0
        self.count = 0
        self.interrupts_fired = 0
        self.stale_credits = 0
        self._armed = False
        self._epoch += 1
