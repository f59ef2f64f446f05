"""Per-cluster DMA engine.

Bulk job data moves over two shared, bandwidth-arbitrated memory
channels (independent read and write channels, AXI-style), not over the
narrow control interconnect.  Every cluster owns a DMA engine; when all
M clusters stage their slices simultaneously, their transfers serialize
on the shared channel, so the aggregate staging time is
``total_bytes / channel_width`` — for DAXPY's 16·N inbound bytes over a
64 B/cycle channel, the paper's ``N/4`` term, independent of M.

Timing only: the engine charges setup and channel occupancy.  The
functional byte movement is performed by the device runtime at transfer
completion (see :mod:`repro.cluster.dm_core`), keeping state changes
atomic at a single simulated instant.
"""

from __future__ import annotations

import typing

from repro import flags
from repro.errors import SimulationError
from repro.sim import Event, Simulator, ThroughputChannel


class DmaEngine:
    """One cluster's DMA engine over the shared memory channels."""

    def __init__(self, sim: Simulator, read_channel: ThroughputChannel,
                 write_channel: ThroughputChannel, setup_cycles: int = 8,
                 name: str = "dma") -> None:
        if setup_cycles < 0:
            raise SimulationError(f"{name}: negative setup cycles")
        self.sim = sim
        self.read_channel = read_channel
        self.write_channel = write_channel
        self.setup_cycles = setup_cycles
        self.name = name
        self.transfers_in = 0
        self.transfers_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: Transfers resolved through a channel reservation (one parked
        #: event) instead of the setup-then-transfer event pair.
        self.ff_transfers = 0
        #: Transfers that wanted the fast path but had to take the
        #: event loop (channel without reservations, mismatched setup
        #: lead, or a poisoned reservation window).
        self.ff_fallbacks = 0

    def reset(self) -> None:
        """Zero the statistics counters (boot state)."""
        self.transfers_in = 0
        self.transfers_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.ff_transfers = 0
        self.ff_fallbacks = 0

    def transfer_in(self, nbytes: int) -> typing.Generator:
        """Stage ``nbytes`` from main memory into the TCDM.

        Process-style: resumes when the transfer has fully landed.
        Zero-byte transfers complete immediately (no setup either).
        """
        yield from self._transfer(self.read_channel, nbytes, inbound=True)

    def transfer_out(self, nbytes: int) -> typing.Generator:
        """Write ``nbytes`` of results back to main memory."""
        yield from self._transfer(self.write_channel, nbytes, inbound=False)

    def reserve_in(self, nbytes: int) -> typing.Optional[Event]:
        """Non-generator form of :meth:`transfer_in`'s fast path.

        Commits the transfer's channel slot in closed form and returns
        the completion event for the caller to park on directly (the DM
        core's flattened fast path).  Returns ``None`` — with nothing
        charged — when the closed form is unavailable (zero bytes or no
        reservation) and the caller must run the reference generator.
        Callers must have checked ``REPRO_NAIVE_CHANNEL`` themselves.
        """
        return self._reserve(self.read_channel, nbytes, inbound=True)

    def reserve_out(self, nbytes: int) -> typing.Optional[Event]:
        """Outbound counterpart of :meth:`reserve_in`."""
        return self._reserve(self.write_channel, nbytes, inbound=False)

    def _reserve(self, channel: ThroughputChannel, nbytes: int,
                 inbound: bool) -> typing.Optional[Event]:
        if nbytes <= 0 or not channel.can_reserve(self.setup_cycles):
            return None
        if inbound:
            self.transfers_in += 1
            self.bytes_in += nbytes
        else:
            self.transfers_out += 1
            self.bytes_out += nbytes
        self.ff_transfers += 1
        return channel.reserve_transfer(self.setup_cycles, nbytes)

    def _transfer(self, channel: ThroughputChannel, nbytes: int,
                  inbound: bool) -> typing.Generator:
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size {nbytes}")
        if nbytes == 0:
            return
        if not flags.naive_channel():
            # Fast path: commit the transfer's channel slot in closed
            # form and park once on its completion, instead of waking
            # for the setup delay and again for the channel grant.
            # Cycle- and order-identical to the event path (see
            # repro.sim.resource module docstring).
            done = self._reserve(channel, nbytes, inbound)
            if done is not None:
                yield done
                return
            self.ff_fallbacks += 1
        if inbound:
            self.transfers_in += 1
            self.bytes_in += nbytes
        else:
            self.transfers_out += 1
            self.bytes_out += nbytes
        if self.setup_cycles:
            yield self.setup_cycles
        yield channel.transfer(nbytes)
