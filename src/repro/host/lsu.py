"""The host core's load-store unit.

The LSU is the hardware block the paper extends on the host side: with
the extension, it recognizes stores to the multicast window and emits a
single multicast transaction instead of trapping.  Here it is a thin,
capability-checked adapter between :class:`repro.host.cva6.HostCore`
and :class:`repro.noc.Interconnect`, so that "the host was built without
multicast support" is a configuration fact enforced in one place.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError
from repro.noc.xbar import Interconnect, WriteHandle
from repro.sim import Event


class LoadStoreUnit:
    """Issues the host's memory transactions onto the interconnect."""

    def __init__(self, noc: Interconnect, multicast_capable: bool = False) -> None:
        if multicast_capable and not noc.params.multicast_enabled:
            raise ConfigError(
                "host LSU is multicast-capable but the interconnect is not; "
                "the extension must be enabled on both sides"
            )
        self.noc = noc
        self.multicast_capable = multicast_capable
        self.stores_issued = 0
        self.multicast_stores_issued = 0
        self.loads_issued = 0

    def reset(self) -> None:
        """Zero the issue counters (boot state)."""
        self.stores_issued = 0
        self.multicast_stores_issued = 0
        self.loads_issued = 0

    def store(self, addr: int, value: int) -> WriteHandle:
        """Issue a unicast store."""
        self.stores_issued += 1
        return self.noc.host_write(addr, value)

    def store_block(
            self, blocks: typing.Sequence[
                typing.Tuple[int, typing.Sequence[int]]]
    ) -> typing.Optional[Event]:
        """Issue a run of back-to-back stores in closed form.

        Delegates to :meth:`repro.noc.Interconnect.host_write_block`;
        on success the issue counter advances by the full store count
        and the returned event fires at the final ack.  Returns
        ``None`` (and charges nothing) when the closed form is
        unavailable — the caller must issue word by word.
        """
        done = self.noc.host_write_block(blocks)
        if done is not None:
            self.stores_issued += sum(
                len(words) for _base, words in blocks)
        return done

    def multicast_store(self, addresses: typing.Sequence[int],
                        value: int) -> WriteHandle:
        """Issue one store delivered to every address in ``addresses``.

        Raises
        ------
        ConfigError
            If this LSU was built without the multicast extension.
        """
        if not self.multicast_capable:
            raise ConfigError(
                "multicast store on a baseline LSU (build the host with "
                "multicast_capable=True to use the extension)"
            )
        self.multicast_stores_issued += 1
        return self.noc.host_multicast_write(addresses, value)

    def load(self, addr: int) -> Event:
        """Issue a load; the event's value is the data."""
        self.loads_issued += 1
        return self.noc.host_read(addr)
