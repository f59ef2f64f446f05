"""Fabric-level start barrier for multi-cluster jobs.

A job offloaded to M clusters begins with a *global* synchronization:
every participating DM core reports arrival to a central credit counter
and waits for the release wave before starting the collective DMA/compute
phases (Manticore-class fabrics provide hardware-assisted global
barriers for exactly this purpose — a multi-cluster job must not start
collective phases before every member holds its arguments).

This is the mechanism that makes the baseline's sequential dispatch
fully *precede* the job: the first-dispatched cluster waits at this
barrier until the last-dispatched cluster arrives, so the doorbell
loop's ``d·M`` cost adds to the runtime instead of hiding behind the
DMA pipeline.  With multicast dispatch all clusters arrive together and
the barrier costs only its constant wire latency.

The unit provides independent *groups* (hardware: a small bank of
counters indexed by a group ID carried in the arrival write) so that
space-shared concurrent jobs on disjoint cluster ranges synchronize
independently; the offload protocol uses the job's first cluster as its
group ID, which is unique across concurrent jobs by construction.

Timing: an arrival takes ``arrival_latency`` cycles to reach the
central counter; once the last arrival of a group lands, the release
wave reaches that group's clusters ``release_latency`` cycles later.
"""

from __future__ import annotations

import typing

from repro import flags
from repro.errors import ConfigError, SimulationError
from repro.sim import Event, Simulator


def _fire_release(release: Event) -> None:
    """Trigger a release wave stamped with the current cycle.

    Module-level so the fast-forward crossing allocates no closure; the
    naive path's per-crossing lambda is kept untouched as the reference.
    """
    release.trigger(release.sim.now)


class FabricBarrier:
    """Banked credit-counter barrier across participating clusters."""

    def __init__(self, sim: Simulator, arrival_latency: int = 8,
                 release_latency: int = 8) -> None:
        if arrival_latency < 0 or release_latency < 0:
            raise ConfigError("fabric barrier latencies must be >= 0")
        self.sim = sim
        self.arrival_latency = arrival_latency
        self.release_latency = release_latency
        #: group id -> (expected, arrived, release event)
        self._groups: typing.Dict[int, typing.Tuple[int, int, Event]] = {}
        self.generations = 0
        #: Arrivals absorbed by the fast path (counter bookkeeping at
        #: the arrival write, wire latency virtualized).
        self.ff_arrivals = 0

    def arrive(self, parties: int, group: int = 0) -> typing.Generator:
        """Arrive at ``group`` and wait for all its ``parties`` clusters.

        All arrivals of one open generation of a group must agree on
        ``parties`` — a mismatch means two jobs' barriers interleaved on
        the same counter, which the offload protocol forbids (concurrent
        jobs use disjoint cluster ranges, hence distinct group IDs).

        Fast path (default): the counter is updated at the arrival
        write and only the generation-completing arrival schedules
        events — a latency hop standing in for its in-flight arrival,
        then the release wave.  The arrival wire latency is a constant,
        so bookkeeping order at the counter equals the naive in-flight
        order and both paths release every waiter at the identical
        cycle with identical event ordering.  ``REPRO_NAIVE_BARRIER``
        selects the reference path: every arrival simulates its wire
        latency before touching the counter.
        """
        if parties <= 0:
            raise SimulationError(
                f"barrier party count must be positive, got {parties}")
        if group < 0:
            raise SimulationError(f"barrier group must be >= 0, got {group}")
        if not flags.naive_barrier():
            yield self.book_arrival(parties, group)
            return
        if self.arrival_latency:
            yield self.arrival_latency
        if group not in self._groups:
            release = self.sim.event(
                name=f"fabric_barrier.g{group}.gen{self.generations}")
            self._groups[group] = (parties, 0, release)
        expected, arrived, release = self._groups[group]
        if expected != parties:
            raise SimulationError(
                f"fabric barrier group {group} arrival expects {parties} "
                f"parties but the open generation expects {expected}")
        arrived += 1
        if arrived == expected:
            del self._groups[group]
            self.generations += 1
            if self.release_latency:
                self.sim.schedule(self.release_latency,
                                  lambda _arg: release.trigger(self.sim.now))
            else:
                release.trigger(self.sim.now)
        else:
            self._groups[group] = (expected, arrived, release)
        yield release

    def book_arrival(self, parties: int, group: int = 0) -> Event:
        """Non-generator form of :meth:`arrive`'s fast path: book the
        arrival and return the release event for the caller to park on
        directly (the DM core's flattened fast path).  Callers must
        have checked ``REPRO_NAIVE_BARRIER`` themselves."""
        if parties <= 0:
            raise SimulationError(
                f"barrier party count must be positive, got {parties}")
        if group < 0:
            raise SimulationError(f"barrier group must be >= 0, got {group}")
        self.ff_arrivals += 1
        return self._book_arrival(parties, group)

    def _book_arrival(self, parties: int, group: int) -> Event:
        """Fast-path counter bookkeeping at the arrival write."""
        if group not in self._groups:
            release = self.sim.event(
                name=f"fabric_barrier.g{group}.gen{self.generations}")
            self._groups[group] = (parties, 0, release)
        expected, arrived, release = self._groups[group]
        if expected != parties:
            raise SimulationError(
                f"fabric barrier group {group} arrival expects {parties} "
                f"parties but the open generation expects {expected}")
        arrived += 1
        if arrived == expected:
            del self._groups[group]
            self.generations += 1
            # The completing arrival still travels the wire: the
            # release wave starts ``arrival_latency`` cycles from now,
            # exactly where the naive path's last in-flight arrival
            # would schedule it.
            if self.arrival_latency:
                self.sim.schedule(self.arrival_latency,
                                  self._ff_complete, release)
            else:
                self._ff_complete(release)
        else:
            self._groups[group] = (expected, arrived, release)
        return release

    def _ff_complete(self, release: Event) -> None:
        """Runs where the naive last arrival would resume; launches the
        release wave."""
        if self.release_latency:
            self.sim.schedule(self.release_latency, _fire_release, release)
        else:
            release.trigger(self.sim.now)

    def reset(self) -> None:
        """Restore boot state; only legal with no open generations."""
        if self._groups:
            raise SimulationError(
                f"cannot reset fabric barrier with open groups "
                f"{self.open_groups}")
        self.generations = 0
        self.ff_arrivals = 0

    def waiting(self, group: int = 0) -> int:
        """Clusters currently blocked in ``group``'s open generation."""
        if group not in self._groups:
            return 0
        return self._groups[group][1]

    @property
    def open_groups(self) -> typing.Tuple[int, ...]:
        """Groups with an incomplete generation (debug aid)."""
        return tuple(sorted(self._groups))
