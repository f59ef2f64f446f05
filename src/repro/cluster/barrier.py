"""Reusable cluster hardware barrier.

Snitch-style clusters provide a single-cycle-arbitration hardware
barrier; crossing it costs a small fixed latency once the last party
arrives.  The barrier is generation-counted so the same instance can be
reused phase after phase (wake → compute → write-back) without
re-allocation races.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.sim import Event, Simulator


def _fire_release(payload: typing.Tuple[Event, int]) -> None:
    """Trigger a barrier release with its generation as the value.

    Module-level so the fast-forward crossing allocates no closure; the
    naive path's per-crossing lambda is kept untouched as the reference.
    """
    release, generation = payload
    release.trigger(generation)


class Barrier:
    """A reusable barrier for a fixed set of parties."""

    def __init__(self, sim: Simulator, parties: int, latency: int = 2,
                 name: str = "barrier") -> None:
        if parties <= 0:
            raise SimulationError(f"{name}: parties must be positive, got {parties}")
        if latency < 0:
            raise SimulationError(f"{name}: negative latency {latency}")
        self.sim = sim
        self.parties = parties
        self.latency = latency
        self.name = name
        self._generation = 0
        self._arrived = 0
        self._release: Event = sim.event(name=f"{name}.gen0")
        #: Generations crossed through :meth:`wait_all_known` (the
        #: closed-form fast-forward) instead of per-party arrivals.
        self.ff_crossings = 0

    def wait(self) -> typing.Generator:
        """Arrive at the barrier; resumes when all parties have arrived.

        Returns the generation number that was crossed.
        """
        generation = self._generation
        release = self._release
        self._arrived += 1
        if self._arrived > self.parties:  # pragma: no cover - guarded below
            raise SimulationError(f"{self.name}: more arrivals than parties")
        if self._arrived == self.parties:
            # Last arrival: open the next generation, release this one.
            self._generation += 1
            self._arrived = 0
            self._release = self.sim.event(
                name=f"{self.name}.gen{self._generation}")
            if self.latency:
                self.sim.schedule(
                    self.latency, lambda _arg: release.trigger(generation))
            else:
                release.trigger(generation)
            yield release
        else:
            yield release
        return generation

    def wait_all_known(self, last_arrival_delay: int) -> typing.Generator:
        """Cross the barrier in closed form: the caller arrives now and
        every other party's arrival delay is already known, the largest
        being ``last_arrival_delay`` cycles from now.

        This is the compute-phase fast-forward: instead of one parked
        process per party each waking to arrive, the release cycle is
        ``now + last_arrival_delay + latency`` by construction, and the
        crossing costs two timer callbacks regardless of party count.
        Cycle- and order-identical to ``parties - 1`` spawned processes
        each arriving via :meth:`wait`: the kickoff hop occupies the
        queue slot of the first spawned party's kickoff, the crossing
        entry fires where the naive last arrival would resume, and the
        release trigger is scheduled at that same instant.

        Only valid as the opening arrival of a generation (nobody
        already waiting); returns the generation crossed, like
        :meth:`wait`.
        """
        generation = self._generation
        yield self.cross_all_known(last_arrival_delay)
        return generation

    def cross_all_known(self, last_arrival_delay: int) -> Event:
        """Non-generator form of :meth:`wait_all_known`: commit the
        crossing and return the release event for the caller to park
        on directly (the DM core's flattened fast path)."""
        if last_arrival_delay < 0:
            raise SimulationError(
                f"{self.name}: negative last arrival delay "
                f"{last_arrival_delay}")
        if self._arrived:
            raise SimulationError(
                f"{self.name}: closed-form crossing with {self._arrived} "
                "parties already waiting")
        release = self._release
        self._arrived = 1
        self.ff_crossings += 1
        self.sim.schedule(0, self._ff_kickoff,
                          (last_arrival_delay, release))
        return release

    def _ff_kickoff(self, payload: typing.Tuple[int, Event]) -> None:
        """Runs where the naive path's first spawned party would kick
        off; places (or runs) the crossing at the last arrival cycle."""
        delay, release = payload
        if delay:
            self.sim.schedule(delay, self._ff_cross, release)
        else:
            self._ff_cross(release)

    def _ff_cross(self, release: Event) -> None:
        """The virtual last arrival: identical bookkeeping and release
        scheduling to the final :meth:`wait` arrival."""
        generation = self._generation
        self._generation += 1
        self._arrived = 0
        self._release = self.sim.event(
            name=f"{self.name}.gen{self._generation}")
        if self.latency:
            self.sim.schedule(self.latency, _fire_release,
                              (release, generation))
        else:
            release.trigger(generation)

    def reset(self) -> None:
        """Restore boot state: generation zero, nobody waiting.

        Only legal when the current generation has no arrivals (every
        prior generation fully crossed).
        """
        if self._arrived:
            raise SimulationError(
                f"{self.name}: cannot reset with {self._arrived} "
                "parties waiting")
        self._generation = 0
        self._release = self.sim.event(name=f"{self.name}.gen0")
        self.ff_crossings = 0

    @property
    def generation(self) -> int:
        """Number of fully-crossed generations so far."""
        return self._generation

    @property
    def waiting(self) -> int:
        """Parties currently blocked at the barrier."""
        return self._arrived
