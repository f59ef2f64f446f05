"""Cluster mailbox peripheral: the offload doorbell.

The host dispatches a job by storing the job-descriptor pointer into a
cluster's mailbox (one unicast store per cluster in the baseline; one
multicast store for all clusters with the extension).  The store both
carries the pointer and wakes the cluster's DM core from clock gating.

Register map (word offsets from the cluster peripheral base):

====== ========== =====================================================
offset register   behaviour
====== ========== =====================================================
0x00   JOB_PTR    write: latch pointer, wake the DM core; read: last
                  pointer written
0x08   JOBS_RCVD  read-only count of doorbell rings (debug/statistics)
====== ========== =====================================================
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.mem.map import MmioDevice
from repro.sim import Event, Simulator

JOB_PTR_OFFSET = 0x00
JOBS_RCVD_OFFSET = 0x08


class Mailbox(MmioDevice):
    """Doorbell + job-pointer latch for one cluster."""

    def __init__(self, sim: Simulator, cluster_id: int) -> None:
        self.sim = sim
        self.cluster_id = cluster_id
        self.job_ptr = 0
        self.jobs_received = 0
        self._waiters: typing.List[Event] = []
        # One doorbell event is allocated per served job; the label is
        # part of the deadlock-report contract, so intern it once.
        self._ring_name = f"mailbox{cluster_id}.ring"

    # ------------------------------------------------------------------
    # MMIO interface (invoked by the interconnect at delivery time)
    # ------------------------------------------------------------------
    def read_register(self, offset: int) -> int:
        if offset == JOB_PTR_OFFSET:
            return self.job_ptr
        if offset == JOBS_RCVD_OFFSET:
            return self.jobs_received
        return super().read_register(offset)

    def write_register(self, offset: int, value: int) -> None:
        if offset == JOB_PTR_OFFSET:
            self.job_ptr = value
            self.jobs_received += 1
            if not self._waiters:
                # Rings are not queued (see :meth:`wait_job`): a ring
                # with nobody parked on the doorbell is lost, and the
                # cluster will never pick the job up.
                self.audit("lost-doorbell", offset, value=value,
                           detail=f"cluster {self.cluster_id}: no DM core "
                                  f"waiting on the doorbell")
            waiters, self._waiters = self._waiters, []
            for event in waiters:
                event.trigger(value)
            return
        if offset == JOBS_RCVD_OFFSET:
            self.audit("read-only-write", offset, value=value, fatal=True)
            raise ProtocolError(
                f"mailbox register at +{offset:#x} is read-only")
        super().write_register(offset, value)

    def reset(self) -> None:
        """Restore boot state: clear the latch and statistics.

        Waiters are deliberately *kept*: after a drained run the DM core
        is parked in :meth:`wait_job` exactly as it is right after boot,
        and dropping its event would orphan the process.
        """
        self.job_ptr = 0
        self.jobs_received = 0

    @property
    def waiters(self) -> int:
        """Number of processes parked on the doorbell (boot state: 1)."""
        return len(self._waiters)

    # ------------------------------------------------------------------
    # Device-side interface
    # ------------------------------------------------------------------
    def job_event(self) -> Event:
        """Park on the doorbell: returns the event the next ring
        triggers with the job pointer (non-generator form of
        :meth:`wait_job`, for the DM core's flattened main loop)."""
        event = self.sim.event(name=self._ring_name)
        self._waiters.append(event)
        return event

    def wait_job(self) -> typing.Generator:
        """DM-core wait for the next doorbell; returns the job pointer.

        Rings are not queued: the DM core must be waiting before the
        next ring arrives (the host never dispatches a new job before
        observing completion of the previous one, which the offload
        runtimes guarantee).
        """
        pointer = yield self.job_event()
        return pointer
