"""Offload phase breakdown, reconstructed from the trace log.

The paper reasons about offload cost in phases (dispatch, job
execution, completion synchronization).  :class:`OffloadTrace` rebuilds
that breakdown for one measured offload from the markers the host
program and the cluster DM cores record, so experiments can report not
just the total but *where* the cycles went — e.g. that baseline
dispatch grows linearly with M while multicast dispatch does not.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import TraceError
from repro.sim import TraceRecorder


@dataclasses.dataclass(frozen=True)
class ClusterPhases:
    """Cycle timestamps of one cluster's job phases (absolute cycles)."""

    cluster_id: int
    doorbell: int
    awake: int
    decoded: int
    dma_in_done: typing.Optional[int]
    compute_done: typing.Optional[int]
    dma_out_done: typing.Optional[int]
    completion_signalled: int

    @property
    def had_work(self) -> bool:
        """False for clusters that received an empty slice."""
        return self.dma_in_done is not None


@dataclasses.dataclass(frozen=True)
class OffloadTrace:
    """Phase breakdown of one offload (all values in cycles)."""

    start_cycle: int
    descriptor_written: int
    dispatch_start: int
    dispatch_done: int
    end_cycle: int
    clusters: typing.Tuple[ClusterPhases, ...]

    # ------------------------------------------------------------------
    # Derived phase durations
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Full offload runtime as the host measures it."""
        return self.end_cycle - self.start_cycle

    @property
    def setup_cycles(self) -> int:
        """Runtime entry + descriptor store + completion arming."""
        return self.dispatch_start - self.start_cycle

    @property
    def dispatch_cycles(self) -> int:
        """Doorbell distribution (the phase multicast compresses)."""
        return self.dispatch_done - self.dispatch_start

    @property
    def completion_wait_cycles(self) -> int:
        """Dispatch end to host observing completion."""
        return self.end_cycle - self.dispatch_done

    @property
    def last_completion_cycle(self) -> int:
        """When the final cluster signalled done."""
        return max(c.completion_signalled for c in self.clusters)

    @property
    def sync_overhead_cycles(self) -> int:
        """Last cluster signalling → host observing (the sync tail)."""
        return self.end_cycle - self.last_completion_cycle

    def phase_summary(self) -> typing.Dict[str, int]:
        """The durations as a dict, for tables and assertions."""
        return {
            "setup": self.setup_cycles,
            "dispatch": self.dispatch_cycles,
            "completion_wait": self.completion_wait_cycles,
            "sync_overhead": self.sync_overhead_cycles,
            "total": self.total,
        }


def build_offload_trace(recorder: TraceRecorder, start_cycle: int,
                        end_cycle: int) -> OffloadTrace:
    """Assemble an :class:`OffloadTrace` from a recorder's markers.

    Only markers inside the half-open window ``[start_cycle,
    end_cycle)`` are considered, so systems reused for several
    sequential offloads attribute each marker to the right offload: an
    offload's own ``offload_start`` marker lands exactly at
    ``start_cycle`` (inclusive), while markers recorded at
    ``end_cycle`` belong to whatever the host does next — with a
    closed window, a back-to-back second offload starting on the very
    cycle the first one ended would leak its markers into both.
    Within the window the *first* record per ``(source, label)`` pair
    wins, matching :meth:`~repro.sim.TraceRecorder.cycle_of`.

    Raises
    ------
    TraceError
        If a required marker is missing from the window.  The message
        names the window bounds and the markers that *are* present, so
        a mis-sliced window is diagnosable without dumping the trace.
    """
    # One pass over the window builds the first-record-wins index per
    # source.  The window is found by binary search in the sorted log,
    # so a long-lived system's per-offload cost does not grow with the
    # records earlier jobs left behind.
    by_source: typing.Dict[str, typing.Dict[str, int]] = {}
    for record in recorder.window(start_cycle, end_cycle):
        marks = by_source.get(record.source)
        if marks is None:
            by_source[record.source] = marks = {}
        if record.label not in marks:
            marks[record.label] = record.cycle

    host_marks = by_source.get("host", {})

    def host_cycle(label: str) -> int:
        cycle = host_marks.get(label)
        if cycle is None:
            raise TraceError(
                f"host marker {label!r} missing from trace window "
                f"[{start_cycle}, {end_cycle}); host markers present: "
                f"{sorted(host_marks) or 'none'}")
        return cycle

    clusters = []
    cluster_ids = sorted(
        int(src[len("cluster"):]) for src, marks in by_source.items()
        if src.startswith("cluster") and "doorbell" in marks)
    for cluster_id in cluster_ids:
        source = f"cluster{cluster_id}"
        marks = by_source[source]
        for required in ("doorbell", "awake", "decoded",
                         "completion_signalled"):
            if required not in marks:
                raise TraceError(
                    f"{source} marker {required!r} missing from trace "
                    f"window [{start_cycle}, {end_cycle}); {source} "
                    f"markers present: {sorted(marks)}")
        clusters.append(ClusterPhases(
            cluster_id=cluster_id,
            doorbell=marks["doorbell"],
            awake=marks["awake"],
            decoded=marks["decoded"],
            dma_in_done=marks.get("dma_in_done"),
            compute_done=marks.get("compute_done"),
            dma_out_done=marks.get("dma_out_done"),
            completion_signalled=marks["completion_signalled"],
        ))

    return OffloadTrace(
        start_cycle=start_cycle,
        descriptor_written=host_cycle("descriptor_written"),
        dispatch_start=host_cycle("dispatch_start"),
        dispatch_done=host_cycle("dispatch_done"),
        end_cycle=end_cycle,
        clusters=tuple(clusters),
    )
