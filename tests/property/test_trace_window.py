"""Property tests: the binary-searched trace window equals a full scan.

``TraceRecorder.window`` and ``build_offload_trace`` find an offload's
records by binary search in the cycle-sorted log.  The oracle here is
the scan they replaced: every record of the log, kept if
``start <= cycle < end``.
"""

import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.runtime.trace import build_offload_trace
from repro.sim import Simulator, TraceRecord, TraceRecorder

HOST_LABELS = ("offload_start", "descriptor_written", "dispatch_start",
               "dispatch_done")
CLUSTER_LABELS = ("doorbell", "awake", "decoded", "dma_in_done",
                  "compute_done", "dma_out_done", "completion_signalled")
SOURCES = ("host", "cluster0", "cluster1", "cluster2")


def full_scan_window(recorder: TraceRecorder, start: int,
                     end: int) -> typing.List[TraceRecord]:
    return [record for record in recorder.records
            if start <= record.cycle < end]


@st.composite
def job_markers(draw):
    """One offload's markers in protocol order; a quarter of the jobs
    lose one marker, so windows also miss required markers."""
    markers = [("host", label) for label in HOST_LABELS]
    for source in draw(st.lists(st.sampled_from(SOURCES[1:]), unique=True,
                                max_size=3)):
        markers.extend((source, label) for label in CLUSTER_LABELS)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        del markers[draw(st.integers(min_value=0,
                                     max_value=len(markers) - 1))]
    return markers


@st.composite
def sorted_logs(draw):
    """A non-decreasing log of back-to-back offloads: small cycle steps
    give long runs of records on one cycle."""
    jobs = draw(st.lists(job_markers(), max_size=4))
    sim = Simulator()
    recorder = TraceRecorder(sim)
    cycle = draw(st.integers(min_value=0, max_value=20))
    for markers in jobs:
        for source, label in markers:
            cycle += draw(st.sampled_from((0, 0, 0, 1, 1, 2, 5)))
            recorder.records.append(TraceRecord(cycle, source, label))
    return recorder


@st.composite
def logs_and_windows(draw):
    recorder = draw(sorted_logs())
    cycles = [record.cycle for record in recorder.records] or [0]
    # Bounds on record cycles (runs of equal cycles included), plus
    # bounds before the first and after the last record.
    bound = st.one_of(
        st.sampled_from(cycles),
        st.integers(min_value=min(cycles) - 3, max_value=max(cycles) + 3))
    starts = [record.cycle for record in recorder.records
              if record.label == "offload_start"]
    if starts and draw(st.booleans()):
        # One job's own window: its offload_start to the next one's.
        job = draw(st.integers(min_value=0, max_value=len(starts) - 1))
        start = starts[job]
        end = (starts[job + 1] if job + 1 < len(starts)
               else cycles[-1] + draw(st.integers(min_value=0, max_value=2)))
        return recorder, start, end
    start = draw(bound)
    end = draw(st.one_of(st.just(start), bound))
    return recorder, start, end


def outcome(recorder, start, end):
    try:
        return build_offload_trace(recorder, start, end)
    except TraceError as error:
        return ("TraceError", str(error))


@settings(deadline=None, max_examples=300)
@given(logs_and_windows())
def test_window_equals_full_scan(case):
    recorder, start, end = case
    assert list(recorder.window(start, end)) == full_scan_window(
        recorder, start, end)


@settings(deadline=None, max_examples=300)
@given(logs_and_windows())
def test_offload_trace_equals_full_scan(case):
    recorder, start, end = case
    oracle = TraceRecorder(Simulator())
    oracle.records.extend(full_scan_window(recorder, start, end))
    assert outcome(recorder, start, end) == outcome(oracle, start, end)


@settings(deadline=None, max_examples=100)
@given(sorted_logs())
def test_edge_windows_are_empty(recorder):
    records = recorder.records
    if records:
        first, last = records[0].cycle, records[-1].cycle
        assert list(recorder.window(first - 5, first)) == []
        assert list(recorder.window(last + 1, last + 9)) == []
        assert list(recorder.window(first, last + 1)) == records
    for cycle in {record.cycle for record in records} | {0}:
        assert list(recorder.window(cycle, cycle)) == []
        assert list(recorder.window(cycle + 1, cycle)) == []
