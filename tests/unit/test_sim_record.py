"""Unit tests for the trace recorder."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, TraceRecorder


def make_recorder():
    sim = Simulator()
    return sim, TraceRecorder(sim)


def test_records_are_timestamped():
    sim, rec = make_recorder()
    rec.record("host", "start")
    sim.schedule(10, lambda arg: rec.record("host", "end"))
    sim.run()
    assert [(r.cycle, r.label) for r in rec] == [(0, "start"), (10, "end")]


def test_disabled_recorder_stays_empty():
    sim = Simulator()
    rec = TraceRecorder(sim, enabled=False)
    rec.record("host", "start")
    assert len(rec) == 0


def test_filter_by_source_and_label():
    sim, rec = make_recorder()
    rec.record("host", "store")
    rec.record("cluster0", "store")
    rec.record("host", "load")
    assert len(rec.filter(source="host")) == 2
    assert len(rec.filter(label="store")) == 2
    assert len(rec.filter(source="host", label="store")) == 1


def test_first_and_last():
    sim, rec = make_recorder()
    rec.record("a", "tick", 1)
    sim.schedule(5, lambda arg: rec.record("b", "tick", 2))
    sim.run()
    assert rec.first("tick").data == 1
    assert rec.last("tick").data == 2
    assert rec.first("missing") is None
    assert rec.last("missing") is None


def test_cycle_of_and_span():
    sim, rec = make_recorder()
    rec.record("host", "dispatch_start")
    sim.schedule(37, lambda arg: rec.record("host", "dispatch_done"))
    sim.run()
    assert rec.cycle_of("dispatch_start") == 0
    assert rec.span("dispatch_start", "dispatch_done") == 37


def test_cycle_of_missing_label_raises():
    _sim, rec = make_recorder()
    with pytest.raises(KeyError):
        rec.cycle_of("never")


def test_labels_in_first_appearance_order():
    _sim, rec = make_recorder()
    rec.record("x", "b")
    rec.record("x", "a")
    rec.record("x", "b")
    assert rec.labels() == ["b", "a"]


def test_clear():
    _sim, rec = make_recorder()
    rec.record("x", "a")
    rec.clear()
    assert len(rec) == 0


# ----------------------------------------------------------------------
# Records stamped ahead (record_at)
# ----------------------------------------------------------------------
def views(rec, sim):
    """What each reader of the log sees now."""
    from repro.sim import diag
    return {
        "window": [r.label for r in rec.window(0, 1000)],
        "filter": [r.label for r in rec.filter(source="dm")],
        "len": len(rec),
        "iter": [r.label for r in rec],
        "last": rec.last("done") is not None,
        "tail": [r.label for r in diag.build_report(sim, "probe").trace_tail],
    }


def test_stamped_record_is_invisible_until_its_cycle():
    sim, rec = make_recorder()
    rec.record("dm", "start")
    rec.record_at(10, "dm", "done")
    seen = {}
    for cycle in (9, 10):
        sim.schedule(cycle, lambda at: seen.setdefault(at, views(rec, sim)),
                     cycle)
    sim.run()
    before = {"window": ["start"], "filter": ["start"], "len": 1,
              "iter": ["start"], "last": False, "tail": ["start"]}
    after = {"window": ["start", "done"], "filter": ["start", "done"],
             "len": 2, "iter": ["start", "done"], "last": True,
             "tail": ["start", "done"]}
    assert seen == {9: before, 10: after}
    assert rec.cycle_of("done") == 10


def test_stamped_records_merge_in_cycle_order():
    """A stamped record lands ahead of the records made in its cycle;
    stamped records of one cycle keep their stamping order; where a
    record lands does not depend on when the log was read."""
    def run(read_between):
        sim, rec = make_recorder()
        rec.record_at(5, "dm", "b")
        rec.record_at(3, "dm", "a")
        rec.record_at(5, "dm", "c")
        rec.record_at(0, "dm", "now")  # the current cycle: a plain record

        def at_five(_arg):
            rec.record("host", "x")
            if read_between:
                len(rec)
            rec.record_at(5, "host", "y")  # now: appended at once
            rec.record_at(7, "dm", "d")

        sim.schedule(5, at_five)
        sim.schedule(4, lambda _arg: rec.record("host", "w"))
        sim.run()
        return [(r.cycle, r.label) for r in rec]

    expected = [(0, "now"), (3, "a"), (4, "w"), (5, "b"), (5, "c"),
                (5, "x"), (5, "y"), (7, "d")]
    assert run(read_between=False) == expected
    assert run(read_between=True) == expected


def test_stamped_record_holds_the_drained_clock():
    sim, rec = make_recorder()
    rec.record_at(40, "dm", "late")
    assert sim.run() == 40
    assert [r.cycle for r in rec] == [40]


def test_stamping_the_past_is_refused():
    sim, rec = make_recorder()
    sim.run(until=8)
    with pytest.raises(SimulationError):
        rec.record_at(7, "dm", "late")


def test_disabled_recorder_and_clear_drop_stamped_records():
    sim = Simulator()
    off = TraceRecorder(sim, enabled=False)
    off.record_at(5, "dm", "done")
    sim.run()
    assert len(off) == 0 and off.records == []

    sim, rec = make_recorder()
    rec.record_at(5, "dm", "done")
    rec.clear()
    sim.run()
    assert len(rec) == 0 and rec.records == []


def test_merge_due_fills_the_records_list():
    """Code reading ``records`` directly sees what a merge moved in."""
    sim, rec = make_recorder()
    rec.record_at(5, "dm", "done")
    sim.run()
    assert rec.records == []
    rec.merge_due()
    assert [(r.cycle, r.label) for r in rec.records] == [(5, "done")]


def test_copy_is_detached():
    sim, rec = make_recorder()
    rec.record("host", "start")
    rec.record_at(5, "dm", "done")
    sim.run()
    copy = rec.copy()
    rec.clear()
    rec.record("host", "next")
    assert copy.sim is None
    assert [r.label for r in copy] == ["start", "done"]
    assert [r.label for r in copy.window(5, 6)] == ["done"]
