"""Unit tests for the simulation kernel run loop and scheduling."""

import pytest

from repro.errors import CycleLimitError, DeadlockError, SimulationError
from repro.sim import Simulator, TraceRecorder


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_callback_at_delay():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda arg: seen.append((sim.now, arg)), "x")
    sim.run()
    assert seen == [(5, "x")]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda arg: None)


def test_same_cycle_callbacks_fire_in_fifo_order():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(3, lambda arg, i=i: seen.append(i))
    sim.run()
    assert seen == list(range(10))


def test_callbacks_fire_in_time_order_regardless_of_insertion():
    sim = Simulator()
    seen = []
    for delay in [7, 1, 5, 3, 9, 0]:
        sim.schedule(delay, lambda arg, d=delay: seen.append(d))
    sim.run()
    assert seen == [0, 1, 3, 5, 7, 9]


def test_run_until_cycle_includes_events_at_that_cycle():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda arg: seen.append("at10"))
    sim.schedule(11, lambda arg: seen.append("at11"))
    sim.run(until=10)
    assert seen == ["at10"]
    assert sim.now == 10


def test_run_until_cycle_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_run_until_past_cycle_rejected():
    sim = Simulator()
    sim.run(until=50)
    with pytest.raises(SimulationError):
        sim.run(until=10)


def test_run_until_event():
    sim = Simulator()
    event = sim.event()
    sim.schedule(42, lambda arg: event.trigger("done"))
    sim.run(until=event)
    assert sim.now == 42
    assert event.value == "done"


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    event = sim.event()
    sim.schedule(1, lambda arg: None)
    with pytest.raises(DeadlockError):
        sim.run(until=event)


def test_hold_until_settles_a_drain_like_a_no_op_callback():
    """A held cycle acts as a callback that does nothing: a drain that
    runs out earlier settles there, a later callback wins, and a rewind
    forgets it."""
    sim = Simulator()
    sim.schedule(5, lambda _arg: sim.hold_until(30))
    sim.schedule(10, lambda _arg: None)
    assert sim.run() == 30
    assert sim.pending == 0
    sim.hold_until(12)  # already past
    sim.schedule(4, lambda _arg: None)
    assert sim.run() == 34
    sim.reset()
    assert sim.run() == 0


def test_hold_until_moves_deadlock_and_cycle_limit_reports():
    """Waiting on an event that never fires: the held cycle is where the
    drain would have popped its no-op, so the deadlock is reported
    there, or a cycle limit before it is hit first."""
    sim = Simulator()
    sim.hold_until(50)
    with pytest.raises(DeadlockError):
        sim.run(until=sim.event())
    assert sim.now == 50

    sim = Simulator()
    sim.hold_until(50)
    with pytest.raises(CycleLimitError):
        sim.run(until=sim.event(), max_cycles=40)
    assert sim.now == 0


def test_run_until_invalid_argument():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(until="tomorrow")


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter(_arg):
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1, reenter)
    sim.run()
    assert len(errors) == 1


def test_timer_event_fires_at_deadline():
    sim = Simulator()
    timer = sim.timer(17)
    sim.run(until=timer)
    assert sim.now == 17
    assert timer.value == 17


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_pending_counts_queued_callbacks():
    sim = Simulator()
    sim.schedule(1, lambda arg: None)
    sim.schedule(2, lambda arg: None)
    assert sim.pending == 2


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    seen = []

    def outer(_arg):
        seen.append(("outer", sim.now))
        sim.schedule(5, inner)

    def inner(_arg):
        seen.append(("inner", sim.now))

    sim.schedule(3, outer)
    sim.run()
    assert seen == [("outer", 3), ("inner", 8)]


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        seen = []
        for d in [4, 4, 2, 9, 2]:
            sim.schedule(d, lambda arg, d=d: seen.append((sim.now, d)))
        sim.run()
        return seen

    assert build() == build()


def test_teardown_closes_processes_drops_callbacks_and_the_trace():
    sim = Simulator()
    recorder = TraceRecorder(sim)

    def body():
        yield sim.event(name="never")

    parked = sim.spawn(body(), name="parked")
    sim.run()
    sim.schedule(5, lambda _arg: None)
    sim.timer(0)
    assert sim.trace is recorder and sim.pending == 2
    sim.teardown()
    assert sim.live_processes == () and sim.pending == 0
    assert sim.trace is None
    assert parked.waiting_on is None
