"""Unit tests for generator-coroutine processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_process_delay_advances_time():
    sim = Simulator()
    log = []

    def body():
        log.append(sim.now)
        yield 10
        log.append(sim.now)
        yield 5
        log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [0, 10, 15]


def test_process_zero_delay_resumes_same_cycle():
    sim = Simulator()
    log = []

    def body():
        yield 0
        log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [0]


def test_process_negative_delay_raises():
    sim = Simulator()

    def body():
        yield -3

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_bad_yield_type_raises():
    sim = Simulator()

    def body():
        yield "soon"

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)


def test_process_waits_on_event_and_gets_value():
    sim = Simulator()
    event = sim.event()
    got = []

    def body():
        value = yield event
        got.append((sim.now, value))

    sim.spawn(body())
    sim.schedule(7, lambda arg: event.trigger("payload"))
    sim.run()
    assert got == [(7, "payload")]


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def child():
        yield 4
        return 99

    def parent():
        value = yield sim.spawn(child())
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(4, 99)]


def test_join_already_finished_process():
    sim = Simulator()
    results = []

    def child():
        return 7
        yield  # pragma: no cover - makes this a generator

    def parent():
        proc = sim.spawn(child())
        yield 10  # let the child finish first
        value = yield proc
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(10, 7)]


def test_process_is_event_for_combinators():
    sim = Simulator()

    def worker(delay, tag):
        yield delay
        return tag

    procs = [sim.spawn(worker(d, t)) for d, t in [(3, "a"), (9, "b"), (6, "c")]]
    combo = sim.all_of(procs)
    sim.run(until=combo)
    assert sim.now == 9
    assert combo.value == ["a", "b", "c"]


def test_process_exception_propagates():
    sim = Simulator()

    def body():
        yield 1
        raise ValueError("model bug")

    proc = sim.spawn(body())
    with pytest.raises(ValueError, match="model bug"):
        sim.run()
    assert isinstance(proc.failure, ValueError)


def test_finished_flag():
    sim = Simulator()

    def body():
        yield 5

    proc = sim.spawn(body())
    assert not proc.finished
    sim.run()
    assert proc.finished


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def ping():
        for _ in range(3):
            log.append(("ping", sim.now))
            yield 2

    def pong():
        for _ in range(3):
            log.append(("pong", sim.now))
            yield 2

    sim.spawn(ping())
    sim.spawn(pong())
    sim.run()
    # Spawn order decides same-cycle order: ping always before pong.
    assert log == [
        ("ping", 0), ("pong", 0),
        ("ping", 2), ("pong", 2),
        ("ping", 4), ("pong", 4),
    ]


def test_yield_from_subroutine_composition():
    sim = Simulator()
    log = []

    def sub(n):
        yield n
        return n * 2

    def body():
        a = yield from sub(3)
        b = yield from sub(4)
        log.append((sim.now, a + b))

    sim.spawn(body())
    sim.run()
    assert log == [(7, 14)]


def test_named_processes_get_default_names():
    sim = Simulator()

    def body():
        yield 1

    p1 = sim.spawn(body())
    p2 = sim.spawn(body(), name="custom")
    assert p1.name == "process-1"
    assert p2.name == "custom"
    sim.run()


def test_close_ends_a_parked_body_and_forgets_its_wait():
    sim = Simulator()
    never = sim.event(name="never")
    ended = []

    def body():
        try:
            yield never
        finally:
            ended.append(sim.now)

    process = sim.spawn(body())
    sim.run()
    assert process.waiting_on is never
    process.close()
    assert ended == [0]
    assert process.waiting_on is None
    assert process not in sim.live_processes


def test_a_stale_wakeup_finishes_a_closed_process():
    sim = Simulator()

    def body():
        yield 10
        raise AssertionError("a closed body never resumes")

    process = sim.spawn(body())
    sim.run(until=5)
    process.close()
    sim.run()
    assert process.finished and process.value is None
