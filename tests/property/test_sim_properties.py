"""Property-based tests for the simulation kernel."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import SerialResource, Simulator


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
def test_time_is_monotone_over_any_schedule(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda arg: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=30))
def test_same_cycle_callbacks_keep_insertion_order(delays):
    sim = Simulator()
    observed = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda arg, i=index, d=delay: observed.append((d, i)))
    sim.run()
    # Stable sort by delay == execution order.
    assert observed == sorted(observed, key=lambda pair: pair[0])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.integers(min_value=0, max_value=50)),
                min_size=1, max_size=30))
def test_serial_resource_never_overlaps_service(requests):
    """Service intervals are disjoint and total busy time is the sum."""
    sim = Simulator()
    resource = SerialResource(sim, "bus")
    intervals = []

    def requester(arrival, cycles):
        yield arrival
        finish = yield resource.request(cycles)
        intervals.append((finish - cycles, finish))

    for arrival, cycles in requests:
        sim.spawn(requester(arrival, cycles))
    sim.run()
    intervals.sort()
    for (start_a, end_a), (start_b, _end_b) in zip(intervals, intervals[1:]):
        assert end_a <= start_b
    assert resource.busy_cycles == sum(c for _a, c in requests)


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                max_size=20))
def test_process_delays_accumulate_exactly(delays):
    sim = Simulator()

    def body():
        for delay in delays:
            yield delay
        return sim.now

    proc = sim.spawn(body())
    sim.run()
    assert proc.value == sum(delays)


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=10))
def test_all_of_fires_at_latest_child(count, spacing):
    sim = Simulator()
    events = [sim.event() for _ in range(count)]
    for index, event in enumerate(events):
        sim.schedule(index * spacing, lambda arg, e=event: e.trigger(sim.now))
    combo = sim.all_of(events)
    sim.run(until=combo)
    assert sim.now == (count - 1) * spacing
