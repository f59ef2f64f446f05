"""Property test: one compute-cost declaration answers ints and arrays.

A kernel's compute cost is one :class:`~repro.kernels.base.KernelTiming`
rate charged on its declared work, ``timing.cycles(kernel.work(e, n))``.
For every registered kernel, under its own timing and under its
``VECWIDE`` rate, one array evaluation over a batch of element counts
must equal the scalar calls the event path makes, each scalar must be a
plain Python ``int``, and both must equal a test-local oracle:
``setup + ceil(num·work / den)``, with no cost for no work, where a
work unit is an element (a MAC for gemv's row of ``n``).
"""

import math

import hypothesis
import hypothesis.strategies as st
import numpy
import pytest

from repro.kernels.registry import get_kernel, kernel_names
from repro.soc.tiles import VECWIDE

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)


def oracle(rate, kernel_name, elements, n):
    setup, num, den = rate
    work = elements * n if kernel_name == "gemv" else elements
    return setup + math.ceil(num * work / den) if work else 0


def _rates(name):
    own = get_kernel(name).timing
    return {"own": (own.setup_cycles, own.cpe_num, own.cpe_den),
            "vecwide": dict(VECWIDE.kernel_rates)[name]}


@pytest.mark.parametrize("name", kernel_names())
@pytest.mark.parametrize("rate_name", ["own", "vecwide"])
@SETTINGS
@hypothesis.given(data=st.data(), n=st.integers(min_value=1, max_value=300))
def test_array_evaluation_equals_scalar_calls_and_oracle(name, rate_name,
                                                         data, n):
    kernel = get_kernel(name)
    timing = (kernel.timing if rate_name == "own"
              else VECWIDE.timing_for(kernel))
    counts = data.draw(st.lists(st.integers(min_value=0, max_value=n),
                                min_size=1, max_size=12))
    expected = [oracle(_rates(name)[rate_name], name, e, n) for e in counts]
    scalar = [timing.cycles(kernel.work(e, n)) for e in counts]
    assert all(type(value) is int for value in scalar)
    assert scalar == expected
    # The planner passes N as a broadcast array, one entry per row.
    array = numpy.array(counts, dtype=numpy.int64)
    for size in (n, numpy.full_like(array, n)):
        vector = timing.cycles(kernel.work(array, size))
        assert vector.dtype == numpy.int64
        assert vector.tolist() == expected
