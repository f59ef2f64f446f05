"""Property test: one byte declaration answers ints and arrays alike.

Every kernel's :class:`~repro.kernels.base.SliceBytes` is evaluated
once over the bounds of all ``split_range(n, M)`` slices as arrays —
the batch planner's use — and must equal the per-slice scalar calls
the event path makes, each of which must be a plain Python ``int``.
"""

import hypothesis
import hypothesis.strategies as st
import numpy
import pytest

from repro.kernels.base import split_range
from repro.kernels.registry import get_kernel, kernel_names

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)


@pytest.mark.parametrize("name", kernel_names())
@pytest.mark.parametrize("direction", ["slice_bytes_in", "slice_bytes_out"])
@SETTINGS
@hypothesis.given(n=st.integers(min_value=1, max_value=300),
                  m=st.integers(min_value=1, max_value=33))
def test_array_evaluation_equals_scalar_calls(name, direction, n, m):
    traffic = getattr(get_kernel(name), direction)
    slices = split_range(n, m)
    scalar = [traffic(work.lo, work.hi, n) for work in slices]
    assert all(type(value) is int for value in scalar)
    lo = numpy.array([work.lo for work in slices], dtype=numpy.int64)
    hi = numpy.array([work.hi for work in slices], dtype=numpy.int64)
    # The planner passes N as a broadcast array, one entry per row.
    for size in (n, numpy.full_like(lo, n)):
        vector = traffic(lo, hi, size)
        assert vector.dtype == numpy.int64
        assert vector.tolist() == scalar
