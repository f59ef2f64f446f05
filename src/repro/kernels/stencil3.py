"""3-point stencil: ``y[i] = a*x[i-1] + b*x[i] + c*x[i+1]``.

Boundaries clamp (``x[-1] := x[0]``, ``x[n] := x[n-1]``), the standard
replicated-edge condition.  The interesting offload property is the
*halo*: a cluster's slice needs one extra element on each interior
edge, so inbound DMA traffic slightly exceeds the partition — the
first kernel whose slice traffic is not additive over a partition.
"""

from __future__ import annotations

import numpy

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class Stencil3Kernel(Kernel):
    """Clamped 3-point stencil over a float64 vector."""

    name = "stencil3"
    scalar_names = ("a", "b", "c")
    input_names = ("x",)
    output_names = ("y",)
    timing = KernelTiming(setup_cycles=26, cpe_num=2, cpe_den=1)
    host_timing = KernelTiming(setup_cycles=16, cpe_num=6, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=8, halo=8)
    slice_bytes_out = SliceBytes(per_item=8)

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        x = inputs["x"]
        padded = numpy.concatenate(([x[0]], x, [x[-1]]))
        lo, hi = work.lo, work.hi
        left = padded[lo:hi]          # x[i-1] with clamping
        mid = padded[lo + 1:hi + 1]   # x[i]
        right = padded[lo + 2:hi + 2]  # x[i+1]
        values = (scalars["a"] * left + scalars["b"] * mid
                  + scalars["c"] * right)
        return {"y": (lo, values)}
