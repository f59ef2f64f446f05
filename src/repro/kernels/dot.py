"""Dot product: per-cluster partial ``sum(x*y)`` reductions."""

from __future__ import annotations

import numpy

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class DotKernel(Kernel):
    """Per-slice partials of ``dot(x, y)``; the host sums the partials."""

    name = "dot"
    scalar_names = ()
    input_names = ("x", "y")
    output_names = ("partials",)
    timing = KernelTiming(setup_cycles=22, cpe_num=3, cpe_den=2)
    host_timing = KernelTiming(setup_cycles=12, cpe_num=3, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=16)
    slice_bytes_out = SliceBytes(fixed=8)

    def output_length(self, name: str, n: int, num_slices: int) -> int:
        self._check_name(name, self.output_names, "output")
        return num_slices

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        x = inputs["x"][work.lo:work.hi]
        y = inputs["y"][work.lo:work.hi]
        return {"partials": (work.index, numpy.array([numpy.dot(x, y)]))}
