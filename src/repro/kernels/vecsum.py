"""Vector sum reduction: per-cluster partial sums.

Each cluster reduces its slice to one partial and writes it to its slot
in a ``partials`` output of length ``num_slices``; the host (or the
caller) performs the tiny final reduction.  This is the standard
two-level reduction on cluster-based accelerators and exercises the
"output length depends on the offload shape" corner of the job ABI.
"""

from __future__ import annotations

import numpy

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class VecsumKernel(Kernel):
    """Per-slice partial sums of a float64 vector."""

    name = "vecsum"
    scalar_names = ()
    input_names = ("x",)
    output_names = ("partials",)
    timing = KernelTiming(setup_cycles=20, cpe_num=1, cpe_den=1)
    host_timing = KernelTiming(setup_cycles=10, cpe_num=2, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=8)
    slice_bytes_out = SliceBytes(fixed=8)

    def output_length(self, name: str, n: int, num_slices: int) -> int:
        self._check_name(name, self.output_names, "output")
        return num_slices

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        partial = numpy.sum(inputs["x"][work.lo:work.hi])
        return {"partials": (work.index, numpy.array([partial]))}
