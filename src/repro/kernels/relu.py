"""ReLU: ``y = max(x, 0)`` — the inference-workload staple."""

from __future__ import annotations

import numpy

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class ReluKernel(Kernel):
    """Element-wise rectifier, computed in place over ``x``."""

    name = "relu"
    tileable = True
    scalar_names = ()
    input_names = ("x",)
    output_names = ("y",)
    timing = KernelTiming(setup_cycles=16, cpe_num=1, cpe_den=1)
    host_timing = KernelTiming(setup_cycles=10, cpe_num=2, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=8)
    slice_bytes_out = SliceBytes(per_item=8)

    def output_alias(self, name: str):
        self._check_name(name, self.output_names, "output")
        return "x"

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        return {"y": (work.lo,
                      numpy.maximum(inputs["x"][work.lo:work.hi], 0.0))}
