"""Scale: ``y = a*x`` — one multiply per element, out of place."""

from __future__ import annotations

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class ScaleKernel(Kernel):
    """Double-precision ``y = a*x``."""

    name = "scale"
    tileable = True
    scalar_names = ("a",)
    input_names = ("x",)
    output_names = ("y",)
    timing = KernelTiming(setup_cycles=18, cpe_num=3, cpe_den=2)
    host_timing = KernelTiming(setup_cycles=12, cpe_num=3, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=8)
    slice_bytes_out = SliceBytes(per_item=8)

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        return {"y": (work.lo, scalars["a"] * inputs["x"][work.lo:work.hi])}
