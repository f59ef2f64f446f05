"""AXPBY: ``y = a*x + b*y`` — a heavier element-wise cousin of DAXPY."""

from __future__ import annotations

import typing

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class AxpbyKernel(Kernel):
    """Double-precision ``y = a*x + b*y``.

    Same traffic as DAXPY; one extra multiply per element puts the
    per-core rate at 3 cycles/element.
    """

    name = "axpby"
    tileable = True
    scalar_names = ("a", "b")
    input_names = ("x", "y")
    output_names = ("y",)
    timing = KernelTiming(setup_cycles=24, cpe_num=3, cpe_den=1)
    host_timing = KernelTiming(setup_cycles=14, cpe_num=5, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=16)
    slice_bytes_out = SliceBytes(per_item=8)

    def output_alias(self, name: str) -> typing.Optional[str]:
        self._check_name(name, self.output_names, "output")
        return "y"

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        a, b = scalars["a"], scalars["b"]
        x = inputs["x"][work.lo:work.hi]
        y = inputs["y"][work.lo:work.hi]
        return {"y": (work.lo, a * x + b * y)}
