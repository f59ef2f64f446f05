"""SAXPY: single-precision ``y = a*x + y``.

Buffers remain float64 *in main memory* (the host ABI stages arguments
as doubles); the DMA moves packed float32 data, so the traffic per
element is half of DAXPY's, and packed-SIMD execution doubles the
per-core rate.  This is the cheap-data point for ablation A3.
"""

from __future__ import annotations

import typing

import numpy

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class SaxpyKernel(Kernel):
    """Single-precision ``y = a*x + y`` (fp32 traffic and SIMD rate)."""

    name = "saxpy"
    tileable = True
    scalar_names = ("a",)
    input_names = ("x", "y")
    output_names = ("y",)
    timing = KernelTiming(setup_cycles=22, cpe_num=13, cpe_den=10)
    host_timing = KernelTiming(setup_cycles=14, cpe_num=3, cpe_den=1)
    #: Two packed fp32 operands in, one out, per element.
    slice_bytes_in = SliceBytes(per_item=8)
    slice_bytes_out = SliceBytes(per_item=4)

    def output_alias(self, name: str) -> typing.Optional[str]:
        self._check_name(name, self.output_names, "output")
        return "y"

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        a = numpy.float32(scalars["a"])
        x = inputs["x"][work.lo:work.hi].astype(numpy.float32)
        y = inputs["y"][work.lo:work.hi].astype(numpy.float32)
        return {"y": (work.lo, (a * x + y).astype(numpy.float64))}
