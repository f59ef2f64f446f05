"""Memcpy: ``y = x`` — the pure-bandwidth kernel (zero flops)."""

from __future__ import annotations

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class MemcpyKernel(Kernel):
    """Element-wise copy; compute is a 1 cycle/element streaming loop."""

    name = "memcpy"
    tileable = True
    scalar_names = ()
    input_names = ("x",)
    output_names = ("y",)
    timing = KernelTiming(setup_cycles=16, cpe_num=1, cpe_den=1)
    host_timing = KernelTiming(setup_cycles=10, cpe_num=2, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=8)
    slice_bytes_out = SliceBytes(per_item=8)

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        return {"y": (work.lo, inputs["x"][work.lo:work.hi].copy())}
