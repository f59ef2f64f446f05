"""DAXPY: ``y = a*x + y`` — the paper's kernel.

Per-cluster working set for a slice of ``e`` elements: ``x`` and ``y``
slices in (16·e bytes), updated ``y`` slice out (8·e bytes).  Summed
over all clusters that is 16·N bytes of inbound DMA — the origin of the
paper's ``N/4`` term over a 64 B/cycle channel — plus 8·N outbound
(see DESIGN.md §2 on the write-back deviation).

Per-core compute rate: 2.6 cycles/element (13 cycles per 5 elements),
the rate behind Eq. 1's ``2.6·N/(M·8)`` term.
"""

from __future__ import annotations

import typing

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class DaxpyKernel(Kernel):
    """Double-precision ``y = a*x + y``."""

    name = "daxpy"
    tileable = True
    scalar_names = ("a",)
    input_names = ("x", "y")
    output_names = ("y",)
    timing = KernelTiming(setup_cycles=22, cpe_num=13, cpe_den=5)
    host_timing = KernelTiming(setup_cycles=14, cpe_num=4, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item=16)
    slice_bytes_out = SliceBytes(per_item=8)

    def output_alias(self, name: str) -> typing.Optional[str]:
        self._check_name(name, self.output_names, "output")
        return "y"

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        a = scalars["a"]
        x = inputs["x"][work.lo:work.hi]
        y = inputs["y"][work.lo:work.hi]
        return {"y": (work.lo, a * x + y)}
