"""GEMV: ``y = A @ x`` with row-sliced work distribution.

Work items are *matrix rows*: a slice of ``r`` rows moves ``r·n`` matrix
elements plus the full ``x`` vector in, and ``r`` results out.  Unlike
the element-wise kernels, per-item compute cost depends on ``n``, which
exercises the generalized runtime-model fit (the memory and compute
coefficients both scale with ``n``).
"""

from __future__ import annotations

from repro.kernels.base import Kernel, KernelTiming, SliceBytes, WorkSlice


class GemvKernel(Kernel):
    """Double-precision dense matrix-vector product over row slices."""

    name = "gemv"
    scalar_names = ()
    input_names = ("A", "x")
    output_names = ("y",)
    #: Rates are per MAC; :meth:`work` makes a row ``n`` of them.
    timing = KernelTiming(setup_cycles=30, cpe_num=3, cpe_den=2)
    host_timing = KernelTiming(setup_cycles=16, cpe_num=4, cpe_den=1)
    slice_bytes_in = SliceBytes(per_item_n=8, fixed_n=8)
    slice_bytes_out = SliceBytes(per_item=8)

    def input_length(self, name: str, n: int) -> int:
        self._check_name(name, self.input_names, "input")
        return n * n if name == "A" else n

    def compute_slice(self, n, scalars, inputs, work: WorkSlice):
        matrix = inputs["A"].reshape(n, n)[work.lo:work.hi, :]
        return {"y": (work.lo, matrix @ inputs["x"])}

    def work(self, elements, n):
        """A row is ``n`` MACs."""
        return elements * n
