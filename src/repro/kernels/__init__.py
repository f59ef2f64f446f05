"""Device kernels: the jobs the host offloads to the accelerator.

Each kernel couples two models:

- a *functional* model (NumPy): what the job computes, so simulations
  produce bit-checkable results;
- a *timing* model: per-core compute cycles as a calibrated
  cycles-per-element rate plus a setup cost, the way Snitch-style cores
  execute streaming loops (SSR/FREP: the loop body issues one element
  per ``cpe`` cycles once configured).

DAXPY is the paper's kernel (2.6 cycles/element/core, matching Eq. 1's
``2.6·N/(M·8)`` term).  The others let the experiments show the runtime
model generalizes (ablation A3 in DESIGN.md).
"""

from repro.kernels.base import (
    Kernel, KernelTiming, SliceBytes, WorkSlice, split_range)
from repro.kernels.daxpy import DaxpyKernel
from repro.kernels.axpby import AxpbyKernel
from repro.kernels.dot import DotKernel
from repro.kernels.gemv import GemvKernel
from repro.kernels.memcpy import MemcpyKernel
from repro.kernels.relu import ReluKernel
from repro.kernels.registry import get_kernel, kernel_names, register_kernel
from repro.kernels.saxpy import SaxpyKernel
from repro.kernels.scale import ScaleKernel
from repro.kernels.stencil3 import Stencil3Kernel
from repro.kernels.vecsum import VecsumKernel

__all__ = [
    "AxpbyKernel",
    "DaxpyKernel",
    "DotKernel",
    "GemvKernel",
    "Kernel",
    "KernelTiming",
    "MemcpyKernel",
    "ReluKernel",
    "SaxpyKernel",
    "ScaleKernel",
    "SliceBytes",
    "Stencil3Kernel",
    "VecsumKernel",
    "WorkSlice",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "split_range",
]
