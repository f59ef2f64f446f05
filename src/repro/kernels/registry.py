"""Kernel registry: name-based lookup for runtimes, CLI and experiments."""

from __future__ import annotations

import typing

from repro.errors import KernelError
from repro.kernels.axpby import AxpbyKernel
from repro.kernels.base import Kernel, SliceBytes
from repro.kernels.daxpy import DaxpyKernel
from repro.kernels.dot import DotKernel
from repro.kernels.gemv import GemvKernel
from repro.kernels.memcpy import MemcpyKernel
from repro.kernels.relu import ReluKernel
from repro.kernels.saxpy import SaxpyKernel
from repro.kernels.scale import ScaleKernel
from repro.kernels.stencil3 import Stencil3Kernel
from repro.kernels.vecsum import VecsumKernel

_REGISTRY: typing.Dict[str, Kernel] = {}
#: ``sorted(_REGISTRY)``, rebuilt whenever the registry changes: the
#: ABI maps kernel ids through it on every descriptor a DM core decodes.
_NAMES: typing.Tuple[str, ...] = ()


def register_kernel(kernel: Kernel) -> Kernel:
    """Add a kernel instance to the registry.

    Names must be unique, and the kernel must declare its slice traffic
    as :class:`~repro.kernels.base.SliceBytes` in both directions.
    """
    if not kernel.name:
        raise KernelError("kernel has no name")
    for attr in ("slice_bytes_in", "slice_bytes_out"):
        if not isinstance(getattr(kernel, attr, None), SliceBytes):
            raise KernelError(
                f"kernel {kernel.name!r} does not declare {attr} as "
                "SliceBytes")
    if kernel.name in _REGISTRY:
        raise KernelError(f"kernel {kernel.name!r} already registered")
    _REGISTRY[kernel.name] = kernel
    _rebuild_names()
    return kernel


def unregister_kernel(name: str) -> None:
    """Remove a kernel from the registry (no-op if absent).

    Kernel ids are indices into the sorted names, so removing a kernel
    renumbers every kernel after it; only tests that registered a
    temporary kernel should call this.
    """
    if _REGISTRY.pop(name, None) is not None:
        _rebuild_names()


def _rebuild_names() -> None:
    global _NAMES
    _NAMES = tuple(sorted(_REGISTRY))


def get_kernel(name: str) -> Kernel:
    """Look a kernel up by name.

    Raises
    ------
    KernelError
        If no kernel has that name (the message lists what exists).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; available: {', '.join(kernel_names())}"
        ) from None


def kernel_names() -> typing.Tuple[str, ...]:
    """Registered kernel names, sorted."""
    return _NAMES


for _kernel_class in (DaxpyKernel, SaxpyKernel, AxpbyKernel, MemcpyKernel,
                      ScaleKernel, VecsumKernel, DotKernel, GemvKernel,
                      Stencil3Kernel, ReluKernel):
    register_kernel(_kernel_class())
