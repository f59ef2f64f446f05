"""Run one offloaded job end to end and measure it.

:func:`offload` is the package's main entry point: it binds the job to
the simulated SoC through the staging layer
(:class:`repro.core.staging.JobBinding` — operand staging, descriptor
build, completion resources), runs the host's offload routine against
the cluster fabric, checks functional correctness against the kernel's
reference, and returns the measured runtime with a full phase
breakdown.  :func:`run_on_host` measures the offload's rival: the host
core running the same kernel itself.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy

from repro.core.staging import (
    DEFAULT_MAX_CYCLES,
    EXEC_MODES,
    JobBinding,
    launch,
    released_memory,
    run_program,
)
from repro.runtime.protocol import make_runtime
from repro.runtime.trace import OffloadTrace, build_offload_trace
from repro.sim import TraceRecorder
from repro.soc.manticore import ManticoreSystem

__all__ = [
    "DEFAULT_MAX_CYCLES",
    "EXEC_MODES",
    "HostRunResult",
    "OffloadResult",
    "offload",
    "offload_daxpy",
    "run_on_host",
]


@dataclasses.dataclass(frozen=True)
class OffloadResult:
    """One measured offload.

    Its phase breakdown, :attr:`trace`, is built from the run's trace
    records on first read, so an offload that no one inspects (a job
    stream reads only the cycles) never pays for it.
    """

    kernel_name: str
    n: int
    num_clusters: int
    variant: str
    runtime_cycles: int
    start_cycle: int
    end_cycle: int
    outputs: typing.Mapping[str, numpy.ndarray]
    verified: typing.Optional[bool]
    #: A detached copy of the run's trace records (the system's own log
    #: is cleared by its next run), read by :attr:`trace`.
    trace_log: TraceRecorder = dataclasses.field(repr=False, compare=False)
    #: Fabric group the job ran on (``None`` = the whole fabric from
    #: cluster 0, the homogeneous default).
    tile_group: typing.Optional[str] = None

    @functools.cached_property
    def trace(self) -> OffloadTrace:
        """The offload's phase breakdown, built on first read."""
        return build_offload_trace(self.trace_log, self.start_cycle,
                                   self.end_cycle)

    def __str__(self) -> str:
        return (f"{self.kernel_name}(n={self.n}) on {self.num_clusters} "
                f"clusters [{self.variant}]: {self.runtime_cycles} cycles")


def offload(system: ManticoreSystem, kernel_name: str, n: int,
            num_clusters: int,
            scalars: typing.Optional[typing.Mapping[str, float]] = None,
            inputs: typing.Optional[typing.Mapping[str, numpy.ndarray]] = None,
            variant: str = "auto", exec_mode: str = "phased", seed: int = 0,
            verify: bool = True,
            max_cycles: int = DEFAULT_MAX_CYCLES,
            tile_group: typing.Optional[str] = None) -> OffloadResult:
    """Offload one job and return the measured result.

    Parameters
    ----------
    system:
        The SoC to run on.  Reusable across sequential offloads: the
        job's main-memory allocations are freed before this returns,
        and the system's trace and NoC log then hold this run only.
    kernel_name:
        A registered kernel (see :func:`repro.kernels.kernel_names`).
    n:
        Problem size in work items.
    num_clusters:
        Offload width M (clusters ``0..M-1`` participate).
    scalars:
        Kernel scalar arguments; defaults to 1.0 each.
    inputs:
        Input buffers; generated deterministically from ``seed`` if
        omitted.
    variant:
        Runtime variant (``auto`` uses all hardware features present).
    exec_mode:
        Device execution protocol: ``"phased"`` (the paper's — stage,
        compute, write back) or ``"double_buffered"`` (chunked pipeline
        overlapping DMA with compute; element-wise kernels only).
    verify:
        Check outputs against the kernel's reference model and raise
        :class:`OffloadError` on mismatch.
    max_cycles:
        Abort if the simulation exceeds this cycle count.
    tile_group:
        Name of the fabric group to run on; the job targets clusters
        ``[group.start, group.start + M)`` and ``M`` is bounded by the
        group's tile count.  ``None`` (the default) targets the fabric
        from cluster 0 — the homogeneous behaviour.  Either way the
        span is checked before any simulation (see
        :meth:`~repro.soc.config.SoCConfig.cluster_span`).
    """
    runtime = make_runtime(system, variant)
    with released_memory(system):
        binding = JobBinding.bind(
            system, runtime, kernel_name, n, num_clusters, scalars=scalars,
            inputs=inputs, seed=seed, exec_mode=exec_mode,
            tile_group=tile_group)
        result_box = launch(runtime, [binding], f"offload.{kernel_name}",
                            max_cycles)
        outputs, verified = binding.finish(verify)
    return OffloadResult(
        kernel_name=kernel_name, n=n, num_clusters=num_clusters,
        variant=runtime.name,
        runtime_cycles=result_box["end_cycle"] - result_box["start_cycle"],
        start_cycle=result_box["start_cycle"],
        end_cycle=result_box["end_cycle"],
        outputs=outputs, verified=verified, trace_log=system.trace.copy(),
        tile_group=tile_group)


def offload_daxpy(system: ManticoreSystem, n: int, num_clusters: int,
                  a: float = 2.0, **kwargs) -> OffloadResult:
    """Offload the paper's DAXPY kernel: ``y = a*x + y``."""
    return offload(system, "daxpy", n, num_clusters, scalars={"a": a},
                   **kwargs)


@dataclasses.dataclass(frozen=True)
class HostRunResult:
    """One kernel executed by the host core itself (no offload)."""

    kernel_name: str
    n: int
    runtime_cycles: int
    outputs: typing.Mapping[str, numpy.ndarray]
    verified: typing.Optional[bool]

    def __str__(self) -> str:
        return (f"{self.kernel_name}(n={self.n}) on the host: "
                f"{self.runtime_cycles} cycles")


def run_on_host(system: ManticoreSystem, kernel_name: str, n: int,
                scalars: typing.Optional[typing.Mapping[str, float]] = None,
                inputs: typing.Optional[typing.Mapping[str, numpy.ndarray]] = None,
                seed: int = 0, verify: bool = True,
                max_cycles: int = DEFAULT_MAX_CYCLES) -> HostRunResult:
    """Execute a kernel on the host core — the offload's measured rival.

    Same staging and verification as :func:`offload`, but the host runs
    the loop itself (see :mod:`repro.runtime.hostexec`): no dispatch,
    DMA, or completion synchronization is paid, only the host's slower
    single-core rate.  ``max_cycles`` bounds the simulation exactly as
    in :func:`offload`.
    """
    from repro.runtime.hostexec import host_kernel_program

    with released_memory(system):
        binding = JobBinding.bind_host(system, kernel_name, n,
                                       scalars=scalars, inputs=inputs,
                                       seed=seed)
        result_box = run_program(
            system, functools.partial(
                host_kernel_program, system, binding.kernel, n,
                binding.scalars, binding.input_addrs,
                binding.output_addrs),
            f"host.{kernel_name}", max_cycles)
        outputs, verified = binding.finish(verify)
    return HostRunResult(
        kernel_name=kernel_name, n=n,
        runtime_cycles=result_box["end_cycle"] - result_box["start_cycle"],
        outputs=outputs, verified=verified)
