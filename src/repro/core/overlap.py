"""Co-operative heterogeneous execution: host works while the fabric does.

The plain offload leaves the host idle (or polling) for the job's whole
duration.  Real heterogeneous applications overlap: dispatch the
accelerator job, run host-side work (another kernel, control logic),
and synchronize only when the host actually needs the result.
:func:`offload_overlapped` runs exactly that pattern and measures how
much of the host work the offload hides — up to the full accelerator
runtime, for free.

This composes the pieces the reproduction already has: the staging
layer (:class:`repro.core.staging.JobBinding` binds both the
accelerator job and the host job), the offload protocol
(:mod:`repro.runtime.protocol`), host kernel execution
(:mod:`repro.runtime.hostexec`), and the level-pending interrupt
semantics that make "IRQ arrived while the host was busy" race-free.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy

from repro.core.staging import (
    DEFAULT_MAX_CYCLES,
    JobBinding,
    JobRequest,
    launch,
    released_memory,
)
from repro.runtime.protocol import make_runtime
from repro.runtime.hostexec import host_kernel_work
from repro.soc.manticore import ManticoreSystem


@dataclasses.dataclass(frozen=True)
class OverlappedResult:
    """One offload overlapped with host-side work."""

    accel_kernel: str
    host_kernel: str
    total_cycles: int
    host_work_cycles: int
    accel_outputs: typing.Mapping[str, numpy.ndarray]
    host_outputs: typing.Mapping[str, numpy.ndarray]
    verified: typing.Optional[bool]

    @property
    def exposed_wait_cycles(self) -> int:
        """Cycles the host still waited after finishing its own work."""
        return self.total_cycles - self._host_done_offset

    # Stored via object.__setattr__ in the factory; kept private so the
    # public surface stays the two derived properties.
    _host_done_offset: int = 0

    def __str__(self) -> str:
        return (f"{self.accel_kernel} offload overlapped with host "
                f"{self.host_kernel}: {self.total_cycles} cycles "
                f"({self.exposed_wait_cycles} exposed wait)")


def offload_overlapped(system: ManticoreSystem, accel_kernel: str,
                       accel_n: int, num_clusters: int, host_kernel: str,
                       host_n: int,
                       accel_scalars: typing.Optional[dict] = None,
                       host_scalars: typing.Optional[dict] = None,
                       variant: str = "auto", seed: int = 0,
                       verify: bool = True,
                       max_cycles: int = DEFAULT_MAX_CYCLES
                       ) -> OverlappedResult:
    """Dispatch an accelerator job, run a host kernel meanwhile, wait.

    Returns measured totals plus both jobs' outputs (each verified
    against its kernel's reference when ``verify``).
    """
    runtime = make_runtime(system, variant)

    # Check both jobs before staging either, then stage the
    # accelerator job first (descriptor and completion resources
    # included), then the host job's operands.
    accel_request = JobRequest.offload(
        system.config, accel_kernel, accel_n, num_clusters,
        scalars=accel_scalars, seed=seed)
    host_request = JobRequest.host(host_kernel, host_n,
                                   scalars=host_scalars, seed=seed + 1)
    with released_memory(system):
        accel = JobBinding.stage(system, accel_request, runtime)
        host_job = JobBinding.stage(system, host_request)
        hkernel = host_job.kernel

        host_work = functools.partial(
            host_kernel_work, system, hkernel, host_n, host_job.scalars,
            host_job.input_addrs, host_job.output_addrs)

        result_box = launch(runtime, [accel], "offload.overlapped",
                            max_cycles, host_work=host_work)

        accel_outputs, accel_verified = accel.finish(verify)
        host_outputs, _host_verified = host_job.finish(verify)
    verified = True if accel_verified else None

    total = result_box["end_cycle"] - result_box["start_cycle"]
    host_done = result_box["host_work_done_cycle"] - result_box["start_cycle"]
    result = OverlappedResult(
        accel_kernel=accel_kernel, host_kernel=host_kernel,
        total_cycles=total,
        host_work_cycles=hkernel.host_timing.cycles(
            hkernel.work(host_n, host_n)),
        accel_outputs=accel_outputs, host_outputs=host_outputs,
        verified=verified, _host_done_offset=host_done)
    return result
