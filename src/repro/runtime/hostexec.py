"""Host-side kernel execution: the "don't offload" alternative.

The offload decision the paper motivates is only meaningful against a
measured alternative: the host core running the kernel itself.  This
module builds the host program for that path — a timed single-core loop
over the job using each kernel's calibrated host rate — so experiments
can *measure* both sides of the decision on the same simulated system
instead of assuming a host model.

Functional behaviour is identical to an offload (same outputs, checked
against the same reference); only the timing differs: no dispatch, no
DMA staging, no completion synchronization — just the host's slower,
cache-warm loop.
"""

from __future__ import annotations

import typing

from repro.kernels.base import Kernel, WorkSlice
from repro.soc.manticore import ManticoreSystem


def host_kernel_work(system: ManticoreSystem, kernel: Kernel, n: int,
                     scalars: typing.Mapping[str, float],
                     input_addrs: typing.Mapping[str, int],
                     output_addrs: typing.Mapping[str, int]
                     ) -> typing.Generator:
    """Run ``kernel`` over all ``n`` items on the host core.

    Charges the host loop, ``host_timing.cycles(kernel.work(n, n))``,
    then reads the inputs and writes the outputs to main memory like an
    offload would, so callers read them back the same way.
    """
    memory = system.memory
    yield from system.host.execute(
        kernel.host_timing.cycles(kernel.work(n, n)))
    inputs = {
        name: memory.read_f64(addr, kernel.input_length(name, n))
        for name, addr in input_addrs.items()
    }
    # The host runs the whole job as one slice; in-place outputs
    # start from their aliased input's contents.
    work = WorkSlice(index=0, lo=0, hi=n)
    for name in kernel.output_names:
        alias = kernel.output_alias(name)
        if alias is not None:
            length = kernel.output_length(name, n, 1)
            memory.write_f64(output_addrs[name], inputs[alias][:length])
    for name, (start, values) in kernel.compute_slice(
            n, scalars, inputs, work).items():
        memory.write_f64(output_addrs[name] + 8 * start, values)


def host_kernel_program(system: ManticoreSystem, kernel: Kernel, n: int,
                        scalars: typing.Mapping[str, float],
                        input_addrs: typing.Mapping[str, int],
                        output_addrs: typing.Mapping[str, int],
                        result: typing.Dict[str, int]) -> typing.Generator:
    """The host program executing one kernel locally.

    ``result`` receives ``start_cycle`` and ``end_cycle``.
    """
    result["start_cycle"] = system.sim.now
    system.trace.record("host", "host_exec_start", kernel.name)
    yield from host_kernel_work(system, kernel, n, scalars, input_addrs,
                                output_addrs)
    system.trace.record("host", "host_exec_end", kernel.name)
    result["end_cycle"] = system.sim.now
