"""The staging layer: binding one job's operands to a system.

Every launch shape — a plain offload, a host-executed job, an
overlapped pair, a space-shared concurrent batch — prepares jobs the
same way: validate the request, generate or check the input buffers,
stage them into main memory, allocate outputs (resolving in-place
aliases), allocate the completion flag, encode the descriptor, and —
after the run — collect and verify the outputs.  :class:`JobRequest`
holds the checks, which allocate nothing, and :class:`JobBinding` the
rest of that lifecycle, so the launch entry points in
:mod:`repro.core.offload`, :mod:`repro.core.overlap` and
:mod:`repro.core.concurrent` compose them instead of duplicating them.
A launch of several jobs checks every one before it stages the first.

Allocation order is part of the measured contract: operand addresses
feed the interconnect's routing and the completion flag's watchpoint
fast path, so :meth:`JobBinding.stage` performs its allocations in
exactly the historical order (inputs, outputs, flag, descriptor) —
bindings are bit-identical to the code they replaced (asserted by
``tests/integration/test_cycle_identity.py``).

A system serves one job after another at constant cost.  Every entry
point stages inside :func:`released_memory`, which frees the job's
allocations once its outputs are collected, and :func:`run_program`
starts each run with an empty trace and NoC transaction log, so
neither memory nor the logs grow with the jobs a system has served.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing

import numpy

from repro import abi
from repro.errors import (
    CycleLimitError,
    DeadlockError,
    OffloadError,
    annotated,
)
from repro.kernels.base import Kernel, slice_bounds
from repro.kernels.registry import get_kernel
from repro.soc.manticore import ManticoreSystem
from repro.soc.tiles import ClusterSpan

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.runtime.protocol import OffloadRuntime
    from repro.soc.config import SoCConfig

#: Simulation-cycle guard against runaway offloads (a 1024-element DAXPY
#: takes around a thousand cycles; nothing sane needs a billion).
DEFAULT_MAX_CYCLES = 1_000_000_000

#: ``exec_mode`` argument values accepted by the offload entry points.
EXEC_MODES = {
    "phased": abi.EXEC_MODE_PHASED,
    "double_buffered": abi.EXEC_MODE_DOUBLE_BUFFERED,
}


# ----------------------------------------------------------------------
# Building blocks (validation, staging, run, verification)
# ----------------------------------------------------------------------
def check_offload_shape(kernel: Kernel, n: int, span: ClusterSpan,
                        double_buffered: bool = False) -> None:
    """Validate that a job's widest slice fits its span's scratchpads.

    The TCDM capacity check binds against the *smallest* scratchpad in
    the span, which for homogeneous fabrics is exactly the config's
    ``tcdm_bytes``.  Chunking divides the working set, so a
    double-buffered slice never has to fit whole; the device runtime
    re-checks its chosen chunk pair.
    """
    footprint = kernel.slice_tcdm_bytes(*slice_bounds(n, span.count, 0), n)
    if not double_buffered and footprint > span.tcdm_bytes:
        raise OffloadError(
            f"{kernel.name}(n={n}) on {span.count} clusters needs "
            f"{footprint} bytes of TCDM per cluster but only "
            f"{span.tcdm_bytes} are available; increase num_clusters "
            "or shrink the job (or use exec_mode='double_buffered')")


def prepare_inputs(kernel: Kernel, n: int,
                   inputs: typing.Optional[
                       typing.Mapping[str, numpy.ndarray]],
                   seed: int) -> typing.Dict[str, numpy.ndarray]:
    """Generate deterministic inputs, or validate caller-provided ones.

    Generated inputs are drawn afresh from ``seed`` on every call.
    """
    if inputs is None:
        return kernel.make_inputs(n, numpy.random.default_rng(seed))
    prepared = {}
    for name in kernel.input_names:
        if name not in inputs:
            raise OffloadError(f"missing input buffer {name!r}")
        array = numpy.asarray(inputs[name], dtype=numpy.float64)
        expected = kernel.input_length(name, n)
        if array.size != expected:
            raise OffloadError(
                f"input {name!r} has {array.size} elements, "
                f"kernel {kernel.name!r} expects {expected} for n={n}")
        prepared[name] = array
    return prepared


def run_to_completion(system: ManticoreSystem, process,
                      max_cycles: int) -> None:
    """Run the simulation until ``process`` finishes, or fail loudly.

    Both failure modes re-raise as :class:`~repro.errors.OffloadError`
    with the kernel's :class:`~repro.sim.SimulationReport` (which
    process is blocked on what, plus the trace tail) carried through on
    the ``report`` attribute and quoted in the message.  Either way
    the program is closed first (the report already describes it): it
    will never be resumed, and its frame holds the system, which would
    otherwise keep a dropped system alive in a reference cycle.
    """
    try:
        system.sim.run(until=process, max_cycles=max_cycles)
    except (CycleLimitError, DeadlockError) as err:
        process.close()
        if isinstance(err, CycleLimitError):
            reason = (f"offload exceeded {max_cycles} cycles; the completion "
                      "protocol likely deadlocked")
        else:
            reason = ("simulation ran out of events before the offload "
                      "completed (lost doorbell or completion signal)")
        report = getattr(err, "report", None)
        raise annotated(OffloadError(
            reason + (f"\n{report.describe()}" if report is not None else "")),
            report=report) from None


@contextlib.contextmanager
def released_memory(system: ManticoreSystem) -> typing.Iterator[None]:
    """Free every main-memory allocation the block makes when it exits.

    Entry points stage, run, and collect (and verify) their jobs inside
    the block; on the way out, pass or fail, the allocator is zeroed and
    rewound to where it stood on entry.  A run cut short (a cycle-limit
    abort leaves callbacks queued that may still write memory) keeps
    its allocations: the clock moved and the queue did not drain.
    """
    memory, sim = system.memory, system.sim
    mark, entered = memory.mark(), sim.now
    try:
        yield
    finally:
        if not sim.pending or sim.now == entered:
            memory.release(mark)


def run_program(system: ManticoreSystem,
                build: typing.Callable[[typing.Dict[str, int]],
                                       typing.Generator],
                name: str, max_cycles: int) -> typing.Dict[str, int]:
    """Run one host program to completion; return its result box.

    The one run body behind every entry point — :func:`launch` and
    :func:`repro.core.offload.run_on_host`.  ``build(result)`` returns
    the host program, which records ``start_cycle`` and ``end_cycle``
    into ``result``.  The previous run drained before this one starts,
    so the system's trace and NoC transaction log are cleared first:
    both hold this run only.  After the program ends, the system drains
    in-flight responses so memory state settles, and the trace merges
    the records the DM cores stamped ahead
    (:meth:`~repro.sim.TraceRecorder.merge_due`), so its ``records``
    list holds the whole run.
    """
    system.trace.clear()
    system.noc.clear_log()
    result: typing.Dict[str, int] = {}
    process = system.host.run_program(build(result), name=name)
    run_to_completion(system, process, max_cycles)
    system.run()
    system.trace.merge_due()
    if "end_cycle" not in result:
        raise OffloadError(f"host program {name!r} finished without "
                           "recording completion (runtime bug)")
    return result


def launch(runtime: "OffloadRuntime", bindings: typing.Sequence["JobBinding"],
           name: str, max_cycles: int,
           host_work: typing.Optional[
               typing.Callable[[], typing.Generator]] = None,
           ) -> typing.Dict[str, int]:
    """Launch bound jobs in one :meth:`~repro.runtime.protocol.
    OffloadRuntime.launch_program` and run it (see :func:`run_program`).
    """
    jobs = [(binding.desc, binding.desc_addr) for binding in bindings]
    flag_addrs = [binding.flag_addr for binding in bindings
                  if binding.flag_addr is not None]
    return run_program(
        runtime.system,
        lambda result: runtime.launch_program(
            jobs, flag_addrs or None, result, host_work=host_work),
        name, max_cycles)


def verify_outputs(kernel: Kernel, n: int, num_clusters: int,
                   scalars, inputs, outputs) -> None:
    """Check measured outputs against the kernel's reference model."""
    expected = kernel.reference(n, scalars, inputs, num_clusters)
    for name, want in expected.items():
        got = outputs[name]
        if not numpy.allclose(got, want, rtol=1e-10, atol=1e-12):
            worst = int(numpy.argmax(numpy.abs(got - want)))
            raise OffloadError(
                f"{kernel.name} output {name!r} mismatches the reference "
                f"(first/worst at index {worst}: got {got[worst]}, "
                f"want {want[worst]})")


def resolve_scalars(kernel: Kernel,
                    scalars: typing.Optional[typing.Mapping[str, float]]
                    ) -> typing.Dict[str, float]:
    """Default every kernel scalar to 1.0 when the caller gave none."""
    if scalars:
        return dict(scalars)
    return {name: 1.0 for name in kernel.scalar_names}


# ----------------------------------------------------------------------
# The checked request and the binding object
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class JobRequest:
    """One job request that passed every check, with nothing allocated.

    Built by :meth:`offload` (an offloaded job: kernel, scalars, exec
    mode, span and TCDM fit, inputs) or :meth:`host` (a host-executed
    job: kernel, scalars, inputs).  Checking allocates nothing in the
    system, so a launch of several jobs checks them all before it
    stages any, and a refused launch leaves memory as it found it.
    """

    kernel: Kernel
    n: int
    scalars: typing.Dict[str, float]
    inputs: typing.Dict[str, numpy.ndarray]
    #: The clusters an offloaded job occupies; ``None`` on the host.
    span: typing.Optional[ClusterSpan] = None
    exec_mode: str = "phased"

    @classmethod
    def offload(cls, config: "SoCConfig", kernel_name: str, n: int,
                num_clusters: int,
                scalars: typing.Optional[typing.Mapping[str, float]] = None,
                inputs: typing.Optional[
                    typing.Mapping[str, numpy.ndarray]] = None,
                seed: int = 0, exec_mode: str = "phased",
                tile_group: typing.Optional[str] = None,
                first_cluster: int = 0) -> "JobRequest":
        """Check one offloaded job; it occupies ``config.cluster_span(
        num_clusters, tile_group, first_cluster)``."""
        kernel = get_kernel(kernel_name)
        scalars = resolve_scalars(kernel, scalars)
        kernel.validate(n, scalars)
        if exec_mode not in EXEC_MODES:
            raise OffloadError(
                f"unknown exec mode {exec_mode!r}; available: "
                f"{', '.join(sorted(EXEC_MODES))}")
        if exec_mode == "double_buffered":
            for name in kernel.output_names:
                if kernel.output_length(name, n, num_clusters) != n:
                    raise OffloadError(
                        f"double buffering requires an element-wise kernel; "
                        f"{kernel_name!r} output {name!r} depends on the "
                        "offload shape")
        span = config.cluster_span(num_clusters, tile_group, first_cluster,
                                   kernel)
        check_offload_shape(kernel, n, span,
                            double_buffered=(exec_mode == "double_buffered"))
        return cls(kernel=kernel, n=n, scalars=scalars,
                   inputs=prepare_inputs(kernel, n, inputs, seed),
                   span=span, exec_mode=exec_mode)

    @classmethod
    def host(cls, kernel_name: str, n: int,
             scalars: typing.Optional[typing.Mapping[str, float]] = None,
             inputs: typing.Optional[
                 typing.Mapping[str, numpy.ndarray]] = None,
             seed: int = 0) -> "JobRequest":
        """Check one job the host core will run itself (no span: the
        host streams from shared memory)."""
        kernel = get_kernel(kernel_name)
        scalars = resolve_scalars(kernel, scalars)
        kernel.validate(n, scalars)
        return cls(kernel=kernel, n=n, scalars=scalars,
                   inputs=prepare_inputs(kernel, n, inputs, seed))


@dataclasses.dataclass
class JobBinding:
    """One job's operands, staged into a system and ready to launch.

    Built by :meth:`stage` from a checked :class:`JobRequest` —
    :meth:`bind` and :meth:`bind_host` check and stage one job in a
    single call.  After the run, :meth:`collect_outputs` reads the
    output buffers back and :meth:`verify` checks them against the
    kernel's reference model.
    """

    system: ManticoreSystem
    kernel: Kernel
    n: int
    num_clusters: int
    scalars: typing.Dict[str, float]
    inputs: typing.Dict[str, numpy.ndarray]
    input_addrs: typing.Dict[str, int]
    output_addrs: typing.Dict[str, int]
    #: Completion-flag address (flag-based completion only).
    flag_addr: typing.Optional[int] = None
    #: Encoded job descriptor (offloaded jobs only).
    desc: typing.Optional[abi.JobDescriptor] = None
    #: Where the descriptor lives in shared memory (offloaded only).
    desc_addr: typing.Optional[int] = None

    @classmethod
    def bind(cls, system: ManticoreSystem, runtime: "OffloadRuntime",
             kernel_name: str, n: int, num_clusters: int,
             scalars: typing.Optional[typing.Mapping[str, float]] = None,
             inputs: typing.Optional[
                 typing.Mapping[str, numpy.ndarray]] = None,
             seed: int = 0, exec_mode: str = "phased",
             tile_group: typing.Optional[str] = None,
             first_cluster: int = 0) -> "JobBinding":
        """Check (:meth:`JobRequest.offload`) and :meth:`stage` one
        offloaded job."""
        request = JobRequest.offload(
            system.config, kernel_name, n, num_clusters, scalars=scalars,
            inputs=inputs, seed=seed, exec_mode=exec_mode,
            tile_group=tile_group, first_cluster=first_cluster)
        return cls.stage(system, request, runtime)

    @classmethod
    def bind_host(cls, system: ManticoreSystem, kernel_name: str, n: int,
                  scalars: typing.Optional[
                      typing.Mapping[str, float]] = None,
                  inputs: typing.Optional[
                      typing.Mapping[str, numpy.ndarray]] = None,
                  seed: int = 0) -> "JobBinding":
        """Check (:meth:`JobRequest.host`) and :meth:`stage` one
        host-executed job."""
        return cls.stage(system, JobRequest.host(
            kernel_name, n, scalars=scalars, inputs=inputs, seed=seed))

    @classmethod
    def stage(cls, system: ManticoreSystem, request: JobRequest,
              runtime: typing.Optional["OffloadRuntime"] = None
              ) -> "JobBinding":
        """Stage a checked request into ``system``'s memory.

        Every job gets operand staging (inputs, then outputs with
        in-place aliases resolved).  An offloaded job (one with a span;
        ``runtime`` is then required) also gets its completion resource
        from the runtime's completion strategy, its encoded descriptor
        and its descriptor slot — in exactly that order.
        """
        kernel, n, span = request.kernel, request.n, request.span
        num_clusters = 1 if span is None else span.count
        memory = system.memory
        input_addrs, output_addrs = cls._stage_operands(
            memory, kernel, n, num_clusters, request.inputs)
        binding = cls(system=system, kernel=kernel, n=n,
                      num_clusters=num_clusters, scalars=request.scalars,
                      inputs=request.inputs, input_addrs=input_addrs,
                      output_addrs=output_addrs)
        if span is None:
            return binding

        if runtime.completion_strategy.uses_flag:
            binding.flag_addr = memory.alloc(8)
        binding.desc = abi.JobDescriptor(
            kernel_name=kernel.name, n=n, num_clusters=num_clusters,
            first_cluster=span.first, sync_mode=runtime.sync_mode,
            completion_addr=runtime.completion_addr(binding.flag_addr),
            exec_mode=EXEC_MODES[request.exec_mode],
            scalars=request.scalars, input_addrs=input_addrs,
            output_addrs=output_addrs)
        binding.desc_addr = memory.alloc(8 * max(binding.desc.words, 8),
                                         align=64)
        return binding

    @staticmethod
    def _stage_operands(memory, kernel: Kernel, n: int, num_clusters: int,
                        inputs: typing.Mapping[str, numpy.ndarray]
                        ) -> typing.Tuple[typing.Dict[str, int],
                                          typing.Dict[str, int]]:
        """Allocate and fill inputs, then allocate (or alias) outputs."""
        input_addrs = {}
        for name in kernel.input_names:
            addr = memory.alloc_f64(kernel.input_length(name, n))
            memory.write_f64(addr, inputs[name])
            input_addrs[name] = addr
        output_addrs = {}
        for name in kernel.output_names:
            alias = kernel.output_alias(name)
            if alias is not None:
                output_addrs[name] = input_addrs[alias]
            else:
                output_addrs[name] = memory.alloc_f64(
                    kernel.output_length(name, n, num_clusters))
        return input_addrs, output_addrs

    # ------------------------------------------------------------------
    # Post-run collection and verification
    # ------------------------------------------------------------------
    def collect_outputs(self) -> typing.Dict[str, numpy.ndarray]:
        """Read every output buffer back from main memory."""
        memory = self.system.memory
        return {
            name: memory.read_f64(
                self.output_addrs[name],
                self.kernel.output_length(name, self.n, self.num_clusters))
            for name in self.kernel.output_names
        }

    def verify(self, outputs: typing.Mapping[str, numpy.ndarray]) -> None:
        """Check collected outputs against the kernel's reference model."""
        verify_outputs(self.kernel, self.n, self.num_clusters, self.scalars,
                       self.inputs, outputs)

    def finish(self, verify: bool) -> typing.Tuple[
            typing.Dict[str, numpy.ndarray], typing.Optional[bool]]:
        """Collect outputs and optionally verify them in one step.

        Returns ``(outputs, verified)`` where ``verified`` is ``True``
        after a successful check and ``None`` when skipped — the shape
        every result dataclass records.
        """
        outputs = self.collect_outputs()
        if not verify:
            return outputs, None
        self.verify(outputs)
        return outputs, True
