"""Kernel base class: the functional + timing contract.

A kernel describes a data-parallel job over ``n`` *work items* (vector
elements for DAXPY-style kernels, matrix rows for GEMV).  The offload
runtime splits ``range(n)`` into one contiguous :class:`WorkSlice` per
cluster; each cluster DMAs its slice's working set in, its 8 compute
cores each process a sub-slice, and results are DMA'd back out.

The contract a kernel implements:

``input_length(name, n)`` / ``output_length(name, n, num_slices)``
    Element counts of the named float64 buffers.
``output_alias(name)``
    If the output is computed in place over an input buffer (DAXPY
    updates ``y``), the input's name; else ``None``.
``slice_bytes_in`` / ``slice_bytes_out``
    Class attributes holding a :class:`SliceBytes` declaration: the DMA
    traffic of slice ``[lo, hi)`` as affine coefficients in the slice
    length and ``n``, plus a per-interior-edge halo.  They drive the
    shared memory channels and the TCDM capacity check, and the same
    declaration answers ``kernel.slice_bytes_in(lo, hi, n)`` for one
    slice (ints) and for a whole sweep's slices at once (arrays).
``compute_slice(n, scalars, inputs, work)``
    The functional math: output fragments with their placement.
``timing`` / ``host_timing`` and ``work(elements, n)``
    Compute cost as one :class:`KernelTiming` rate per core class and
    one declaration of the rate units in ``elements`` work items (the
    items themselves by default; ``n`` MACs per row for GEMV).  Every
    site charges ``timing.cycles(kernel.work(elements, n))``: the
    worker cores, the closed-form compute phase, the batch planner
    (on arrays) and the host (``host_timing`` over all ``n`` items).
    A tile class's rate table rates the same work unit.
"""

from __future__ import annotations

import abc
import dataclasses
import typing

import numpy

from repro.errors import KernelError


@dataclasses.dataclass(frozen=True)
class WorkSlice:
    """A contiguous range of work items assigned to one cluster."""

    index: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise KernelError(f"invalid work slice [{self.lo}, {self.hi})")

    @property
    def elements(self) -> int:
        return self.hi - self.lo

    @property
    def empty(self) -> bool:
        return self.hi == self.lo


def slice_bounds(n, parts, index):
    """Bounds ``(lo, hi)`` of slice ``index`` of :func:`split_range`.

    The block schedule in closed form: with ``base, extra = divmod(n,
    parts)``, slice ``i`` starts at ``i·base + min(i, extra)`` and holds
    ``base + 1`` items if ``i < extra``, else ``base``.  Callers that
    need one or two slices read them here instead of building all
    ``parts``.  ``min`` is written as branch-free arithmetic, so the
    same function returns Python ints for ints and ``int64`` arrays for
    arrays (the batch planner's form).
    """
    base, extra = divmod(n, parts)
    first = index < extra
    lo = index * base + extra + (index - extra) * first
    return lo, lo + base + first


def split_range(n: int, parts: int) -> typing.List[WorkSlice]:
    """Split ``range(n)`` into ``parts`` contiguous, balanced slices.

    The first ``n % parts`` slices get one extra element, matching the
    static block schedule the device runtime uses (see
    :func:`slice_bounds`).  Empty slices are legal (more clusters than
    work items) and clusters receiving one simply report completion
    immediately.
    """
    if n < 0:
        raise KernelError(f"cannot split a negative range ({n})")
    if parts <= 0:
        raise KernelError(f"cannot split into {parts} parts")
    return [WorkSlice(index, *slice_bounds(n, parts, index))
            for index in range(parts)]


@dataclasses.dataclass(frozen=True)
class KernelTiming:
    """Per-core streaming-loop timing: ``setup + ceil(num·w / den)``.

    ``num/den`` is the steady-state cycles per unit of work ``w`` (see
    :meth:`Kernel.work`; DAXPY's published rate is 13/5 = 2.6 cycles
    per element per core); ``setup_cycles`` covers loop/SSR/FREP
    configuration before the first unit issues.
    """

    setup_cycles: int
    cpe_num: int
    cpe_den: int

    def __post_init__(self) -> None:
        if self.setup_cycles < 0:
            raise KernelError(f"negative setup cycles: {self.setup_cycles}")
        if self.cpe_num <= 0 or self.cpe_den <= 0:
            raise KernelError(
                f"cycles-per-element rate must be positive: "
                f"{self.cpe_num}/{self.cpe_den}"
            )

    @property
    def cycles_per_element(self) -> float:
        return self.cpe_num / self.cpe_den

    def cycles(self, work):
        """Cycles for ``work`` rate units (no work costs no setup either).

        Branch-free integer arithmetic, ``ceil`` taken as ``(num·w +
        den − 1) // den``: a Python ``int`` for an int and an ``int64``
        array for an array, so the event path and the batch planner
        read the same numbers.
        """
        if type(work) is int:
            lowest = work
        else:
            lowest = numpy.min(work, initial=0)
        if lowest < 0:
            raise KernelError(f"negative work: {lowest}")
        return (work > 0) * (self.setup_cycles + (
            self.cpe_num * work + self.cpe_den - 1) // self.cpe_den)


@dataclasses.dataclass(frozen=True)
class SliceBytes:
    """Declared DMA bytes of one slice of ``e = hi - lo`` work items.

    A non-empty slice moves ``(per_item + per_item_n·n)·e + fixed +
    fixed_n·n + halo·edges`` bytes, where ``edges`` counts the slice's
    interior boundaries (``lo > 0`` and ``hi < n``); an empty slice
    moves nothing.  :meth:`__call__` is branch-free arithmetic, so the
    one declaration returns a Python ``int`` for int bounds and an
    ``int64`` array for array bounds — the event path and the batch
    planner read the same numbers.
    """

    per_item: int = 0
    per_item_n: int = 0
    fixed: int = 0
    fixed_n: int = 0
    halo: int = 0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if type(value) is not int or value < 0:
                raise KernelError(
                    f"slice byte coefficient {field.name} must be a "
                    f"non-negative int, got {value!r}")

    def __call__(self, lo, hi, n):
        """Bytes moved by slice ``[lo, hi)`` of an ``n``-item job."""
        # ``halo`` multiplies each edge test separately: NumPy adds two
        # bool arrays as a logical or, not as a count.
        return ((self.per_item + self.per_item_n * n) * (hi - lo)
                + (hi > lo) * (self.fixed + self.fixed_n * n
                               + self.halo * (lo > 0)
                               + self.halo * (hi < n)))


class Kernel(abc.ABC):
    """Abstract base for offloadable kernels; see the module docstring."""

    #: Kernel name used in the registry and job descriptors.
    name: str = ""
    #: Names of scalar arguments (e.g. ``("a",)`` for DAXPY's alpha).
    scalar_names: typing.Tuple[str, ...] = ()
    #: Names of float64 input buffers.
    input_names: typing.Tuple[str, ...] = ()
    #: Names of float64 output buffers.
    output_names: typing.Tuple[str, ...] = ()
    #: Whether a sub-range of the job is itself a complete, smaller job
    #: (pure element-wise kernels).  Tileable kernels can be split into
    #: sequential offloads by :func:`repro.core.tiling.offload_tiled`,
    #: which the A6 experiment (``repro ablation-tiling``) runs;
    #: reductions (shape-dependent outputs) and stencils (halo coupling
    #: across tile edges) are not tileable.
    tileable: bool = False
    #: Per-core timing; subclasses set a calibrated instance.
    timing: KernelTiming = KernelTiming(setup_cycles=0, cpe_num=1, cpe_den=1)
    #: Timing of the same loop on the application-class host core
    #: (single-issue, cache-warm; no SSR/FREP hardware, so rates are
    #: slower than a worker core's).  Used by the host execution path
    #: that grounds the offload-or-not decision in measurements; the
    #: host reaches operands through its caches, so no per-element
    #: interconnect traffic is charged on top.
    host_timing: KernelTiming = KernelTiming(setup_cycles=12, cpe_num=3,
                                             cpe_den=1)

    # ------------------------------------------------------------------
    # Shapes
    # ------------------------------------------------------------------
    def input_length(self, name: str, n: int) -> int:
        """Element count of input buffer ``name`` (default: ``n``)."""
        self._check_name(name, self.input_names, "input")
        return n

    def output_length(self, name: str, n: int, num_slices: int) -> int:
        """Element count of output buffer ``name`` (default: ``n``)."""
        self._check_name(name, self.output_names, "output")
        return n

    def output_alias(self, name: str) -> typing.Optional[str]:
        """Input buffer the output overwrites in place, if any."""
        self._check_name(name, self.output_names, "output")
        return None

    def validate(self, n: int, scalars: typing.Mapping[str, float]) -> None:
        """Check a job request; raises :class:`KernelError` on problems."""
        if n <= 0:
            raise KernelError(f"{self.name}: problem size must be positive, got {n}")
        missing = set(self.scalar_names) - set(scalars)
        if missing:
            raise KernelError(
                f"{self.name}: missing scalar arguments {sorted(missing)}"
            )
        extra = set(scalars) - set(self.scalar_names)
        if extra:
            raise KernelError(
                f"{self.name}: unknown scalar arguments {sorted(extra)}"
            )

    # ------------------------------------------------------------------
    # DMA traffic
    # ------------------------------------------------------------------
    #: Bytes DMA'd into the TCDM per slice; every kernel declares one.
    slice_bytes_in: SliceBytes
    #: Bytes DMA'd back to main memory per slice; every kernel declares one.
    slice_bytes_out: SliceBytes

    def slice_tcdm_bytes(self, lo: int, hi: int, n: int) -> int:
        """TCDM footprint of the slice (working set held at once).

        In-place outputs (every output aliases an input) reuse their
        input's staging buffer; otherwise output staging is counted on
        top of the inputs (conservative for mixed kernels).
        """
        in_bytes = self.slice_bytes_in(lo, hi, n)
        all_in_place = self.output_names and all(
            self.output_alias(name) is not None for name in self.output_names
        )
        if all_in_place:
            return in_bytes
        return in_bytes + self.slice_bytes_out(lo, hi, n)

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def compute_slice(
        self, n: int, scalars: typing.Mapping[str, float],
        inputs: typing.Mapping[str, numpy.ndarray], work: WorkSlice,
    ) -> typing.Dict[str, typing.Tuple[int, numpy.ndarray]]:
        """Compute the slice's output fragments.

        Returns ``{output_name: (start_element, values)}``: ``values``
        is written at ``start_element`` within the output buffer.
        """

    def reference(
        self, n: int, scalars: typing.Mapping[str, float],
        inputs: typing.Mapping[str, numpy.ndarray], num_slices: int,
    ) -> typing.Dict[str, numpy.ndarray]:
        """Golden outputs of the job offloaded as ``num_slices`` slices.

        A tileable (element-wise) kernel computes them in one pass over
        the whole range, so checking a device's outputs against them
        checks its slicing too; a reduction's outputs depend on the
        slicing and a stencil's halo couples slices, so those apply
        every slice in order.
        """
        if self.tileable:
            slices = [WorkSlice(0, 0, n)]
        else:
            slices = split_range(n, num_slices)
        outputs = {
            name: numpy.zeros(self.output_length(name, n, num_slices))
            for name in self.output_names
        }
        for name in self.output_names:
            alias = self.output_alias(name)
            if alias is not None:
                outputs[name][:] = inputs[alias]
        for work in slices:
            if work.empty:
                continue
            for name, (start, values) in self.compute_slice(
                    n, scalars, inputs, work).items():
                outputs[name][start:start + len(values)] = values
        return outputs

    def make_inputs(self, n: int,
                    rng: numpy.random.Generator) -> typing.Dict[str, numpy.ndarray]:
        """Random, well-conditioned input buffers for a job given none."""
        return {
            name: rng.uniform(-1.0, 1.0, size=self.input_length(name, n))
            for name in self.input_names
        }

    # ------------------------------------------------------------------
    # Timing model
    # ------------------------------------------------------------------
    def work(self, elements, n):
        """Rate units in ``elements`` work items of an ``n``-item job.

        One unit per item by default; a kernel whose per-item cost
        depends on ``n`` (GEMV's row of ``n`` MACs) overrides this.
        Like :meth:`KernelTiming.cycles` it takes ints or arrays.
        """
        return elements

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_name(self, name: str, names: typing.Tuple[str, ...],
                    kind: str) -> None:
        if name not in names:
            raise KernelError(f"{self.name}: unknown {kind} buffer {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Kernel {self.name}>"
