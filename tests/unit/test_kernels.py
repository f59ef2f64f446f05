"""Unit tests for kernel functional and timing models."""

import math

import numpy
import pytest

from repro.errors import KernelError
from repro.kernels import (
    DaxpyKernel,
    GemvKernel,
    Kernel,
    KernelTiming,
    SliceBytes,
    VecsumKernel,
    WorkSlice,
    get_kernel,
    kernel_names,
    register_kernel,
    split_range,
)
from repro.kernels.registry import unregister_kernel


RNG = numpy.random.default_rng(1234)

ALL_KERNELS = [get_kernel(name) for name in kernel_names()]


# ----------------------------------------------------------------------
# split_range
# ----------------------------------------------------------------------
def test_split_range_even():
    slices = split_range(8, 4)
    assert [(s.lo, s.hi) for s in slices] == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_split_range_uneven_front_loads_remainder():
    slices = split_range(10, 4)
    assert [s.elements for s in slices] == [3, 3, 2, 2]


def test_split_range_more_parts_than_items():
    slices = split_range(2, 5)
    assert [s.elements for s in slices] == [1, 1, 0, 0, 0]
    assert slices[2].empty


def test_split_range_invalid():
    with pytest.raises(KernelError):
        split_range(-1, 2)
    with pytest.raises(KernelError):
        split_range(4, 0)


def test_work_slice_validation():
    with pytest.raises(KernelError):
        WorkSlice(index=0, lo=5, hi=4)
    with pytest.raises(KernelError):
        WorkSlice(index=0, lo=-1, hi=4)


# ----------------------------------------------------------------------
# KernelTiming
# ----------------------------------------------------------------------
def test_timing_zero_elements_cost_nothing():
    timing = KernelTiming(setup_cycles=20, cpe_num=13, cpe_den=5)
    assert timing.cycles(0) == 0


def test_timing_daxpy_rate():
    timing = DaxpyKernel.timing
    assert timing.cycles_per_element == pytest.approx(2.6)
    # 40 elements at 2.6 cpe = 104 cycles plus setup.
    assert timing.cycles(40) == timing.setup_cycles + 104


def test_timing_rounds_up_partial_elements():
    timing = KernelTiming(setup_cycles=0, cpe_num=13, cpe_den=5)
    assert timing.cycles(1) == 3  # ceil(2.6)


def test_timing_validation():
    with pytest.raises(KernelError):
        KernelTiming(setup_cycles=-1, cpe_num=1, cpe_den=1)
    with pytest.raises(KernelError):
        KernelTiming(setup_cycles=0, cpe_num=0, cpe_den=1)
    with pytest.raises(KernelError):
        KernelTiming(setup_cycles=0, cpe_num=1, cpe_den=0)
    timing = KernelTiming(setup_cycles=0, cpe_num=1, cpe_den=1)
    with pytest.raises(KernelError):
        timing.cycles(-1)


def test_timing_takes_ints_and_arrays_alike():
    """A Python int skips the array reduction but returns the same int
    the array form returns element-wise, and is refused the same way."""
    timing = KernelTiming(setup_cycles=7, cpe_num=13, cpe_den=5)
    work = numpy.arange(60)
    scalars = [timing.cycles(int(w)) for w in work]
    assert all(type(c) is int for c in scalars)
    assert scalars == timing.cycles(work).tolist()
    assert timing.cycles(numpy.int64(9)) == scalars[9]
    for bad in (-3, numpy.array([4, -3])):
        with pytest.raises(KernelError, match="negative work: -3"):
            timing.cycles(bad)


# ----------------------------------------------------------------------
# Functional correctness against NumPy oracles
# ----------------------------------------------------------------------
def reference_oracle(kernel, n, scalars, inputs, num_slices):
    """Independent NumPy implementations of every kernel."""
    name = kernel.name
    if name == "daxpy":
        return {"y": scalars["a"] * inputs["x"] + inputs["y"]}
    if name == "saxpy":
        a = numpy.float32(scalars["a"])
        x32 = inputs["x"].astype(numpy.float32)
        y32 = inputs["y"].astype(numpy.float32)
        return {"y": (a * x32 + y32).astype(numpy.float64)}
    if name == "axpby":
        return {"y": scalars["a"] * inputs["x"] + scalars["b"] * inputs["y"]}
    if name == "memcpy":
        return {"y": inputs["x"].copy()}
    if name == "scale":
        return {"y": scalars["a"] * inputs["x"]}
    if name == "vecsum":
        slices = split_range(n, num_slices)
        return {"partials": numpy.array(
            [inputs["x"][s.lo:s.hi].sum() for s in slices])}
    if name == "dot":
        slices = split_range(n, num_slices)
        return {"partials": numpy.array(
            [numpy.dot(inputs["x"][s.lo:s.hi], inputs["y"][s.lo:s.hi])
             for s in slices])}
    if name == "gemv":
        return {"y": inputs["A"].reshape(n, n) @ inputs["x"]}
    if name == "relu":
        return {"y": numpy.maximum(inputs["x"], 0.0)}
    if name == "stencil3":
        x = inputs["x"]
        padded = numpy.concatenate(([x[0]], x, [x[-1]]))
        return {"y": (scalars["a"] * padded[:-2]
                      + scalars["b"] * padded[1:-1]
                      + scalars["c"] * padded[2:])}
    raise AssertionError(f"no oracle for kernel {name}")


def default_scalars(kernel):
    return {name: 1.5 + 0.25 * i for i, name in enumerate(kernel.scalar_names)}


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("n,num_slices", [(64, 1), (64, 4), (63, 4), (7, 8)])
def test_reference_matches_oracle(kernel, n, num_slices):
    scalars = default_scalars(kernel)
    inputs = kernel.make_inputs(n, RNG)
    got = kernel.reference(n, scalars, inputs, num_slices)
    want = reference_oracle(kernel, n, scalars, inputs, num_slices)
    assert set(got) == set(want)
    for name in got:
        numpy.testing.assert_allclose(got[name], want[name], rtol=1e-12)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_reference_passes(kernel, monkeypatch):
    """A tileable kernel's golden outputs come from one pass over the
    whole range, bit for bit what applying every slice gives; other
    kernels apply each non-empty slice."""
    n, num_slices = 61, 8
    scalars = default_scalars(kernel)
    inputs = kernel.make_inputs(n, RNG)
    sliced = {name: numpy.zeros(kernel.output_length(name, n, num_slices))
              for name in kernel.output_names}
    for name in kernel.output_names:
        if kernel.output_alias(name) is not None:
            sliced[name][:] = inputs[kernel.output_alias(name)]
    for work in split_range(n, num_slices):
        for name, (start, values) in kernel.compute_slice(
                n, scalars, inputs, work).items():
            sliced[name][start:start + len(values)] = values

    passes = []
    compute_slice = kernel.compute_slice

    def counted(*args):
        passes.append(args[-1])
        return compute_slice(*args)

    monkeypatch.setattr(kernel, "compute_slice", counted)
    got = kernel.reference(n, scalars, inputs, num_slices)
    assert len(passes) == (1 if kernel.tileable else num_slices)
    for name in got:
        numpy.testing.assert_array_equal(got[name], sliced[name])


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_slices_cover_output_exactly_once(kernel):
    """Union of slice fragments covers each output index exactly once."""
    n, num_slices = 50, 7
    scalars = default_scalars(kernel)
    inputs = kernel.make_inputs(n, RNG)
    coverage = {
        name: numpy.zeros(kernel.output_length(name, n, num_slices), dtype=int)
        for name in kernel.output_names
    }
    for work in split_range(n, num_slices):
        if work.empty:
            continue
        for name, (start, values) in kernel.compute_slice(
                n, scalars, inputs, work).items():
            coverage[name][start:start + len(values)] += 1
    for name, counts in coverage.items():
        assert (counts == 1).all(), f"{kernel.name}.{name} coverage {counts}"


# ----------------------------------------------------------------------
# Traffic and timing sanity across all kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_slice_output_bytes_partition_law(kernel):
    """Element-wise kernels: output bytes are additive over a partition.

    Reduction kernels instead emit exactly one element per non-empty
    slice, so splitting finer *increases* the write-back traffic.
    """
    n = 96
    whole_out = kernel.slice_bytes_out(0, n, n)
    slices = split_range(n, 6)
    parts_out = sum(kernel.slice_bytes_out(s.lo, s.hi, n) for s in slices)
    if kernel.output_length(kernel.output_names[0], n, 6) == n:
        assert parts_out == whole_out
    else:
        nonempty = sum(1 for s in slices if not s.empty)
        assert parts_out == nonempty * 8


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_empty_slice_moves_no_data(kernel):
    assert kernel.slice_bytes_in(10, 10, 64) == 0
    assert kernel.slice_bytes_out(10, 10, 64) == 0
    assert kernel.timing.cycles(kernel.work(0, 64)) == 0


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_compute_cycles_monotone_in_elements(kernel):
    n = 256
    previous = 0
    for elements in [1, 2, 8, 32, 128, 256]:
        cycles = kernel.timing.cycles(kernel.work(elements, n))
        assert cycles >= previous
        previous = cycles


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_validate_catches_bad_requests(kernel):
    with pytest.raises(KernelError):
        kernel.validate(0, default_scalars(kernel))
    with pytest.raises(KernelError):
        kernel.validate(16, {"bogus_scalar": 1.0})
    kernel.validate(16, default_scalars(kernel))  # and the good case passes


def test_daxpy_traffic_matches_paper_accounting():
    kernel = DaxpyKernel()
    n = 1024
    total_in = sum(kernel.slice_bytes_in(s.lo, s.hi, n)
                   for s in split_range(n, 8))
    total_out = sum(kernel.slice_bytes_out(s.lo, s.hi, n)
                    for s in split_range(n, 8))
    assert total_in == 16 * n   # x and y in: the N/4 term at 64 B/cycle
    assert total_out == 8 * n


def test_gemv_cycles_scale_with_n():
    kernel = GemvKernel()
    small = kernel.timing.cycles(kernel.work(4, 64))
    large = kernel.timing.cycles(kernel.work(4, 128))
    assert large > small
    assert large - kernel.timing.setup_cycles == math.ceil(3 * 4 * 128 / 2)


def test_gemv_input_lengths():
    kernel = GemvKernel()
    assert kernel.input_length("A", 16) == 256
    assert kernel.input_length("x", 16) == 16


def test_vecsum_output_length_is_slice_count():
    kernel = VecsumKernel()
    assert kernel.output_length("partials", 1000, 8) == 8


def test_unknown_buffer_names_rejected():
    kernel = DaxpyKernel()
    with pytest.raises(KernelError):
        kernel.input_length("z", 8)
    with pytest.raises(KernelError):
        kernel.output_length("z", 8, 1)
    with pytest.raises(KernelError):
        kernel.output_alias("z")


def test_tcdm_footprint_in_place_vs_out_of_place():
    daxpy = get_kernel("daxpy")   # in place: footprint = inputs only
    memcpy = get_kernel("memcpy")  # out of place: inputs + outputs
    assert daxpy.slice_tcdm_bytes(0, 100, 100) == 16 * 100
    assert memcpy.slice_tcdm_bytes(0, 100, 100) == 16 * 100
    scale = get_kernel("scale")
    assert scale.slice_tcdm_bytes(0, 100, 100) == 16 * 100


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_contains_all_kernels():
    names = kernel_names()
    assert "daxpy" in names
    assert len(names) == 10


def test_registry_names_follow_registration():
    """The sorted names (the descriptor id space) are kept, and rebuilt
    when a kernel comes or goes."""
    class Temporary(DaxpyKernel):
        name = "kerneltest_temporary"

    before = kernel_names()
    assert before == tuple(sorted(before))
    register_kernel(Temporary())
    try:
        assert kernel_names() == tuple(sorted(before + (Temporary.name,)))
    finally:
        unregister_kernel(Temporary.name)
    assert kernel_names() == before


def test_get_unknown_kernel_lists_available():
    with pytest.raises(KernelError, match="daxpy"):
        get_kernel("fft")


def test_register_duplicate_rejected():
    with pytest.raises(KernelError):
        register_kernel(DaxpyKernel())


def test_register_unnamed_rejected():
    class Nameless(Kernel):
        slice_bytes_in = SliceBytes()
        slice_bytes_out = SliceBytes()

        def compute_slice(self, n, scalars, inputs, work):
            return {}

    with pytest.raises(KernelError):
        register_kernel(Nameless())


@pytest.mark.parametrize("missing", ["slice_bytes_in", "slice_bytes_out"])
def test_register_requires_both_byte_declarations(missing):
    declared = {"slice_bytes_in": SliceBytes(per_item=8),
                "slice_bytes_out": SliceBytes(per_item=8)}
    del declared[missing]
    undeclared = type("Undeclared", (Kernel,), dict(
        declared, name="kerneltest_undeclared",
        compute_slice=lambda self, n, scalars, inputs, work: {}))
    with pytest.raises(KernelError, match=missing):
        register_kernel(undeclared())
    assert "kerneltest_undeclared" not in kernel_names()


# ----------------------------------------------------------------------
# Slice byte declarations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field", [
    "per_item", "per_item_n", "fixed", "fixed_n", "halo"])
@pytest.mark.parametrize("value", [-8, 8.0, True])
def test_slice_bytes_rejects_bad_coefficients(field, value):
    with pytest.raises(KernelError, match=field):
        SliceBytes(**{field: value})


def test_slice_bytes_evaluates_the_declared_shape():
    traffic = SliceBytes(per_item=2, per_item_n=3, fixed=5, fixed_n=7,
                         halo=11)
    n = 10
    assert traffic(4, 4, n) == 0                       # empty slice
    assert traffic(0, n, n) == (2 + 30) * n + 5 + 70   # no interior edge
    assert traffic(0, 4, n) == (2 + 30) * 4 + 5 + 70 + 11
    assert traffic(4, 6, n) == (2 + 30) * 2 + 5 + 70 + 2 * 11
