"""Kernel-specific tests for stencil3 (halo traffic) and relu."""

import numpy

from repro.core.offload import offload
from repro.kernels import get_kernel, split_range
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system():
    return ManticoreSystem(SoCConfig.extended(num_clusters=8))


# ----------------------------------------------------------------------
# Stencil halo accounting
# ----------------------------------------------------------------------
def test_stencil_halo_traffic_exceeds_partition():
    """Splitting a stencil adds one halo element per interior edge."""
    kernel = get_kernel("stencil3")
    n, parts = 96, 6
    whole = kernel.slice_bytes_in(0, n, n)
    split = sum(kernel.slice_bytes_in(s.lo, s.hi, n)
                for s in split_range(n, parts))
    # 6 slices -> 5 interior boundaries -> 10 halo elements.
    assert split - whole == 10 * 8


def test_stencil_boundary_slices_have_one_sided_halo():
    kernel = get_kernel("stencil3")
    n = 64
    assert kernel.slice_bytes_in(0, 16, n) == (16 + 1) * 8
    assert kernel.slice_bytes_in(16, 48, n) == (32 + 2) * 8
    assert kernel.slice_bytes_in(48, 64, n) == (16 + 1) * 8
    assert kernel.slice_bytes_in(0, 64, 64) == 64 * 8  # no halo when whole


def test_stencil_functional_against_numpy():
    n = 100
    rng = numpy.random.default_rng(5)
    x = rng.normal(size=n)
    result = offload(ext_system(), "stencil3", n, 4,
                     scalars={"a": 0.25, "b": 0.5, "c": 0.25},
                     inputs={"x": x})
    padded = numpy.concatenate(([x[0]], x, [x[-1]]))
    expected = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
    numpy.testing.assert_allclose(result.outputs["y"], expected, rtol=1e-12)


def test_stencil_result_independent_of_split():
    """Halo exchange must make the result split-invariant."""
    rng = numpy.random.default_rng(6)
    x = rng.normal(size=61)
    scalars = {"a": 1.0, "b": -2.0, "c": 1.0}  # discrete Laplacian
    narrow = offload(ext_system(), "stencil3", 61, 1, scalars=scalars,
                     inputs={"x": x})
    wide = offload(ext_system(), "stencil3", 61, 7, scalars=scalars,
                   inputs={"x": x})
    numpy.testing.assert_array_equal(narrow.outputs["y"], wide.outputs["y"])


def test_stencil_smoothing_preserves_mean_interior():
    """A (1/4, 1/2, 1/4) stencil is an averaging filter."""
    x = numpy.ones(50)
    result = offload(ext_system(), "stencil3", 50, 4,
                     scalars={"a": 0.25, "b": 0.5, "c": 0.25},
                     inputs={"x": x})
    numpy.testing.assert_allclose(result.outputs["y"], numpy.ones(50))


# ----------------------------------------------------------------------
# ReLU
# ----------------------------------------------------------------------
def test_relu_functional():
    x = numpy.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    result = offload(ext_system(), "relu", 5, 2, inputs={"x": x})
    numpy.testing.assert_array_equal(result.outputs["y"],
                                     [0.0, 0.0, 0.0, 0.5, 2.0])


def test_relu_is_in_place():
    kernel = get_kernel("relu")
    assert kernel.output_alias("y") == "x"
    # In-place: TCDM footprint is input-only.
    assert kernel.slice_tcdm_bytes(0, 100, 100) == 100 * 8


def test_relu_double_buffered():
    rng = numpy.random.default_rng(8)
    x = rng.normal(size=400)
    result = offload(ext_system(), "relu", 400, 4, inputs={"x": x},
                     exec_mode="double_buffered")
    numpy.testing.assert_array_equal(result.outputs["y"],
                                     numpy.maximum(x, 0.0))
