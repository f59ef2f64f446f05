"""Unit tests for host-side kernel execution (the don't-offload path)."""

import numpy
import pytest

from repro.core.decision import HostExecutionModel
from repro.core.offload import offload, run_on_host
from repro.errors import ModelError
from repro.kernels.registry import get_kernel, kernel_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


@pytest.mark.parametrize("kernel", kernel_names())
def test_every_kernel_runs_on_host_and_verifies(kernel):
    result = run_on_host(ext_system(), kernel, 48)
    assert result.verified is True
    assert result.runtime_cycles > 0


def test_host_daxpy_functional_result():
    rng = numpy.random.default_rng(2)
    x, y = rng.normal(size=64), rng.normal(size=64)
    result = run_on_host(ext_system(), "daxpy", 64, scalars={"a": -1.5},
                         inputs={"x": x, "y": y})
    numpy.testing.assert_allclose(result.outputs["y"], -1.5 * x + y,
                                  rtol=1e-12)


def test_host_runtime_matches_kernel_host_timing():
    kernel = get_kernel("daxpy")
    result = run_on_host(ext_system(), "daxpy", 100, verify=False)
    assert result.runtime_cycles == kernel.host_timing.cycles(100)


def test_host_runtime_linear_in_n():
    r64 = run_on_host(ext_system(), "daxpy", 64, verify=False)
    r128 = run_on_host(ext_system(), "daxpy", 128, verify=False)
    r256 = run_on_host(ext_system(), "daxpy", 256, verify=False)
    assert (r256.runtime_cycles - r128.runtime_cycles
            == 2 * (r128.runtime_cycles - r64.runtime_cycles))


def test_host_loses_to_offload_on_large_jobs():
    host = run_on_host(ext_system(), "daxpy", 2048, verify=False)
    accel = offload(ext_system(), "daxpy", 2048, 8, verify=False)
    assert accel.runtime_cycles < host.runtime_cycles


def test_host_wins_on_tiny_jobs():
    host = run_on_host(ext_system(), "daxpy", 16, verify=False)
    accel = offload(ext_system(), "daxpy", 16, 8, verify=False)
    assert host.runtime_cycles < accel.runtime_cycles


def test_host_reduction_is_single_slice():
    x = numpy.arange(30, dtype=float)
    result = run_on_host(ext_system(), "vecsum", 30, inputs={"x": x})
    assert result.outputs["partials"].shape == (1,)
    assert result.outputs["partials"][0] == pytest.approx(x.sum())


def test_gemv_host_cycles_scale_quadratically():
    kernel = get_kernel("gemv")
    small = kernel.host_timing.cycles(kernel.work(32, 32))
    large = kernel.host_timing.cycles(kernel.work(64, 64))
    setup = kernel.host_timing.setup_cycles
    assert (large - setup) == 4 * (small - setup)


def test_host_model_fit_recovers_measured_rate():
    points = []
    for n in (64, 128, 256, 512):
        result = run_on_host(ext_system(), "daxpy", n, verify=False)
        points.append((n, float(result.runtime_cycles)))
    model = HostExecutionModel.fit(points)
    kernel = get_kernel("daxpy")
    assert model.cycles_per_element == pytest.approx(
        kernel.host_timing.cycles_per_element, rel=1e-6)
    assert model.predict(1024) == pytest.approx(
        kernel.host_timing.cycles(1024), rel=1e-3)


def test_host_model_fit_validation():
    with pytest.raises(ModelError):
        HostExecutionModel.fit([(64, 100.0)])
    with pytest.raises(ModelError):
        HostExecutionModel.fit([(64, 100.0), (64, 100.0)])
    with pytest.raises(ModelError):
        HostExecutionModel.fit([(10, 1000.0), (100, 10.0)])  # negative rate


def test_host_run_result_string():
    result = run_on_host(ext_system(), "memcpy", 32)
    assert "on the host" in str(result)
