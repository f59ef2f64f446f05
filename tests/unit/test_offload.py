"""Unit tests for the top-level offload API."""

import numpy
import pytest

from repro.core.offload import offload, offload_daxpy
from repro.errors import OffloadError
from repro.kernels.registry import kernel_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


def test_daxpy_functional_result():
    system = ext_system()
    rng = numpy.random.default_rng(7)
    x = rng.normal(size=100)
    y = rng.normal(size=100)
    result = offload(system, "daxpy", 100, 4, scalars={"a": 3.0},
                     inputs={"x": x, "y": y})
    numpy.testing.assert_allclose(result.outputs["y"], 3.0 * x + y,
                                  rtol=1e-12)
    assert result.verified is True


def test_default_scalars_are_one():
    system = ext_system()
    x = numpy.ones(16)
    y = numpy.zeros(16)
    result = offload(system, "daxpy", 16, 2, inputs={"x": x, "y": y})
    numpy.testing.assert_allclose(result.outputs["y"], x)


def test_generated_inputs_are_deterministic_by_seed():
    a = offload_daxpy(ext_system(), n=64, num_clusters=2, seed=42)
    b = offload_daxpy(ext_system(), n=64, num_clusters=2, seed=42)
    numpy.testing.assert_array_equal(a.outputs["y"], b.outputs["y"])
    assert a.runtime_cycles == b.runtime_cycles


def test_runtime_cycles_deterministic():
    runs = {offload_daxpy(ext_system(), n=512, num_clusters=4).runtime_cycles
            for _ in range(3)}
    assert len(runs) == 1


@pytest.mark.parametrize("kernel", kernel_names())
def test_every_kernel_offloads_and_verifies(kernel):
    system = ext_system()
    result = offload(system, kernel, 64, 4)
    assert result.verified is True
    assert result.runtime_cycles > 0


def test_too_many_clusters_rejected():
    with pytest.raises(OffloadError):
        offload_daxpy(ext_system(num_clusters=4), n=64, num_clusters=8)


def test_zero_clusters_rejected():
    with pytest.raises(OffloadError):
        offload_daxpy(ext_system(), n=64, num_clusters=0)


def test_tcdm_capacity_precheck():
    # 64 KiB TCDM: a single-cluster daxpy of 8192 elements needs 128 KiB.
    system = ext_system(tcdm_bytes=64 * 1024)
    with pytest.raises(OffloadError, match="TCDM"):
        offload_daxpy(system, n=8192, num_clusters=1)
    # The same job fits when split across more clusters.
    result = offload_daxpy(ext_system(tcdm_bytes=64 * 1024), n=8192,
                           num_clusters=4)
    assert result.verified is True


def test_wrong_input_length_rejected():
    system = ext_system()
    with pytest.raises(OffloadError, match="elements"):
        offload(system, "daxpy", 64, 2,
                inputs={"x": numpy.zeros(64), "y": numpy.zeros(32)})


def test_missing_input_rejected():
    system = ext_system()
    with pytest.raises(OffloadError, match="missing input"):
        offload(system, "daxpy", 64, 2, inputs={"x": numpy.zeros(64)})


def test_unknown_kernel_rejected():
    from repro.errors import KernelError
    with pytest.raises(KernelError):
        offload(ext_system(), "fft", 64, 2)


def test_bad_scalars_rejected():
    from repro.errors import KernelError
    with pytest.raises(KernelError):
        offload(ext_system(), "daxpy", 64, 2, scalars={"alpha": 1.0})


def test_reduction_kernel_partials():
    system = ext_system()
    x = numpy.arange(40, dtype=float)
    result = offload(system, "vecsum", 40, 4, inputs={"x": x})
    partials = result.outputs["partials"]
    assert partials.shape == (4,)
    assert partials.sum() == pytest.approx(x.sum())


def test_gemv_end_to_end():
    system = ext_system()
    n = 24
    rng = numpy.random.default_rng(3)
    matrix = rng.normal(size=(n, n))
    x = rng.normal(size=n)
    result = offload(system, "gemv", n, 4,
                     inputs={"A": matrix.ravel(), "x": x})
    numpy.testing.assert_allclose(result.outputs["y"], matrix @ x,
                                  rtol=1e-10)


def test_sequential_offloads_reuse_system():
    system = ext_system()
    first = offload_daxpy(system, n=128, num_clusters=2)
    second = offload_daxpy(system, n=128, num_clusters=4)
    third = offload(system, "memcpy", 64, 8)
    assert first.verified and second.verified and third.verified
    assert [c.jobs_completed for c in system.clusters] == [3, 3, 2, 2,
                                                           1, 1, 1, 1]


def test_more_clusters_than_elements():
    result = offload_daxpy(ext_system(), n=3, num_clusters=8)
    assert result.verified is True


def test_result_string():
    result = offload_daxpy(ext_system(), n=64, num_clusters=2)
    text = str(result)
    assert "daxpy" in text and "2 clusters" in text


def test_verify_false_skips_check():
    result = offload_daxpy(ext_system(), n=64, num_clusters=2, verify=False)
    assert result.verified is None


def test_max_cycles_guard():
    with pytest.raises(OffloadError, match="exceeded"):
        offload_daxpy(ext_system(), n=1024, num_clusters=2, max_cycles=10)


def test_baseline_variant_on_extended_hardware_matches_baseline_soc():
    """Software-selected baseline == baseline hardware, cycle for cycle."""
    on_ext = offload_daxpy(ext_system(num_clusters=8), n=512,
                           num_clusters=4, variant="baseline")
    on_base = offload_daxpy(
        ManticoreSystem(SoCConfig.baseline(num_clusters=8)), n=512,
        num_clusters=4)
    assert on_ext.runtime_cycles == on_base.runtime_cycles


def test_trace_is_built_on_first_read(monkeypatch):
    """The phase breakdown is built once, when first read, and equals an
    eager build over the run's log, however many jobs the system served
    in between."""
    import sys

    from repro.runtime.trace import build_offload_trace
    module = sys.modules["repro.core.offload"]
    built = []
    monkeypatch.setattr(module, "build_offload_trace",
                        lambda *args: built.append(args[1:])
                        or build_offload_trace(*args))
    system = ext_system()
    first = offload(system, "daxpy", 256, 4)
    eager = build_offload_trace(system.trace, first.start_cycle,
                                first.end_cycle)
    assert built == []
    for seed in range(3):
        offload(system, "scale", 128, 8, seed=seed)
    assert built == []
    assert first.trace == eager
    assert first.trace is first.trace
    assert built == [(first.start_cycle, first.end_cycle)]
    assert len(first.trace.clusters) == 4


def test_a_run_leaves_its_stamped_records_in_the_list():
    """A run ends by merging the records its DM cores stamped ahead, so
    code reading ``records`` directly sees every marker in order, even
    when nothing queried the trace."""
    from repro.core.staging import (DEFAULT_MAX_CYCLES, JobBinding, launch,
                                    released_memory)
    from repro.runtime.protocol import make_runtime
    system = ext_system()
    runtime = make_runtime(system, "extended")
    with released_memory(system):
        binding = JobBinding.bind(system, runtime, "daxpy", 256, 4)
        launch(runtime, [binding], "probe", DEFAULT_MAX_CYCLES)
    mine = [record for record in system.trace.records
            if record.source == "cluster0"]
    assert [record.label for record in mine] == [
        "doorbell", "awake", "decoded", "start_barrier_crossed",
        "dma_in_done", "compute_done", "dma_out_done",
        "completion_signalled"]
    cycles = [record.cycle for record in system.trace.records]
    assert cycles == sorted(cycles)
