"""End-to-end matrix: every kernel × every variant × assorted shapes."""

import numpy
import pytest

from repro.core.offload import offload
from repro.kernels.registry import kernel_names
from repro.runtime.strategies import variant_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


@pytest.mark.parametrize("variant", sorted(variant_names()))
@pytest.mark.parametrize("kernel", kernel_names())
def test_kernel_variant_matrix(kernel, variant):
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    result = offload(system, kernel, 96, 4, variant=variant)
    assert result.verified is True
    assert result.variant == variant
    assert result.runtime_cycles > 0


@pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (7, 8), (8, 8),
                                 (1023, 8), (1024, 1)])
def test_odd_shapes(n, m):
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    assert offload(system, "daxpy", n, m).verified is True


def test_many_sequential_offloads_on_one_system():
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    cycles = []
    for index in range(6):
        result = offload(system, "daxpy", 256, 4, seed=index)
        cycles.append(result.runtime_cycles)
    # Steady state: every offload after the first costs the same.
    assert len(set(cycles[1:])) == 1
    assert system.syncunit.interrupts_fired == 6


def test_mixed_kernel_pipeline_shares_buffers():
    """A realistic dependent pipeline: scale -> daxpy -> vecsum."""
    system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
    rng = numpy.random.default_rng(11)
    n = 200
    x = rng.normal(size=n)
    scaled = offload(system, "scale", n, 4, scalars={"a": 2.0},
                     inputs={"x": x}).outputs["y"]
    accumulated = offload(system, "daxpy", n, 4, scalars={"a": -1.0},
                          inputs={"x": x, "y": scaled}).outputs["y"]
    partials = offload(system, "vecsum", n, 8,
                       inputs={"x": accumulated}).outputs["partials"]
    # 2x - x = x, so the sum of partials is the sum of x.
    assert partials.sum() == pytest.approx(x.sum())


def test_timing_independent_of_data_values():
    """Cycle counts depend on shape, never on operand values."""
    fast = offload(ManticoreSystem(SoCConfig.extended(num_clusters=8)),
                   "daxpy", 512, 4, inputs={"x": numpy.zeros(512),
                                            "y": numpy.zeros(512)})
    slow = offload(ManticoreSystem(SoCConfig.extended(num_clusters=8)),
                   "daxpy", 512, 4, inputs={"x": numpy.full(512, 1e300),
                                            "y": numpy.full(512, -1e300)})
    assert fast.runtime_cycles == slow.runtime_cycles


def test_variant_choice_never_changes_results():
    outputs = {}
    for variant in sorted(variant_names()):
        system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
        outputs[variant] = offload(system, "gemv", 16, 4, seed=3,
                                   variant=variant).outputs["y"]
    reference = outputs.pop("extended")
    for variant, got in outputs.items():
        numpy.testing.assert_array_equal(got, reference, err_msg=variant)


def test_full_fabric_offload():
    system = ManticoreSystem(SoCConfig.extended(num_clusters=32))
    result = offload(system, "daxpy", 4096, 32)
    assert result.verified is True
    assert len(result.trace.clusters) == 32


def test_kernel_timing_rates_order_runtimes():
    """Heavier per-element kernels must take longer at equal traffic."""
    def runtime(kernel):
        system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
        return offload(system, kernel, 2048, 1, verify=False).runtime_cycles

    assert runtime("axpby") > runtime("daxpy")  # 3.0 vs 2.6 cycles/elem


def test_saxpy_cheaper_than_daxpy():
    """Half the traffic and double the rate: SAXPY must win clearly."""
    def runtime(kernel):
        system = ManticoreSystem(SoCConfig.extended(num_clusters=8))
        return offload(system, kernel, 4096, 8, verify=False).runtime_cycles

    assert runtime("saxpy") < 0.75 * runtime("daxpy")
