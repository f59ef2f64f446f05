"""Unit tests for tiled offloads."""

import numpy
import pytest

from repro.core.offload import offload_daxpy
from repro.core.tiling import max_phased_tile, offload_tiled
from repro.errors import OffloadError
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def ext_system(**overrides):
    overrides.setdefault("num_clusters", 8)
    return ManticoreSystem(SoCConfig.extended(**overrides))


def test_max_phased_tile_daxpy():
    # DAXPY stages 16 bytes/element in place: 128 KiB TCDM -> 8192/cluster.
    assert max_phased_tile("daxpy", 1, 128 * 1024) == 8192
    assert max_phased_tile("daxpy", 4, 128 * 1024) == 4 * 8192


def test_max_phased_tile_rejects_oversized_elements():
    with pytest.raises(OffloadError):
        max_phased_tile("daxpy", 1, 8)


@pytest.mark.parametrize("kernel", ["gemv", "vecsum", "dot", "stencil3"])
def test_max_phased_tile_refuses_untileable_kernels(kernel):
    """No tile bound exists for kernels offload_tiled refuses to run."""
    with pytest.raises(OffloadError, match="not tileable"):
        max_phased_tile(kernel, 1, 128 * 1024)


def test_tiled_functional_result():
    rng = numpy.random.default_rng(4)
    n = 1000
    x, y = rng.normal(size=n), rng.normal(size=n)
    result = offload_tiled(ext_system(), "daxpy", n, 4, tile_elements=256,
                           scalars={"a": 3.0}, inputs={"x": x, "y": y})
    numpy.testing.assert_allclose(result.outputs["y"], 3.0 * x + y,
                                  rtol=1e-12)
    assert result.verified is True
    assert result.num_tiles == 4  # ceil(1000/256)


def test_single_tile_matches_plain_offload():
    plain = offload_daxpy(ext_system(), n=512, num_clusters=4, seed=1,
                          a=1.0)
    tiled = offload_tiled(ext_system(), "daxpy", 512, 4, tile_elements=512,
                          seed=1)
    assert tiled.num_tiles == 1
    assert tiled.total_cycles == plain.runtime_cycles
    numpy.testing.assert_array_equal(tiled.outputs["y"], plain.outputs["y"])


def test_default_tile_size_is_tcdm_bound():
    result = offload_tiled(ext_system(num_clusters=2), "daxpy", 40_000, 2)
    assert result.tile_elements == 2 * 8192
    assert result.num_tiles == 3
    assert result.verified is True


def test_every_tile_pays_the_offload_overhead():
    result = offload_tiled(ext_system(), "daxpy", 1024, 4,
                           tile_elements=256)
    # Four tiles of equal size: equal cost each, all above the constant
    # overhead floor.
    assert len(set(result.per_tile_cycles)) == 1
    assert min(result.per_tile_cycles) > 360


def test_untileable_kernels_rejected():
    for kernel in ("vecsum", "dot", "gemv", "stencil3"):
        with pytest.raises(OffloadError, match="not tileable"):
            offload_tiled(ext_system(), kernel, 256, 4)


def test_invalid_tile_size_rejected():
    with pytest.raises(OffloadError):
        offload_tiled(ext_system(), "daxpy", 256, 4, tile_elements=0)


def test_tiled_unlocks_tcdm_exceeding_jobs():
    system = ext_system(num_clusters=2)
    with pytest.raises(OffloadError, match="TCDM"):
        offload_daxpy(system, n=40_000, num_clusters=2)
    result = offload_tiled(ext_system(num_clusters=2), "daxpy", 40_000, 2)
    assert result.verified is True


def test_result_string():
    result = offload_tiled(ext_system(), "memcpy", 512, 2,
                           tile_elements=128)
    text = str(result)
    assert "4 tiles" in text
