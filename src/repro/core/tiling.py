"""Tiled offloads: jobs larger than the fabric's aggregate TCDM.

The paper's protocol stages a cluster's whole slice into its TCDM, so
the largest phased offload is bounded by ``M · TCDM`` of working set.
Tiling lifts that bound with the classic software answer: split the job
into sequential tiles, each offloaded with the normal protocol.  Every
tile pays the full constant offload overhead (~370 cycles), which is
exactly the cost the paper's extensions minimize — and why, where it
applies, the double-buffered device protocol
(:mod:`repro.cluster.dm_core`) is the better tool: it amortizes one
offload's overhead over the whole job.  The A6 experiment
(:func:`repro.experiments.ablation_tiling`, ``repro ablation-tiling``)
quantifies that comparison.

Only *tileable* kernels qualify (pure element-wise ones — see
:attr:`repro.kernels.base.Kernel.tileable`): a reduction's output shape
depends on the offload shape, and a stencil's tiles would clamp at tile
edges instead of exchanging halos.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro.core.offload import offload
from repro.core.staging import prepare_inputs, resolve_scalars, verify_outputs
from repro.errors import OffloadError
from repro.kernels.base import Kernel, split_range
from repro.kernels.registry import get_kernel
from repro.soc.manticore import ManticoreSystem


@dataclasses.dataclass(frozen=True)
class TiledOffloadResult:
    """A job executed as a sequence of tile offloads."""

    kernel_name: str
    n: int
    num_clusters: int
    tile_elements: int
    per_tile_cycles: typing.Tuple[int, ...]
    outputs: typing.Mapping[str, numpy.ndarray]
    verified: typing.Optional[bool]

    @property
    def num_tiles(self) -> int:
        return len(self.per_tile_cycles)

    @property
    def total_cycles(self) -> int:
        """Sum of tile runtimes (tiles run back to back on the host)."""
        return sum(self.per_tile_cycles)

    def __str__(self) -> str:
        return (f"{self.kernel_name}(n={self.n}) on {self.num_clusters} "
                f"clusters in {self.num_tiles} tiles: "
                f"{self.total_cycles} cycles")


def _tileable_kernel(kernel_name: str) -> Kernel:
    """The registered kernel; :class:`OffloadError` if not tileable."""
    kernel = get_kernel(kernel_name)
    if not kernel.tileable:
        raise OffloadError(
            f"kernel {kernel_name!r} is not tileable (reductions couple "
            "output shape to the offload; stencils couple tiles through "
            "their halos)")
    return kernel


def max_phased_tile(kernel_name: str, num_clusters: int,
                    tcdm_bytes: int) -> int:
    """Largest tile the phased protocol can stage on ``num_clusters``.

    For element-wise kernels the per-element TCDM footprint is constant,
    so the bound is ``num_clusters · (tcdm // bytes_per_element)``.

    Raises
    ------
    OffloadError
        If the kernel is not tileable or one element does not fit.
    """
    kernel = _tileable_kernel(kernel_name)
    bytes_per_element = kernel.slice_tcdm_bytes(0, 1, 1)
    if bytes_per_element <= 0:
        raise OffloadError(
            f"kernel {kernel_name!r} has no per-element footprint")
    per_cluster = tcdm_bytes // bytes_per_element
    if per_cluster == 0:
        raise OffloadError(
            f"one element of {kernel_name!r} ({bytes_per_element} bytes) "
            f"does not fit a {tcdm_bytes}-byte TCDM")
    return per_cluster * num_clusters


def offload_tiled(system: ManticoreSystem, kernel_name: str, n: int,
                  num_clusters: int,
                  tile_elements: typing.Optional[int] = None,
                  scalars: typing.Optional[typing.Mapping[str, float]] = None,
                  inputs: typing.Optional[typing.Mapping[str, numpy.ndarray]] = None,
                  variant: str = "auto", seed: int = 0,
                  verify: bool = True) -> TiledOffloadResult:
    """Run a job as sequential tile offloads on one system.

    Parameters
    ----------
    tile_elements:
        Elements per tile; defaults to the largest tile the phased
        protocol can stage (:func:`max_phased_tile`).

    Raises
    ------
    OffloadError
        If the kernel is not tileable or the tile size is invalid.
    """
    kernel = _tileable_kernel(kernel_name)
    scalars = resolve_scalars(kernel, scalars)
    kernel.validate(n, scalars)
    if tile_elements is None:
        tile_elements = min(n, max_phased_tile(
            kernel_name, num_clusters, system.config.tcdm_bytes))
    if tile_elements <= 0:
        raise OffloadError(
            f"tile size must be positive, got {tile_elements}")

    inputs = prepare_inputs(kernel, n, inputs, seed)
    num_tiles = -(-n // tile_elements)
    tiles = split_range(n, num_tiles)

    outputs = {
        name: numpy.zeros(kernel.output_length(name, n, num_clusters))
        for name in kernel.output_names
    }
    per_tile_cycles = []
    for tile in tiles:
        tile_inputs = {
            name: inputs[name][tile.lo:tile.hi]
            for name in kernel.input_names
        }
        result = offload(system, kernel_name, tile.elements, num_clusters,
                         scalars=scalars, inputs=tile_inputs,
                         variant=variant, verify=False)
        per_tile_cycles.append(result.runtime_cycles)
        for name, values in result.outputs.items():
            outputs[name][tile.lo:tile.hi] = values

    verified = None
    if verify:
        # The reference is the whole job as one slice.
        verify_outputs(kernel, n, 1, scalars, inputs, outputs)
        verified = True

    return TiledOffloadResult(
        kernel_name=kernel_name, n=n, num_clusters=num_clusters,
        tile_elements=tile_elements,
        per_tile_cycles=tuple(per_tile_cycles), outputs=outputs,
        verified=verified)
