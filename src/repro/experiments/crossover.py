"""E7: the offload crossover — when does offloading start to pay?"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.tables import Table
from repro.core.offload import DEFAULT_MAX_CYCLES, offload, run_on_host
from repro.experiments.base import Experiment
from repro.soc.config import SoCConfig


@dataclasses.dataclass(frozen=True)
class CrossoverRow:
    """One kernel's measured host-vs-offload crossover."""

    kernel: str
    crossover_n: typing.Optional[int]   # None = never crosses in range
    host_cycles_at_crossover: typing.Optional[int]
    offload_cycles_at_crossover: typing.Optional[int]


@dataclasses.dataclass(frozen=True)
class CrossoverExperiment(Experiment):
    """Measured host execution vs best offload across problem sizes.

    Quantifies the paper's motivation: offload overheads set a floor,
    so below some problem size the host wins and the offload decision
    must say "don't".  Both sides are *measured* on the simulator (the
    host path via :func:`repro.core.offload.run_on_host`).
    """

    rows: typing.Tuple[CrossoverRow, ...]
    curves: typing.Mapping[str, typing.Mapping[int, typing.Tuple[int, int]]]
    #: (host, offload) cycles per (kernel, N)

    def csv_columns(self) -> typing.Sequence[str]:
        return ("kernel", "n", "host_cycles", "offload_cycles")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for kernel, curve in self.curves.items():
            for n, (host_cycles, offload_cycles) in sorted(curve.items()):
                yield (kernel, n, host_cycles, offload_cycles)

    def render(self) -> str:
        table = Table(["kernel", "crossover N", "host [cycles]",
                       "offload [cycles]"],
                      title="E7: smallest N where offloading beats host "
                            "execution (measured both ways)")
        for row in self.rows:
            if row.crossover_n is None:
                table.add_row([row.kernel, "> range", "-", "-"])
            else:
                table.add_row([row.kernel, row.crossover_n,
                               row.host_cycles_at_crossover,
                               row.offload_cycles_at_crossover])
        note = ("below the crossover the constant offload overhead "
                "(~370 cycles) dominates and the host's slower loop "
                "still wins — the fine-grained-task motivation of the "
                "paper's introduction")
        return "\n\n".join([table.render(), note])


def crossover_experiment(
        kernels: typing.Sequence[str] = ("daxpy", "memcpy", "dot"),
        n_values: typing.Sequence[int] = (16, 32, 64, 128, 256, 512, 1024),
        offload_m: int = 32, max_cycles: int = DEFAULT_MAX_CYCLES,
        tile_group: typing.Optional[str] = None,
        **config_overrides) -> CrossoverExperiment:
    """Measure host execution and the widest offload across sizes.

    ``max_cycles`` bounds each individual measurement (host and
    offloaded alike).  ``tile_group`` targets the offloads at one
    group of a heterogeneous fabric (pass ``fabric=...`` in the
    overrides) — the crossover point moves per tile class.
    """
    from repro.soc.manticore import ManticoreSystem

    config = SoCConfig.extended(**config_overrides)
    limit = config.cluster_span(tile_group=tile_group).count
    offload_m = min(offload_m, limit)
    rows = []
    curves: typing.Dict[str, typing.Dict[int, typing.Tuple[int, int]]] = {}
    for kernel in kernels:
        curve: typing.Dict[int, typing.Tuple[int, int]] = {}
        crossover = None
        for n in n_values:
            host = run_on_host(ManticoreSystem(config), kernel, n,
                               max_cycles=max_cycles)
            accel = offload(ManticoreSystem(config), kernel, n, offload_m,
                            max_cycles=max_cycles, tile_group=tile_group)
            curve[n] = (host.runtime_cycles, accel.runtime_cycles)
            if crossover is None and accel.runtime_cycles < host.runtime_cycles:
                crossover = n
        curves[kernel] = curve
        if crossover is None:
            rows.append(CrossoverRow(kernel=kernel, crossover_n=None,
                                     host_cycles_at_crossover=None,
                                     offload_cycles_at_crossover=None))
        else:
            host_c, accel_c = curve[crossover]
            rows.append(CrossoverRow(kernel=kernel, crossover_n=crossover,
                                     host_cycles_at_crossover=host_c,
                                     offload_cycles_at_crossover=accel_c))
    return CrossoverExperiment(rows=tuple(rows), curves=curves)
