"""A3: model generality — does Eq. 1's family fit every kernel?"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.fitting import FitReport, fit_report
from repro.analysis.tables import Table
from repro.core.mape import PAPER_M_VALUES, PAPER_N_VALUES
from repro.core.model import OffloadModel
from repro.core.sweep import sweep
from repro.experiments.base import Experiment, GENERALITY_KERNELS, usable_ms
from repro.soc.config import SoCConfig


@dataclasses.dataclass(frozen=True)
class KernelGenerality(Experiment):
    """Fitted model + MAPE per kernel (does Eq. 1's family generalize?)."""

    fits: typing.Dict[str, FitReport]

    def csv_columns(self) -> typing.Sequence[str]:
        return ("kernel", "t0", "mem_coeff", "compute_coeff",
                "mape_percent", "r_squared")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for name, report in self.fits.items():
            model = report.model
            yield (name, model.t0, model.mem_coeff, model.compute_coeff,
                   report.mape_percent, report.r_squared)

    def render(self) -> str:
        table = Table(["kernel", "t0", "mem coeff", "compute coeff",
                       "MAPE [%]", "R^2"],
                      title="A3: Eq.-1 model family fitted per kernel "
                            "(extended design)")
        for name, report in self.fits.items():
            model = report.model
            table.add_row([name, model.t0, model.mem_coeff,
                           model.compute_coeff, report.mape_percent,
                           report.r_squared])
        return table.render()


def kernel_generality(
        kernels: typing.Sequence[str] = GENERALITY_KERNELS,
        n_values: typing.Sequence[int] = PAPER_N_VALUES,
        m_values: typing.Sequence[int] = PAPER_M_VALUES,
        tile_group: typing.Optional[str] = None,
        **config_overrides) -> KernelGenerality:
    """Fit the model family to every kernel's sweep.

    ``tile_group`` restricts the sweeps to one group of a
    heterogeneous fabric (pass ``fabric=...`` in the overrides), so
    the family's generality can be checked per tile class.
    """
    config = SoCConfig.extended(**config_overrides)
    m_values = usable_ms(m_values, config, tile_group)
    fits = {}
    for kernel in kernels:
        result = sweep(config, kernel, n_values, m_values,
                       tile_group=tile_group)
        model = OffloadModel.fit(result.triples(), label=f"fitted {kernel}")
        fits[kernel] = fit_report(model, result.triples())
    return KernelGenerality(fits=fits)
