"""E4/E5: the runtime model — Eq. 1's fit and Eq. 2's validation."""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.fitting import FitReport, fit_report
from repro.analysis.tables import Table
from repro.core.mape import PAPER_M_VALUES, PAPER_N_VALUES, mape_table
from repro.core.model import OffloadModel, PAPER_DAXPY_MODEL
from repro.core.sweep import sweep
from repro.experiments.base import Experiment, usable_ms
from repro.soc.config import SoCConfig


@dataclasses.dataclass(frozen=True)
class ModelFit(Experiment):
    """The fitted model with quality metrics and the paper comparison."""

    report: FitReport
    paper_model: OffloadModel

    @property
    def model(self) -> OffloadModel:
        return self.report.model

    def csv_columns(self) -> typing.Sequence[str]:
        return ("coefficient", "fitted", "paper")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        ours, paper = self.model, self.paper_model
        yield ("t0", ours.t0, paper.t0)
        yield ("mem_coeff", ours.mem_coeff, paper.mem_coeff)
        yield ("compute_coeff", ours.compute_coeff, paper.compute_coeff)

    def render(self) -> str:
        ours, paper = self.model, self.paper_model
        table = Table(["coefficient", "ours (fitted)", "paper (Eq. 1)"],
                      title="Eq. 1: runtime-model coefficients")
        table.add_row(["t0 [cycles]", ours.t0, paper.t0])
        table.add_row(["mem [cycles/elem]", ours.mem_coeff, paper.mem_coeff])
        table.add_row(["compute [cycles/elem]", ours.compute_coeff,
                       paper.compute_coeff])
        note = ("our compute coefficient is 0.45 = (2.6+1)/8 because the "
                "result write-back (N/8 over the shared write channel) is "
                "visible in our memory system; the paper's Eq. 1 folds it "
                "away (see DESIGN.md §2)")
        return "\n\n".join([table.render(), self.report.summary(), note])


def fit_model(n_values: typing.Sequence[int] = PAPER_N_VALUES,
              m_values: typing.Sequence[int] = PAPER_M_VALUES,
              kernel: str = "daxpy", variant_config: str = "extended",
              include_dispatch_term: bool = False,
              **config_overrides) -> ModelFit:
    """Fit the Eq.-1 model family to a measured sweep."""
    if variant_config == "extended":
        config = SoCConfig.extended(**config_overrides)
    else:
        config = SoCConfig.baseline(**config_overrides)
        include_dispatch_term = True
    m_values = usable_ms(m_values, config)
    result = sweep(config, kernel, n_values, m_values)
    model = OffloadModel.fit(
        result.triples(), include_dispatch_term=include_dispatch_term,
        label=f"fitted {kernel}/{variant_config}")
    return ModelFit(report=fit_report(model, result.triples()),
                    paper_model=PAPER_DAXPY_MODEL)


@dataclasses.dataclass(frozen=True)
class MapeExperiment(Experiment):
    """Per-N MAPE of the fitted model (the paper's <1 % claim)."""

    model: OffloadModel
    per_n: typing.Dict[int, float]

    @property
    def worst(self) -> float:
        return max(self.per_n.values())

    def csv_columns(self) -> typing.Sequence[str]:
        return ("n", "mape_percent")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for n, value in self.per_n.items():
            yield (n, value)

    def render(self) -> str:
        table = Table(["N", "MAPE [%]"],
                      title="Eq. 2: model error per problem size "
                            "(paper: < 1 % everywhere)")
        for n, value in self.per_n.items():
            table.add_row([n, value])
        return "\n\n".join([
            self.model.describe(), table.render(),
            f"worst-case MAPE {self.worst:.3f} %"])


def mape_experiment(n_values: typing.Sequence[int] = PAPER_N_VALUES,
                    m_values: typing.Sequence[int] = PAPER_M_VALUES,
                    **config_overrides) -> MapeExperiment:
    """Fit on the paper grid, validate per problem size (Eq. 2)."""
    config = SoCConfig.extended(**config_overrides)
    m_values = usable_ms(m_values, config)
    result = sweep(config, "daxpy", n_values, m_values)
    model = OffloadModel.fit(result.triples(), label="fitted daxpy/extended")
    per_n = mape_table(model, result.runtime_grid())
    return MapeExperiment(model=model, per_n=per_n)
