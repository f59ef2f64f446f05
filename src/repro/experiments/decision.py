"""E6: Eq. 3 — the offload decision under a deadline, verified."""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.tables import Table
from repro.core.decision import min_clusters_for_deadline
from repro.core.model import OffloadModel
from repro.core.offload import offload
from repro.errors import DecisionError
from repro.experiments.base import Experiment
from repro.experiments.model import fit_model
from repro.soc.config import SoCConfig


@dataclasses.dataclass(frozen=True)
class DecisionRow:
    """One deadline scenario, model-decided and simulation-verified."""

    n: int
    t_max: float
    m_min: typing.Optional[int]          # None = infeasible
    predicted_cycles: typing.Optional[float]
    measured_cycles: typing.Optional[int]
    meets_deadline: typing.Optional[bool]
    tighter_fails: typing.Optional[bool]  # does M_min - 1 miss the deadline?


@dataclasses.dataclass(frozen=True)
class DecisionExperiment(Experiment):
    """Eq. 3 evaluated and verified over deadline scenarios."""

    model: OffloadModel
    rows: typing.Tuple[DecisionRow, ...]

    def csv_columns(self) -> typing.Sequence[str]:
        return ("n", "t_max", "m_min", "predicted_cycles",
                "measured_cycles", "meets_deadline", "tighter_fails")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for row in self.rows:
            yield (row.n, row.t_max, row.m_min, row.predicted_cycles,
                   row.measured_cycles, row.meets_deadline,
                   row.tighter_fails)

    def render(self) -> str:
        table = Table(
            ["N", "t_max", "M_min (Eq. 3)", "predicted", "measured",
             "meets deadline", "M_min-1 fails"],
            title="Eq. 3: minimum clusters under a deadline, verified in "
                  "simulation")
        for row in self.rows:
            table.add_row([
                row.n, row.t_max,
                row.m_min if row.m_min is not None else "infeasible",
                row.predicted_cycles if row.predicted_cycles is not None else "-",
                row.measured_cycles if row.measured_cycles is not None else "-",
                row.meets_deadline if row.meets_deadline is not None else "-",
                row.tighter_fails if row.tighter_fails is not None else "-",
            ])
        return table.render()


def decision_experiment(
        scenarios: typing.Sequence[typing.Tuple[int, float]] = (
            (1024, 700.0), (1024, 800.0), (1024, 1000.0), (1024, 620.0),
            (512, 600.0), (2048, 1200.0), (256, 500.0)),
        max_clusters: int = 32, margin: float = 0.01,
        **config_overrides) -> DecisionExperiment:
    """Solve Eq. 3 for each (N, t_max) scenario and verify by simulation.

    ``margin`` guard-bands the deadline by the model's validated error
    bound (Eq. 2 shows MAPE < 1 %, so deciding against ``0.99·t_max``
    guarantees the measured runtime meets ``t_max``).  Verification runs
    the *actual simulated system* at M_min (deadline must hold) and at
    M_min − 1 (deadline must fail — minimality).
    """
    if not 0.0 <= margin < 1.0:
        raise DecisionError(f"margin must be in [0, 1), got {margin}")
    config = SoCConfig.extended(**config_overrides)
    max_clusters = min(max_clusters, config.num_clusters)
    fit = fit_model(**config_overrides)
    model = fit.model
    rows = []
    for n, t_max in scenarios:
        try:
            m_min = min_clusters_for_deadline(model, n, t_max * (1 - margin),
                                              max_clusters=max_clusters)
        except DecisionError:
            rows.append(DecisionRow(n=n, t_max=t_max, m_min=None,
                                    predicted_cycles=None,
                                    measured_cycles=None,
                                    meets_deadline=None, tighter_fails=None))
            continue
        from repro.soc.manticore import ManticoreSystem
        measured = offload(ManticoreSystem(config), "daxpy", n,
                           m_min).runtime_cycles
        tighter_fails = None
        if m_min > 1:
            tighter = offload(ManticoreSystem(config), "daxpy", n,
                              m_min - 1).runtime_cycles
            tighter_fails = tighter > t_max
        rows.append(DecisionRow(
            n=n, t_max=t_max, m_min=m_min,
            predicted_cycles=model.predict(m_min, n),
            measured_cycles=measured,
            meets_deadline=measured <= t_max,
            tighter_fails=tighter_fails))
    return DecisionExperiment(model=model, rows=tuple(rows))
