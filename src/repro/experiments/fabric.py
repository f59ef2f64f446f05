"""E12: fabric selection — which tile class, and how many tiles.

The heterogeneous extension of the paper's Eq. 3 story: instead of
asking *how many* identical clusters a deadline needs, ask *which tile
class* and how many of it.  The experiment builds a mixed fabric (a
Snitch-class group and a wide-vector-class group), sweeps each group
separately, re-fits the Eq.-1 model family per class
(:func:`repro.core.model.fit_class_models`), and then inverts the
per-class models under deadline scenarios
(:func:`repro.core.decision.choose_fabric`), verifying every feasible
answer by simulating the chosen (class, M) on the mixed fabric itself.

The two classes are chosen to *cross*: the wide class pays a heavier
dispatch/decode prefix (larger ``t0``) but computes ~4x faster per
tile (smaller ``c``), so small problems favour Snitch tiles and large
compute-heavy ones favour wide tiles — which is what makes the
decision non-trivial.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.charts import line_chart
from repro.analysis.tables import Table
from repro.core.decision import FabricOption, choose_fabric
from repro.core.model import TileClassModel, fit_class_models
from repro.core.offload import offload
from repro.core.sweep import sweep
from repro.errors import DecisionError
from repro.experiments.base import Experiment, usable_ms
from repro.soc.config import SoCConfig
from repro.soc.tiles import TileGroup, get_tile_class

#: Sweep grid for the per-class fits: sizes span the crossing point of
#: the two classes' runtime curves (around N ~ 2.5k for DAXPY).
FABRIC_N_VALUES = (256, 512, 1024, 2048, 4096, 8192)

#: Deadline scenarios ``(n, t_max, objective)``; chosen so each class
#: wins at least once on the default fabric and one scenario is
#: infeasible for every class (the error path stays visible).
FABRIC_SCENARIOS = (
    (1024, 900.0, "power"),
    (4096, 3000.0, "area"),
    (8192, 3600.0, "clusters"),
    (16384, 6200.0, "area"),
    (256, 400.0, "area"),
)


@dataclasses.dataclass(frozen=True)
class FabricScenarioRow:
    """One deadline scenario, fabric-decided and simulation-verified."""

    n: int
    t_max: float
    objective: str
    tile_class: typing.Optional[str]     # None = no class feasible
    num_clusters: typing.Optional[int]
    cost: typing.Optional[float]
    predicted_cycles: typing.Optional[float]
    measured_cycles: typing.Optional[int]
    meets_deadline: typing.Optional[bool]


@dataclasses.dataclass(frozen=True)
class FabricExperiment(Experiment):
    """Per-class model fits + verified fabric-selection scenarios."""

    #: The mixed fabric the experiment ran on, for reports.
    fabric_description: str
    #: Eq.-1 fits per tile class, with in-sample MAPE.
    class_fits: typing.Dict[str, TileClassModel]
    #: Measured runtime vs N per class at the fixed curve width.
    curves: typing.Dict[str, typing.Dict[int, int]]
    #: The M the curves were measured at.
    curve_m: int
    rows: typing.Tuple[FabricScenarioRow, ...]

    def csv_columns(self) -> typing.Sequence[str]:
        return ("n", "t_max", "objective", "tile_class", "num_clusters",
                "cost", "predicted_cycles", "measured_cycles",
                "meets_deadline")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for row in self.rows:
            yield (row.n, row.t_max, row.objective, row.tile_class,
                   row.num_clusters, row.cost, row.predicted_cycles,
                   row.measured_cycles, row.meets_deadline)

    def render(self) -> str:
        fits = Table(
            ["class", "t0", "mem coeff", "compute coeff", "MAPE [%]"],
            title="E12: Eq.-1 model family re-fitted per tile class "
                  f"({self.fabric_description})")
        for name, fit in self.class_fits.items():
            fits.add_row([name, fit.model.t0, fit.model.mem_coeff,
                          fit.model.compute_coeff, fit.mape_percent])
        scenarios = Table(
            ["N", "t_max", "objective", "class", "M", "cost",
             "predicted", "measured", "meets deadline"],
            title="Fabric selection: cheapest (class, M) meeting each "
                  "deadline, verified in simulation")
        for row in self.rows:
            scenarios.add_row([
                row.n, row.t_max, row.objective,
                row.tile_class if row.tile_class is not None
                else "infeasible",
                row.num_clusters if row.num_clusters is not None else "-",
                row.cost if row.cost is not None else "-",
                row.predicted_cycles if row.predicted_cycles is not None
                else "-",
                row.measured_cycles if row.measured_cycles is not None
                else "-",
                row.meets_deadline if row.meets_deadline is not None
                else "-",
            ])
        chart = line_chart(
            {name: {float(n): float(t) for n, t in curve.items()}
             for name, curve in self.curves.items()},
            title=f"measured runtime vs N at M={self.curve_m} "
                  "(curves cross where the wide class's faster compute "
                  "amortizes its dispatch cost)")
        return "\n\n".join([fits.render(), scenarios.render(), chart])


def fabric_experiment(
        n_values: typing.Sequence[int] = FABRIC_N_VALUES,
        m_values: typing.Sequence[int] = (1, 2, 3, 4),
        scenarios: typing.Sequence[
            typing.Tuple[int, float, str]] = FABRIC_SCENARIOS,
        classes: typing.Tuple[str, str] = ("snitch", "vecwide"),
        num_clusters: int = 8, margin: float = 0.02,
        **config_overrides) -> FabricExperiment:
    """Answer "which fabric" for each scenario, end to end.

    Builds a mixed config of ``num_clusters`` tiles split evenly
    between the two ``classes``, sweeps each group, fits per-class
    models, and solves + verifies every ``(n, t_max, objective)``
    scenario.  ``margin`` guard-bands the deadline by the fits'
    validated error before inverting, exactly as the homogeneous
    decision experiment does.
    """
    if not 0.0 <= margin < 1.0:
        raise DecisionError(f"margin must be in [0, 1), got {margin}")
    little_name, big_name = classes
    little_count = num_clusters - num_clusters // 2
    big_count = num_clusters // 2
    for class_name, count in ((little_name, little_count),
                              (big_name, big_count)):
        if count < 2:
            # One tile gives one M, and a per-class fit needs M to vary.
            raise DecisionError(
                f"tile class {class_name!r} gets {count} of "
                f"{num_clusters} tiles; each class needs at least 2")
    groups = {
        little_name: TileGroup("little", little_name, little_count),
        big_name: TileGroup("big", big_name, big_count),
    }
    config = SoCConfig.with_fabric(
        (groups[little_name], groups[big_name]),
        multicast=True, hw_sync=True, **config_overrides)

    # Per-group sweeps and per-class fits.
    triples: typing.Dict[
        str, typing.List[typing.Tuple[int, int, float]]] = {}
    curves: typing.Dict[str, typing.Dict[int, int]] = {}
    curve_m = min(2, min(group.count for group in groups.values()))
    for class_name, group in groups.items():
        result = sweep(config, "daxpy", n_values,
                       usable_ms(m_values, config, group.name),
                       scalars={"a": 2.0}, tile_group=group.name)
        triples[class_name] = result.triples()
        curves[class_name] = {
            n: result.runtime(n, curve_m) for n in n_values}
    fits = fit_class_models(triples)

    # Decision scenarios over the fitted per-class models.
    options = [
        FabricOption(
            tile_class=class_name,
            model=fits[class_name].model,
            max_clusters=groups[class_name].count,
            tile_area_mm2=get_tile_class(class_name).area_mm2,
            tile_power=get_tile_class(class_name).tile_power)
        for class_name in classes
    ]
    group_of_class = {name: group.name for name, group in groups.items()}
    rows = []
    for n, t_max, objective in scenarios:
        try:
            decision = choose_fabric(options, n, t_max * (1 - margin),
                                     objective=objective)
        except DecisionError:
            rows.append(FabricScenarioRow(
                n=n, t_max=t_max, objective=objective, tile_class=None,
                num_clusters=None, cost=None, predicted_cycles=None,
                measured_cycles=None, meets_deadline=None))
            continue
        from repro.soc.manticore import ManticoreSystem
        measured = offload(
            ManticoreSystem(config), "daxpy", n, decision.num_clusters,
            scalars={"a": 2.0},
            tile_group=group_of_class[decision.tile_class]).runtime_cycles
        rows.append(FabricScenarioRow(
            n=n, t_max=t_max, objective=objective,
            tile_class=decision.tile_class,
            num_clusters=decision.num_clusters,
            cost=decision.cost,
            predicted_cycles=decision.predicted_cycles,
            measured_cycles=measured,
            meets_deadline=measured <= t_max))
    return FabricExperiment(
        fabric_description=config.describe(),
        class_fits=fits, curves=curves, curve_m=curve_m,
        rows=tuple(rows))
