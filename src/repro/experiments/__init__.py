"""The paper's experiments, each as a reusable function.

Every figure, table and equation in the evaluation is regenerated by
one function here, and so is every extension and ablation (the full
index, E1-E13 and A1-A6, lives in DESIGN.md §4):

========= ===================================== ==========================
paper     artifact                              function
========= ===================================== ==========================
Fig. 1 L  runtime vs M, baseline vs extended    :func:`fig1_left`
Fig. 1 R  speedup grid over (N, M)              :func:`fig1_right`
headline  47.9 % max speedup, >300-cycle gap    (asserted on Fig. 1 L)
Eq. 1     fitted runtime model coefficients     :func:`fit_model`
Eq. 2     per-N MAPE < 1 %                      :func:`mape_experiment`
Eq. 3     M_min under a deadline                :func:`decision_experiment`
A1        multicast vs sync-unit contributions  :func:`ablation_features`
A2        dispatch-cost sensitivity             :func:`ablation_dispatch`
A3        model generality across kernels       :func:`kernel_generality`
A4        poll-period sensitivity               :func:`ablation_poll`
A5        double-buffered vs phased protocol    :func:`ablation_double_buffer`
A6        tiling vs double buffering, big jobs  :func:`ablation_tiling`
========= ===================================== ==========================

The CLI (:mod:`repro.cli`) and the integration tests call these
functions, so the numbers printed and asserted are always the same.

The package splits one module per experiment family; every result type
subclasses :class:`repro.experiments.base.Experiment`, which adds CSV
export (:meth:`~repro.experiments.base.Experiment.to_csv`) on top of
the family-specific ``render()``.
"""

from __future__ import annotations

from repro.experiments.ablations import (
    DispatchAblation,
    DoubleBufferAblation,
    FeatureAblation,
    PollAblation,
    TilingAblation,
    ablation_dispatch,
    ablation_double_buffer,
    ablation_features,
    ablation_poll,
    ablation_tiling,
)
from repro.experiments.base import (
    FIG1_RIGHT_N_VALUES,
    GENERALITY_KERNELS,
    Experiment,
)
from repro.experiments.concurrency import (
    ConcurrencyExperiment,
    concurrency_experiment,
)
from repro.experiments.crossover import (
    CrossoverExperiment,
    CrossoverRow,
    crossover_experiment,
)
from repro.experiments.decision import (
    DecisionExperiment,
    DecisionRow,
    decision_experiment,
)
from repro.experiments.energy import EnergyExperiment, energy_experiment
from repro.experiments.fabric import (
    FabricExperiment,
    FabricScenarioRow,
    fabric_experiment,
)
from repro.experiments.fig1 import Fig1Left, Fig1Right, fig1_left, fig1_right
from repro.experiments.generality import KernelGenerality, kernel_generality
from repro.experiments.model import (
    MapeExperiment,
    ModelFit,
    fit_model,
    mape_experiment,
)
from repro.experiments.overlap import OverlapExperiment, overlap_experiment
from repro.experiments.scheduler import (
    SchedulerExperiment,
    scheduler_experiment,
)
from repro.experiments.traffic import TrafficExperiment, traffic_experiment

__all__ = [
    "FIG1_RIGHT_N_VALUES",
    "GENERALITY_KERNELS",
    "Experiment",
    "Fig1Left",
    "fig1_left",
    "Fig1Right",
    "fig1_right",
    "ModelFit",
    "fit_model",
    "MapeExperiment",
    "mape_experiment",
    "DecisionRow",
    "DecisionExperiment",
    "decision_experiment",
    "CrossoverRow",
    "CrossoverExperiment",
    "crossover_experiment",
    "EnergyExperiment",
    "energy_experiment",
    "FabricExperiment",
    "FabricScenarioRow",
    "fabric_experiment",
    "FeatureAblation",
    "ablation_features",
    "SchedulerExperiment",
    "scheduler_experiment",
    "ConcurrencyExperiment",
    "concurrency_experiment",
    "OverlapExperiment",
    "overlap_experiment",
    "DoubleBufferAblation",
    "ablation_double_buffer",
    "DispatchAblation",
    "ablation_dispatch",
    "KernelGenerality",
    "kernel_generality",
    "PollAblation",
    "ablation_poll",
    "TilingAblation",
    "ablation_tiling",
    "TrafficExperiment",
    "traffic_experiment",
]
