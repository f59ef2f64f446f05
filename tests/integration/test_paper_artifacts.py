"""The paper's tables, pinned: each experiment regenerates its committed CSV.

``results/`` holds the Fig. 1 grids, the fitted Eq. 1 constants, the
Eq. 2 MAPE table, the Eq. 3 decision rows and the A1/A3/A6 ablations,
so a change that moves any of the paper's numbers shows as a failing test
(and as a ``cmp`` failure in CI) rather than slipping through a band.

Tables built from NumPy least-squares fits (Eq. 1, Eq. 2, the Eq. 3
predictions and A3) may differ in the last bits between BLAS builds, so
their float cells compare to 1e-9 relative here; every other cell, and
every cell of the simulated tables, compares exactly.
"""

import math
import pathlib

import pytest

from repro.experiments import (
    ablation_features,
    ablation_tiling,
    decision_experiment,
    fig1_left,
    fig1_right,
    fit_model,
    kernel_generality,
    mape_experiment,
)

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"

#: Committed file -> (experiment, whether its floats come from a fit).
ARTIFACTS = {
    "fig1_left.csv": (fig1_left, False),
    "fig1_right.csv": (fig1_right, False),
    "eq1_fit.csv": (fit_model, True),
    "eq2_mape.csv": (mape_experiment, True),
    "eq3_decision.csv": (decision_experiment, True),
    "a1_features.csv": (ablation_features, False),
    "a3_generality.csv": (kernel_generality, True),
    "a6_tiling.csv": (ablation_tiling, False),
}


def _same_cell(ours: str, committed: str) -> bool:
    if ours == committed:
        return True
    try:
        return math.isclose(float(ours), float(committed), rel_tol=1e-9)
    except ValueError:
        return False


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_paper_table_matches_the_committed_artifact(name):
    experiment, fitted = ARTIFACTS[name]
    committed = (RESULTS / name).read_text()
    regenerated = experiment().to_csv()
    if not fitted:
        assert regenerated == committed
        return
    ours, theirs = regenerated.splitlines(), committed.splitlines()
    assert len(ours) == len(theirs)
    for row, (mine, pinned) in enumerate(zip(ours, theirs)):
        mine_cells, pinned_cells = mine.split(","), pinned.split(",")
        assert len(mine_cells) == len(pinned_cells), (name, row)
        assert all(_same_cell(a, b)
                   for a, b in zip(mine_cells, pinned_cells)), (name, row,
                                                                mine, pinned)
