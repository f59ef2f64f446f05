"""Model-fit quality reporting.

:meth:`repro.core.model.OffloadModel.fit` produces the coefficients;
this module quantifies how well they describe the measurements —
R², MAPE, worst-case APE and residuals — and compares a fitted model
against the paper's published constants.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro.core.mape import mape, max_ape
from repro.core.model import OffloadModel
from repro.errors import ModelError


@dataclasses.dataclass(frozen=True)
class FitReport:
    """Goodness-of-fit of a model against a measurement set."""

    model: OffloadModel
    num_points: int
    r_squared: float
    mape_percent: float
    max_ape_percent: float
    residuals: typing.Tuple[float, ...]

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            self.model.describe(),
            f"  points:  {self.num_points}",
            f"  R^2:     {self.r_squared:.6f}",
            f"  MAPE:    {self.mape_percent:.3f} %",
            f"  max APE: {self.max_ape_percent:.3f} %",
        ]
        return "\n".join(lines)


def fit_report(model: OffloadModel,
               measurements: typing.Sequence[typing.Tuple[int, int, float]]
               ) -> FitReport:
    """Evaluate ``model`` against ``(M, N, cycles)`` measurements."""
    measurements = list(measurements)
    if not measurements:
        raise ModelError("cannot evaluate a fit against zero measurements")
    actual = numpy.array([t for _m, _n, t in measurements], dtype=float)
    predicted = numpy.array(
        [model.predict(m, n) for m, n, _t in measurements])
    residuals = actual - predicted
    total = float(numpy.sum((actual - actual.mean()) ** 2))
    if total == 0.0:
        r_squared = 1.0 if numpy.allclose(residuals, 0) else 0.0
    else:
        r_squared = 1.0 - float(numpy.sum(residuals ** 2)) / total
    return FitReport(
        model=model,
        num_points=len(measurements),
        r_squared=r_squared,
        mape_percent=mape(actual, predicted),
        max_ape_percent=max_ape(actual, predicted),
        residuals=tuple(float(r) for r in residuals),
    )

