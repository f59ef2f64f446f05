"""The analytic offload-runtime model (the paper's Eq. 1, generalized).

The paper models the runtime of an offloaded DAXPY of size N on M
clusters as::

    t̂(M, N) = 367 + N/4 + 2.6·N/(M·8)          (Eq. 1)

i.e. a constant offload overhead, a memory-traffic term linear in N
(the serialized DMA over the shared channel), and a compute term that
parallelizes over M clusters.  We generalize with one extra term that
Eq. 1 does not need because the extended design's dispatch is constant:
a per-cluster dispatch cost ``d·M``, which lets the same model family
describe the *baseline* design whose overhead grows linearly in M::

    t̂(M, N) = t0 + d·M + b·N + c·N/M

Coefficients are either inspected (as the paper derives its constants
from the RTL and the compiled binary) or fitted with least squares from
a measurement sweep (:meth:`OffloadModel.fit`).
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy

from repro.errors import ModelError


@dataclasses.dataclass(frozen=True)
class OffloadModel:
    """``t̂(M, N) = t0 + d·M + b·N + c·N/M`` (cycles)."""

    #: Constant offload overhead (cycles).
    t0: float
    #: Memory-traffic coefficient ``b`` (cycles per element).
    mem_coeff: float
    #: Compute coefficient ``c`` (cycles per element, divided by M).
    compute_coeff: float
    #: Per-cluster dispatch coefficient ``d`` (0 for constant dispatch).
    dispatch_coeff: float = 0.0
    #: Human-readable provenance label.
    label: str = ""

    def __post_init__(self) -> None:
        if self.t0 < 0 or self.mem_coeff < 0 or self.compute_coeff < 0 \
                or self.dispatch_coeff < 0:
            raise ModelError(
                f"model coefficients must be non-negative: {self}")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, num_clusters: int, n: int) -> float:
        """Predicted runtime t̂(M, N) in cycles."""
        if num_clusters <= 0:
            raise ModelError(f"M must be positive, got {num_clusters}")
        if n < 0:
            raise ModelError(f"N must be non-negative, got {n}")
        return (self.t0
                + self.dispatch_coeff * num_clusters
                + self.mem_coeff * n
                + self.compute_coeff * n / num_clusters)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def serial_cycles(self, n: int) -> float:
        """Amdahl serial fraction numerator: cycles that do not scale with M."""
        return self.t0 + self.mem_coeff * n

    def best_m(self, n: int, max_clusters: int) -> int:
        """The M in ``[1, max_clusters]`` minimizing predicted runtime.

        With ``d = 0`` the model is monotone decreasing in M and the
        answer is ``max_clusters``; with ``d > 0`` the interior optimum
        ``sqrt(c·N/d)`` is checked against its integer neighbours.
        """
        if max_clusters <= 0:
            raise ModelError(f"max_clusters must be positive, got {max_clusters}")
        if self.dispatch_coeff == 0:
            return max_clusters
        star = math.sqrt(self.compute_coeff * n / self.dispatch_coeff) \
            if self.compute_coeff * n > 0 else 1.0
        candidates = {1, max_clusters,
                      min(max_clusters, max(1, math.floor(star))),
                      min(max_clusters, max(1, math.ceil(star)))}
        return min(candidates, key=lambda m: (self.predict(m, n), m))

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, measurements: typing.Sequence[typing.Tuple[int, int, float]],
            include_dispatch_term: bool = False,
            label: str = "fitted") -> "OffloadModel":
        """Least-squares fit of the model to ``(M, N, cycles)`` triples.

        ``include_dispatch_term`` adds the ``d·M`` column (fit this when
        modeling the baseline design; the extended design's dispatch is
        constant and the column would be collinear with noise).

        Raises
        ------
        ModelError
            If there are fewer measurements than free coefficients or
            the fit produces a (physically meaningless) negative
            coefficient.
        """
        measurements = list(measurements)
        num_params = 4 if include_dispatch_term else 3
        if len(measurements) < num_params:
            raise ModelError(
                f"need at least {num_params} measurements, "
                f"got {len(measurements)}")
        m_values = numpy.array([float(m) for m, _n, _t in measurements])
        n_values = numpy.array([float(n) for _m, n, _t in measurements])
        t_values = numpy.array([float(t) for _m, _n, t in measurements])
        if (m_values <= 0).any():
            raise ModelError("all M values must be positive")
        columns = [numpy.ones_like(m_values), n_values, n_values / m_values]
        if include_dispatch_term:
            columns.append(m_values)
        design = numpy.column_stack(columns)
        coeffs, _res, rank, _sv = numpy.linalg.lstsq(design, t_values,
                                                     rcond=None)
        if rank < num_params:
            raise ModelError(
                "measurement grid is degenerate (vary both M and N to "
                "identify all coefficients)")
        t0, mem_coeff, compute_coeff = coeffs[:3]
        dispatch_coeff = coeffs[3] if include_dispatch_term else 0.0
        # Clamp tiny negative values produced by noise; reject real ones.
        def clamp(value: float, name: str) -> float:
            if value < -1.0:
                raise ModelError(
                    f"fit produced a negative {name} coefficient "
                    f"({value:.3f}); the model family does not describe "
                    "these measurements")
            return max(0.0, float(value))

        return cls(
            t0=clamp(t0, "constant"),
            mem_coeff=clamp(mem_coeff, "memory"),
            compute_coeff=clamp(compute_coeff, "compute"),
            dispatch_coeff=clamp(dispatch_coeff, "dispatch"),
            label=label)

    def describe(self) -> str:
        """Render the model as an Eq.-1-style formula string."""
        parts = [f"{self.t0:.1f}"]
        if self.dispatch_coeff:
            parts.append(f"{self.dispatch_coeff:.2f}*M")
        parts.append(f"{self.mem_coeff:.4f}*N")
        parts.append(f"{self.compute_coeff:.4f}*N/M")
        body = " + ".join(parts)
        suffix = f"  [{self.label}]" if self.label else ""
        return f"t(M,N) = {body}{suffix}"


#: The paper's Eq. 1 with its inspected constants (extended design).
PAPER_DAXPY_MODEL = OffloadModel(
    t0=367.0, mem_coeff=0.25, compute_coeff=2.6 / 8, dispatch_coeff=0.0,
    label="paper Eq. 1")


@dataclasses.dataclass(frozen=True)
class TileClassModel:
    """Eq. 1 re-fitted for one tile class of a heterogeneous fabric.

    The model family is unchanged — a tile class alters the
    *coefficients* (its compute rates move ``c``, its dispatch/wake
    latencies move ``t0`` and ``d``), not the structure, so each class
    gets its own least-squares fit over a sweep of its own group.
    ``mape_percent`` is the in-sample Eq. 2 error of that fit, the same
    metric the paper reports for the homogeneous model.
    """

    tile_class: str
    model: OffloadModel
    num_points: int
    mape_percent: float

    def describe(self) -> str:
        return (f"{self.tile_class}: {self.model.describe()}  "
                f"(MAPE {self.mape_percent:.2f} % over "
                f"{self.num_points} points)")


def fit_class_models(
    measurements_by_class: typing.Mapping[
        str, typing.Sequence[typing.Tuple[int, int, float]]],
    include_dispatch_term: bool = False,
) -> typing.Dict[str, TileClassModel]:
    """Fit one :class:`OffloadModel` per tile class.

    ``measurements_by_class`` maps a tile class name to its ``(M, N,
    cycles)`` triples (one per-group sweep each, e.g. via
    :meth:`~repro.core.sweep.SweepResult.triples`).  Raises
    :class:`~repro.errors.ModelError` naming the class whose
    measurements cannot be fitted.
    """
    fitted: typing.Dict[str, TileClassModel] = {}
    for tile_class, triples in measurements_by_class.items():
        triples = list(triples)
        try:
            model = OffloadModel.fit(
                triples, include_dispatch_term=include_dispatch_term,
                label=f"fitted[{tile_class}]")
        except ModelError as exc:
            raise ModelError(
                f"tile class {tile_class!r}: {exc}") from exc
        actual = numpy.array([t for _m, _n, t in triples], dtype=float)
        predicted = numpy.array(
            [model.predict(m, n) for m, n, _t in triples])
        error = float(100.0 * numpy.mean(
            numpy.abs(actual - predicted) / actual))
        fitted[tile_class] = TileClassModel(
            tile_class=tile_class, model=model,
            num_points=len(triples), mape_percent=error)
    return fitted
