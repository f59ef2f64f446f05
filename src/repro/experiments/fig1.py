"""E1/E2: the paper's headline figure, both panels.

Fig. 1 (left) sweeps the offload width M at fixed N and compares the
baseline and extended designs; Fig. 1 (right) generalizes the
comparison into a speedup grid over (N, M).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.charts import line_chart
from repro.analysis.stats import crossover_m
from repro.analysis.tables import Table
from repro.core.mape import PAPER_M_VALUES
from repro.core.sweep import sweep
from repro.experiments.base import (
    FIG1_RIGHT_N_VALUES,
    Experiment,
    paper_configs,
    usable_ms,
)


@dataclasses.dataclass(frozen=True)
class Fig1Left(Experiment):
    """Runtime of an N-element DAXPY vs cluster count, both designs."""

    n: int
    baseline: typing.Dict[int, int]
    extended: typing.Dict[int, int]

    @property
    def gap_at_max_m(self) -> int:
        """Baseline-minus-extended cycles at the widest offload."""
        m = max(self.extended)
        return self.baseline[m] - self.extended[m]

    @property
    def max_speedup(self) -> float:
        """Best baseline/extended ratio over the M axis."""
        return max(self.baseline[m] / self.extended[m] for m in self.extended)

    @property
    def baseline_optimum_m(self) -> int:
        """The interior minimum of the baseline curve."""
        return crossover_m(self.baseline)

    def csv_columns(self) -> typing.Sequence[str]:
        return ("m", "baseline_cycles", "extended_cycles", "speedup")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for m in sorted(self.extended):
            yield (m, self.baseline[m], self.extended[m],
                   self.baseline[m] / self.extended[m])

    def render(self) -> str:
        table = Table(["M", "baseline [cycles]", "extended [cycles]",
                       "speedup"],
                      title=f"Fig. 1 (left): DAXPY n={self.n} runtime vs "
                            "cluster count")
        for m in sorted(self.extended):
            table.add_row([m, self.baseline[m], self.extended[m],
                           self.baseline[m] / self.extended[m]])
        chart = line_chart(
            {"baseline": {m: float(t) for m, t in self.baseline.items()},
             "extended": {m: float(t) for m, t in self.extended.items()}},
            title="runtime [cycles] vs M")
        notes = (
            f"baseline optimum at M={self.baseline_optimum_m}; "
            f"gap at M={max(self.extended)}: {self.gap_at_max_m} cycles; "
            f"max speedup {100 * (self.max_speedup - 1):.1f} % "
            "(paper: >300 cycles, 47.9 %)")
        return "\n\n".join([table.render(), chart, notes])


def fig1_left(n: int = 1024,
              m_values: typing.Sequence[int] = PAPER_M_VALUES,
              **config_overrides) -> Fig1Left:
    """Measure Fig. 1 (left): runtime vs M for both designs."""
    base_cfg, ext_cfg = paper_configs(**config_overrides)
    m_values = usable_ms(m_values, base_cfg)
    base = sweep(base_cfg, "daxpy", [n], m_values)
    ext = sweep(ext_cfg, "daxpy", [n], m_values)
    return Fig1Left(n=n, baseline=base.runtimes_by_m(n),
                    extended=ext.runtimes_by_m(n))


@dataclasses.dataclass(frozen=True)
class Fig1Right(Experiment):
    """Speedup of the extended design over the baseline across (N, M)."""

    speedups: typing.Dict[typing.Tuple[int, int], float]  # (M, N) -> ratio

    def n_values(self) -> typing.List[int]:
        return sorted({n for _m, n in self.speedups})

    def m_values(self) -> typing.List[int]:
        return sorted({m for m, _n in self.speedups})

    def by_n(self, n: int) -> typing.Dict[int, float]:
        return {m: s for (m, nn), s in sorted(self.speedups.items())
                if nn == n}

    @property
    def min_speedup(self) -> float:
        return min(self.speedups.values())

    @property
    def max_speedup(self) -> float:
        return max(self.speedups.values())

    def csv_columns(self) -> typing.Sequence[str]:
        return ("n", "m", "speedup")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for n in self.n_values():
            for m, speedup in self.by_n(n).items():
                yield (n, m, speedup)

    def render(self) -> str:
        ms = self.m_values()
        table = Table(["N \\ M"] + [str(m) for m in ms],
                      title="Fig. 1 (right): speedup of extended over "
                            "baseline")
        for n in self.n_values():
            row = self.by_n(n)
            table.add_row([n] + [row[m] for m in ms])
        notes = (f"speedup range {self.min_speedup:.3f} .. "
                 f"{self.max_speedup:.3f}; always > 1 and decreasing "
                 "with N at fixed M (paper's claims)")
        return "\n\n".join([table.render(), notes])


def fig1_right(n_values: typing.Sequence[int] = FIG1_RIGHT_N_VALUES,
               m_values: typing.Sequence[int] = PAPER_M_VALUES,
               **config_overrides) -> Fig1Right:
    """Measure Fig. 1 (right): the speedup grid."""
    base_cfg, ext_cfg = paper_configs(**config_overrides)
    m_values = usable_ms(m_values, base_cfg)
    base = sweep(base_cfg, "daxpy", n_values, m_values)
    ext = sweep(ext_cfg, "daxpy", n_values, m_values)
    return Fig1Right(speedups=ext.speedup_grid(base))
