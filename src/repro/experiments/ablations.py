"""A1/A2/A4/A5/A6: the ablations — features, dispatch cost, polling,
protocol, and jobs larger than the staged working set."""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.stats import crossover_m
from repro.analysis.tables import Table
from repro.core.mape import PAPER_M_VALUES, mape
from repro.core.model import OffloadModel
from repro.core.offload import offload
from repro.core.sweep import sweep
from repro.core.tiling import offload_tiled
from repro.experiments.base import Experiment, usable_ms
from repro.experiments.model import fit_model
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


# ======================================================================
# A1: multicast vs sync-unit contributions
# ======================================================================
@dataclasses.dataclass(frozen=True)
class FeatureAblation(Experiment):
    """Runtime vs M for all four hardware/software variant pairings."""

    n: int
    runtimes: typing.Dict[str, typing.Dict[int, int]]  # variant -> M -> t

    def csv_columns(self) -> typing.Sequence[str]:
        return ("variant", "m", "runtime_cycles")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for variant, curve in self.runtimes.items():
            for m in sorted(curve):
                yield (variant, m, curve[m])

    def render(self) -> str:
        variants = list(self.runtimes)
        ms = sorted(next(iter(self.runtimes.values())))
        table = Table(["M"] + variants,
                      title=f"A1: feature ablation, DAXPY n={self.n} "
                            "(cycles)")
        for m in ms:
            table.add_row([m] + [self.runtimes[v][m] for v in variants])
        return table.render()


def ablation_features(n: int = 1024,
                      m_values: typing.Sequence[int] = PAPER_M_VALUES,
                      **config_overrides) -> FeatureAblation:
    """Isolate each extension: baseline, each alone, both together."""
    config = SoCConfig.extended(**config_overrides)  # HW has everything
    m_values = usable_ms(m_values, config)
    runtimes = {}
    for variant in ("baseline", "multicast_only", "hw_sync_only", "extended"):
        result = sweep(config, "daxpy", [n], m_values, variant=variant)
        runtimes[variant] = result.runtimes_by_m(n)
    return FeatureAblation(n=n, runtimes=runtimes)


# ======================================================================
# A5: double-buffered execution vs the paper's phased protocol
# ======================================================================
@dataclasses.dataclass(frozen=True)
class DoubleBufferAblation(Experiment):
    """Phased vs double-buffered runtimes across M (and the model's fate)."""

    n: int
    phased: typing.Dict[int, int]
    double_buffered: typing.Dict[int, int]
    phased_model: OffloadModel
    dbuf_mape_vs_phased_model: float

    def csv_columns(self) -> typing.Sequence[str]:
        return ("m", "phased_cycles", "double_buffered_cycles")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for m in sorted(self.phased):
            yield (m, self.phased[m], self.double_buffered[m])

    def render(self) -> str:
        table = Table(["M", "phased [cycles]", "double-buffered [cycles]",
                       "speedup"],
                      title=f"A5: execution-protocol ablation, DAXPY "
                            f"n={self.n}")
        for m in sorted(self.phased):
            table.add_row([m, self.phased[m], self.double_buffered[m],
                           self.phased[m] / self.double_buffered[m]])
        notes = (
            "double buffering overlaps the DMA and compute phases, so the "
            "additive Eq.-1 structure no longer describes it: the phased "
            "model mispredicts the double-buffered runtimes by "
            f"{self.dbuf_mape_vs_phased_model:.1f} % MAPE (vs <1 % for the "
            "phased protocol).  The overlap pays most at narrow offloads, "
            "where the memory term dominates.")
        return "\n\n".join([table.render(), notes])


def ablation_double_buffer(n: int = 8192,
                           m_values: typing.Sequence[int] = PAPER_M_VALUES,
                           **config_overrides) -> DoubleBufferAblation:
    """Compare the two device execution protocols on large DAXPYs."""
    config = SoCConfig.extended(**config_overrides)
    m_values = usable_ms(m_values, config)
    phased, dbuf = {}, {}
    for m in m_values:
        phased[m] = offload(ManticoreSystem(config), "daxpy", n, m,
                            exec_mode="phased").runtime_cycles
        dbuf[m] = offload(ManticoreSystem(config), "daxpy", n, m,
                          exec_mode="double_buffered").runtime_cycles
    model = fit_model(**config_overrides).report.model
    predictions = [model.predict(m, n) for m in m_values]
    error = mape([dbuf[m] for m in m_values], predictions)
    return DoubleBufferAblation(
        n=n, phased=phased, double_buffered=dbuf, phased_model=model,
        dbuf_mape_vs_phased_model=error)


# ======================================================================
# A6: jobs larger than the staged working set — tiling vs double buffering
# ======================================================================
@dataclasses.dataclass(frozen=True)
class TilingAblation(Experiment):
    """Sequential tile offloads vs one double-buffered offload, per M."""

    n: int
    tiles: typing.Dict[int, int]              # M -> tile count
    tiled: typing.Dict[int, int]              # M -> summed tile cycles
    double_buffered: typing.Dict[int, int]    # M -> runtime

    def csv_columns(self) -> typing.Sequence[str]:
        return ("m", "tiles", "tiled_cycles", "double_buffered_cycles")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for m in sorted(self.tiled):
            yield (m, self.tiles[m], self.tiled[m], self.double_buffered[m])

    def render(self) -> str:
        table = Table(["M", "tiles", "tiled [cycles]",
                       "double-buffered [cycles]", "speedup"],
                      title=f"A6: TCDM-exceeding DAXPY n={self.n}")
        for m in sorted(self.tiled):
            table.add_row([m, self.tiles[m], self.tiled[m],
                           self.double_buffered[m],
                           self.tiled[m] / self.double_buffered[m]])
        notes = (
            "at these widths the job's slices overflow the TCDM, so the "
            "phased protocol cannot stage it.  Tiling runs it as "
            "sequential phased offloads, each paying the full constant "
            "offload overhead; the double-buffered protocol pays it once "
            "and overlaps DMA with compute, so it wins at every width.")
        return "\n\n".join([table.render(), notes])


def ablation_tiling(n: int = 65536,
                    m_values: typing.Sequence[int] = (1, 2, 4),
                    **config_overrides) -> TilingAblation:
    """Run a job too large to stage both ways: tiled and double-buffered."""
    config = SoCConfig.extended(**config_overrides)
    tiles, tiled, dbuf = {}, {}, {}
    for m in usable_ms(m_values, config):
        result = offload_tiled(ManticoreSystem(config), "daxpy", n, m)
        tiles[m], tiled[m] = result.num_tiles, result.total_cycles
        dbuf[m] = offload(ManticoreSystem(config), "daxpy", n, m,
                          exec_mode="double_buffered").runtime_cycles
    return TilingAblation(n=n, tiles=tiles, tiled=tiled,
                          double_buffered=dbuf)


# ======================================================================
# A2: dispatch-cost sensitivity
# ======================================================================
@dataclasses.dataclass(frozen=True)
class DispatchAblation(Experiment):
    """Baseline optimum M as a function of per-cluster dispatch cost."""

    n: int
    optima: typing.Dict[int, int]          # store occupancy -> best M
    curves: typing.Dict[int, typing.Dict[int, int]]

    def csv_columns(self) -> typing.Sequence[str]:
        return ("store_occupancy", "m", "runtime_cycles")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for occupancy, curve in sorted(self.curves.items()):
            for m in sorted(curve):
                yield (occupancy, m, curve[m])

    def render(self) -> str:
        table = Table(["store occupancy [cycles]", "baseline optimum M"],
                      title=f"A2: dispatch-cost sensitivity, DAXPY "
                            f"n={self.n}")
        for cost, best in sorted(self.optima.items()):
            table.add_row([cost, best])
        return table.render()


def ablation_dispatch(n: int = 1024,
                      occupancies: typing.Sequence[int] = (2, 4, 8, 16, 32),
                      m_values: typing.Sequence[int] = PAPER_M_VALUES,
                      **config_overrides) -> DispatchAblation:
    """Sweep the host store occupancy; watch the baseline optimum move."""
    optima, curves = {}, {}
    for occupancy in occupancies:
        config = SoCConfig.baseline(noc_store_occupancy=occupancy,
                                    **config_overrides)
        result = sweep(config, "daxpy", [n], usable_ms(m_values, config))
        curve = result.runtimes_by_m(n)
        curves[occupancy] = curve
        optima[occupancy] = crossover_m(curve)
    return DispatchAblation(n=n, optima=optima, curves=curves)


# ======================================================================
# A4: poll-period sensitivity
# ======================================================================
@dataclasses.dataclass(frozen=True)
class PollAblation(Experiment):
    """Baseline completion overhead vs the host's poll gap."""

    n: int
    m: int
    runtimes: typing.Dict[int, int]        # poll gap -> runtime
    extended_runtime: int

    def csv_columns(self) -> typing.Sequence[str]:
        return ("poll_gap", "baseline_runtime_cycles")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        for gap, runtime in sorted(self.runtimes.items()):
            yield (gap, runtime)

    def render(self) -> str:
        table = Table(["poll gap [cycles]", "baseline runtime",
                       "vs extended"],
                      title=f"A4: poll-period sensitivity, DAXPY "
                            f"n={self.n}, M={self.m} "
                            f"(extended: {self.extended_runtime})")
        for gap, runtime in sorted(self.runtimes.items()):
            table.add_row([gap, runtime,
                           runtime / self.extended_runtime])
        return table.render()


def ablation_poll(n: int = 1024, m: int = 8,
                  poll_gaps: typing.Sequence[int] = (0, 4, 16, 64, 256),
                  **config_overrides) -> PollAblation:
    """Sweep the baseline's poll gap; the interrupt path has no analog."""
    runtimes = {}
    for gap in poll_gaps:
        config = SoCConfig.baseline(host_poll_gap_cycles=gap,
                                    **config_overrides)
        m = min(m, config.num_clusters)
        result = sweep(config, "daxpy", [n], [m])
        runtimes[gap] = result.runtime(n, m)
    ext = sweep(SoCConfig.extended(**config_overrides), "daxpy", [n], [m])
    return PollAblation(n=n, m=m, runtimes=runtimes,
                        extended_runtime=ext.runtime(n, m))
