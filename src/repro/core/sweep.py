"""Measurement sweeps over (kernel, N, M, variant) grids.

Every figure in the paper is a view over such a grid: Fig. 1 (left) is
``runtime vs M`` at fixed N for two variants, Fig. 1 (right) is the
ratio of two grids, and the MAPE table validates a model against one.
:func:`sweep` runs one simulation per grid point on a boot-state SoC
(pooled instances are reset bit-identically between points, so no state
leaks) and returns a queryable :class:`SweepResult`.

Grids rarely pay one simulation per point in practice: the
:class:`~repro.core.executor.SweepExecutor` consults the content-
addressed :class:`~repro.core.cache.SweepCache` first, then hands the
misses to the :class:`~repro.core.batch.BatchPlanner`, which times
provable points closed-form from a handful of calibration simulations
— and the calibrations themselves are persisted in the same cache (the
*calibration store*), so a warm store can measure a brand-new grid
without entering the event engine at all.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import OffloadError
from repro.soc.config import SoCConfig

if typing.TYPE_CHECKING:
    from repro.core.cache import SweepCache


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One measured grid point."""

    kernel_name: str
    n: int
    num_clusters: int
    variant: str
    runtime_cycles: int
    phases: typing.Mapping[str, int]


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """An immutable collection of sweep points with query helpers."""

    points: typing.Tuple[SweepPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> typing.Iterator[SweepPoint]:
        return iter(self.points)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(self, kernel_name: typing.Optional[str] = None,
               n: typing.Optional[int] = None,
               num_clusters: typing.Optional[int] = None,
               variant: typing.Optional[str] = None) -> "SweepResult":
        """Sub-grid matching the given coordinates."""
        selected = tuple(
            p for p in self.points
            if (kernel_name is None or p.kernel_name == kernel_name)
            and (n is None or p.n == n)
            and (num_clusters is None or p.num_clusters == num_clusters)
            and (variant is None or p.variant == variant)
        )
        return SweepResult(points=selected)

    def runtime(self, n: int, num_clusters: int) -> int:
        """The single runtime at (N, M); raises if absent or ambiguous."""
        matches = [p for p in self.points
                   if p.n == n and p.num_clusters == num_clusters]
        if len(matches) != 1:
            raise OffloadError(
                f"{len(matches)} sweep points at N={n}, M={num_clusters}; "
                "filter by kernel/variant first")
        return matches[0].runtime_cycles

    def runtimes_by_m(self, n: int) -> typing.Dict[int, int]:
        """``{M: cycles}`` at fixed N (after filtering to one variant)."""
        result: typing.Dict[int, int] = {}
        for point in self.points:
            if point.n != n:
                continue
            if point.num_clusters in result:
                raise OffloadError(
                    f"duplicate M={point.num_clusters} at N={n}; "
                    "filter by kernel/variant first")
            result[point.num_clusters] = point.runtime_cycles
        return dict(sorted(result.items()))

    def _memo(self, slot: str, compute: typing.Callable[[], typing.Any]
              ) -> typing.Any:
        """Lazily cache a derived view (the points tuple is immutable).

        The dataclass is frozen, so cached views go through
        ``object.__setattr__``; they are plain derived data, never part
        of equality or ``repr``.
        """
        cached = self.__dict__.get(slot)
        if cached is None:
            cached = compute()
            object.__setattr__(self, slot, cached)
        return cached

    def runtime_grid(self) -> typing.Dict[typing.Tuple[int, int], int]:
        """``{(M, N): cycles}`` over the whole (filtered) result.

        Memoized: large analyses (model fits, speedup grids) call this
        repeatedly; the scan runs once and callers get a fresh copy.
        """

        def compute() -> typing.Dict[typing.Tuple[int, int], int]:
            grid: typing.Dict[typing.Tuple[int, int], int] = {}
            for point in self.points:
                key = (point.num_clusters, point.n)
                if key in grid:
                    raise OffloadError(
                        f"duplicate grid point {key}; filter by "
                        "kernel/variant first")
                grid[key] = point.runtime_cycles
            return grid

        return dict(self._memo("_runtime_grid", compute))

    def triples(self) -> typing.List[typing.Tuple[int, int, float]]:
        """``(M, N, cycles)`` triples for :meth:`OffloadModel.fit`."""
        return [(p.num_clusters, p.n, float(p.runtime_cycles))
                for p in self.points]

    def n_values(self) -> typing.List[int]:
        return list(self._memo(
            "_n_values", lambda: tuple(sorted({p.n for p in self.points}))))

    def m_values(self) -> typing.List[int]:
        return list(self._memo(
            "_m_values",
            lambda: tuple(sorted({p.num_clusters for p in self.points}))))

    def speedup_grid(self, baseline: "SweepResult"
                     ) -> typing.Dict[typing.Tuple[int, int], float]:
        """``{(M, N): baseline_cycles / self_cycles}`` on shared points.

        This is Fig. 1 (right): the speedup of the extended design over
        the baseline across the grid.
        """
        ours = self.runtime_grid()
        theirs = baseline.runtime_grid()
        shared = sorted(set(ours) & set(theirs))
        if not shared:
            raise OffloadError("the two sweeps share no grid points")
        return {key: theirs[key] / ours[key] for key in shared}

    def merged(self, other: "SweepResult") -> "SweepResult":
        """Concatenation of two sweeps."""
        return SweepResult(points=self.points + other.points)


def sweep(config: SoCConfig, kernel_name: str,
          n_values: typing.Sequence[int], m_values: typing.Sequence[int],
          variant: str = "auto",
          scalars: typing.Optional[typing.Mapping[str, float]] = None,
          seed: int = 0, verify: bool = True,
          progress: typing.Optional[typing.Callable[[SweepPoint], None]] = None,
          jobs: int = 1, cache: typing.Optional["SweepCache"] = None,
          tile_group: typing.Optional[str] = None) -> SweepResult:
    """Measure a full (N, M) grid, one boot-state SoC per point.

    Every grid point is independent, so execution can fan out over
    worker processes; results come back in grid order (N-major, then M)
    regardless of ``jobs``, bit-identical to the serial path.  See
    :class:`repro.core.executor.SweepExecutor` for the machinery.

    Parameters
    ----------
    config:
        Fabric configuration; ``config.num_clusters`` is the fabric
        size, which every ``m`` must fit within.
    variant:
        Runtime variant for every point (``auto`` = all hardware
        features present in ``config``).
    progress:
        Optional callback invoked after each measured point, in grid
        order (used by the CLI to stream results).
    jobs:
        Worker processes: ``1`` (default) runs serially in-process,
        ``0`` uses every core, ``k > 1`` uses ``k`` workers.
    cache:
        Optional :class:`~repro.core.cache.SweepCache`; previously
        measured points are replayed from it instead of re-simulated.
    tile_group:
        Name of the fabric group to sweep over (heterogeneous fabrics);
        every ``m`` must fit within that group's tile count.  ``None``
        sweeps the fabric from cluster 0, the homogeneous behaviour.
    """
    from repro.core.executor import SweepExecutor

    executor = SweepExecutor(jobs=jobs, cache=cache)
    return executor.run(config, kernel_name, n_values, m_values,
                        variant=variant, scalars=scalars, seed=seed,
                        verify=verify, progress=progress,
                        tile_group=tile_group)
