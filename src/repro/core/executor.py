"""Cached, batch-planned execution of measurement sweeps.

Every grid point runs on a boot-state
:class:`~repro.soc.manticore.ManticoreSystem`, so points share no state
and any execution order yields the same measurements.
:class:`SweepExecutor` runs a grid in-process along one path:

- **memoization** — an optional :class:`~repro.core.cache.SweepCache`
  is consulted first: the call's coordinates (config, kernel, resolved
  variant, resolved scalars, tile group) open one store file, and each
  point is looked up there by its (N, M), so repeated sweeps skip
  simulation entirely.  The seed is not a coordinate: it changes no
  cycle, and a stored point is timing only;
- **batch planning** — the :class:`~repro.core.batch.BatchPlanner`
  times every point it can prove from a few calibration runs, filling
  the grid's slots out of order;
- **simulation** — the points the planner hands back are simulated one
  by one.  Systems are leased from a process-wide
  :class:`~repro.soc.pool.SystemPool`, so successive same-config points
  reuse one constructed SoC via the bit-identical
  :meth:`~repro.soc.manticore.ManticoreSystem.reset` instead of paying
  construction per point (disable with the ``REPRO_FRESH_SYSTEMS``
  environment variable).

Determinism guarantee
---------------------
Results are returned **by grid coordinate** (N-major, then M), never by
the order slots were filled, and each point's simulation is
bit-reproducible on a fresh SoC.  A ``progress`` callback observes the
points in that same grid order.

Each :meth:`SweepExecutor.run` ends by building one :class:`SweepStats`
record of what it did (cache, planner, pool and engine counts); the
CLI's ``--stats`` flag sums those records.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import typing

from repro import flags
from repro.core.batch import BatchPlanner
from repro.core.cache import SweepCache
from repro.core.offload import offload
from repro.core.staging import resolve_scalars
from repro.core.sweep import SweepPoint, SweepResult
from repro.errors import OffloadError
from repro.kernels.base import Kernel
from repro.kernels.registry import get_kernel
from repro.runtime.strategies import resolve_variant
from repro.soc.config import SoCConfig
from repro.soc.pool import SystemPool


#: Process-wide system pool, so successive same-config points construct
#: a single SoC.
_SYSTEM_POOL = SystemPool()

#: The :class:`SweepStats` fields that label a run instead of counting.
_LABELS = ("tile_group", "tile_class")


@dataclasses.dataclass(frozen=True)
class SweepStats:
    """What one :meth:`SweepExecutor.run` did, built once at its end.

    Every field but the two labels counts (or times) this run only:

    - ``points`` / ``elapsed_seconds`` — grid size and wall time;
    - ``cache_hits`` / ``cache_misses`` — point-cache outcomes;
    - ``simulated_points`` — event-engine simulations actually run
      (``0`` on a fully cached sweep), the
      :class:`~repro.core.batch.BatchPlanner`'s calibration runs
      included;
    - ``planned_points`` / ``batch_fallback_points`` — points the
      planner timed by closed form vs. examined and handed back;
    - ``prefixes_calibrated`` / ``prefixes_predicted`` — M groups whose
      dispatch prefix came from a calibration simulation vs. from the
      affine M-model or the calibration store (no simulation);
    - ``mmodels_fitted`` / ``holdout_fallbacks`` — affine M-axis models
      fitted-and-holdout-verified vs. fit attempts abandoned;
    - ``calibration_store_hits`` / ``calibration_store_misses`` —
      persistent calibration-store outcomes (prefixes and M-models);
    - ``cache_evictions`` — store files the LRU bound removed;
    - ``pool_hits`` / ``pool_builds`` / ``pool_dropped`` and
      ``sim_resumes`` — :class:`~repro.soc.pool.SystemPool` reuse and
      event-engine process wake-ups.

    ``tile_group`` is the targeted fabric group (``None``: the whole
    fabric) and ``tile_class`` the class of the widest span (``"mixed"``
    when it crosses classes).
    """

    points: int = 0
    tile_group: typing.Optional[str] = None
    tile_class: typing.Optional[str] = None
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated_points: int = 0
    planned_points: int = 0
    batch_fallback_points: int = 0
    prefixes_calibrated: int = 0
    prefixes_predicted: int = 0
    mmodels_fitted: int = 0
    holdout_fallbacks: int = 0
    calibration_store_hits: int = 0
    calibration_store_misses: int = 0
    cache_evictions: int = 0
    pool_hits: int = 0
    pool_builds: int = 0
    pool_dropped: int = 0
    sim_resumes: int = 0

    @property
    def points_per_second(self) -> float:
        """Grid points per wall-clock second of the run."""
        return (self.points / self.elapsed_seconds
                if self.elapsed_seconds > 0 else float("inf"))

    @property
    def batch_plan_hit_rate(self) -> float:
        """Planned share of the points the planner examined."""
        examined = self.planned_points + self.batch_fallback_points
        return self.planned_points / examined if examined else 0.0

    @classmethod
    def total(cls, runs: typing.Iterable["SweepStats"]) -> "SweepStats":
        """Every count summed over ``runs``; a label is kept only where
        all runs share it."""
        runs = list(runs)
        summed: typing.Dict[str, typing.Any] = {}
        for field in dataclasses.fields(cls):
            values = [getattr(run, field.name) for run in runs]
            if field.name not in _LABELS:
                summed[field.name] = sum(values)
            elif len(set(values)) == 1:
                summed[field.name] = values[0]
        return cls(**summed)


#: Opt-in log of every run's :class:`SweepStats` (see
#: :func:`collect_run_stats`); experiments build executors internally,
#: so the CLI's ``--stats`` flag observes them through this hook
#: instead of threading a parameter through every experiment signature.
_RUN_STATS_LOG: typing.List[SweepStats] = []
_LOG_RUN_STATS = False


def collect_run_stats(enabled: bool = True) -> None:
    """Start (or stop) logging every ``SweepExecutor.run`` record."""
    global _LOG_RUN_STATS
    _LOG_RUN_STATS = enabled
    _RUN_STATS_LOG.clear()


def drain_run_stats() -> typing.List[SweepStats]:
    """Return and clear the collected run records."""
    drained = list(_RUN_STATS_LOG)
    _RUN_STATS_LOG.clear()
    return drained


def _store_coords(config: SoCConfig, kernel: Kernel, variant: str,
                  scalars: typing.Optional[typing.Mapping[str, float]],
                  tile_group: typing.Optional[str]) -> typing.Tuple:
    """The coordinates of one sweep call's store file (see
    :meth:`~repro.core.cache.SweepCache.batch`): the *resolved* variant
    and scalars, so "auto" and the explicit name (or default and
    explicit scalars) share one file."""
    try:
        variant = resolve_variant(variant, config).name
    except OffloadError:
        pass  # the event path raises its own error for a bad name
    return (config, kernel.name, variant, resolve_scalars(kernel, scalars),
            tile_group or "")


def measure_point(config: SoCConfig, kernel_name: str, n: int, m: int,
                  variant: str,
                  scalars: typing.Optional[typing.Mapping[str, float]],
                  seed: int, verify: bool,
                  tile_group: typing.Optional[str] = None) -> SweepPoint:
    """Simulate one grid point on a boot-state SoC and summarize it.

    The SoC is leased from the process's :class:`~repro.soc.pool.SystemPool`
    — measurements are bit-identical to a fresh construction
    (property-tested), just cheaper.  Set ``REPRO_FRESH_SYSTEMS`` to
    force fresh construction per point.  ``tile_group`` targets one
    fabric group of a heterogeneous config (see
    :func:`repro.core.offload.offload`).
    """
    with _SYSTEM_POOL.lease(config) as system:
        result = offload(system, kernel_name, n, m, scalars=scalars,
                         variant=variant, seed=seed, verify=verify,
                         tile_group=tile_group)
    return SweepPoint.of(result)


class SweepExecutor:
    """Runs (N, M) grids in-process: cache, batch planner, simulation.

    The planner fills the grid's slots out of order; :meth:`run` still
    returns the points, and streams them to ``progress``, in grid order.

    Parameters
    ----------
    cache:
        Optional :class:`SweepCache`.  Cached points are never
        re-simulated; fresh points are stored back.

    After each :meth:`run`, :attr:`stats` holds that run's
    :class:`SweepStats` (``None`` before the first run).
    """

    def __init__(self, cache: typing.Optional[SweepCache] = None) -> None:
        self.cache = cache
        self.stats: typing.Optional[SweepStats] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, config: SoCConfig, kernel_name: str,
            n_values: typing.Sequence[int], m_values: typing.Sequence[int],
            variant: str = "auto",
            scalars: typing.Optional[typing.Mapping[str, float]] = None,
            seed: int = 0, verify: bool = True,
            progress: typing.Optional[
                typing.Callable[[SweepPoint], None]] = None,
            tile_group: typing.Optional[str] = None) -> SweepResult:
        """Measure the grid; same contract as :func:`repro.core.sweep.sweep`."""
        if not n_values or not m_values:
            raise OffloadError("sweep needs at least one N and one M value")
        # Every M's span must fit and rate the kernel before anything
        # runs; the widest span covers every narrower one.
        kernel = get_kernel(kernel_name)
        widest = max((config.cluster_span(m, tile_group, kernel=kernel)
                      for m in m_values), key=lambda span: span.count).tile
        tile_class = "mixed" if widest is None else widest.class_name
        started = time.perf_counter()
        before = self._tallies()
        planner = BatchPlanner(_SYSTEM_POOL, cache=self.cache)

        # N-major grid order: the order of the returned points, whatever
        # order the planner and the simulation loop fill slots in.
        coords = [(n, m) for n in n_values for m in m_values]
        slots: typing.List[typing.Optional[SweepPoint]] = [None] * len(coords)
        pending: typing.List[typing.Tuple[int, int, int]] = []  # (slot, n, m)
        remaining: typing.Sequence[typing.Tuple[int, int, int]] = ()

        # Stream ``progress`` over the longest completed prefix, so the
        # callback sees points in grid order even though the planner
        # fills slots out of order.
        emitted = [0]

        def emit_ready() -> None:
            if progress is None:
                return
            while emitted[0] < len(slots) and slots[emitted[0]] is not None:
                progress(slots[emitted[0]])
                emitted[0] += 1

        # One store batch per call: the call's store file is read once
        # before the lookups, the put-back's new entries are appended
        # once after it, and the LRU bound (if any) is enforced after
        # that write.
        with (self.cache.batch(*_store_coords(config, kernel, variant,
                                              scalars, tile_group))
              if self.cache is not None else contextlib.nullcontext()):
            for index, (n, m) in enumerate(coords):
                if self.cache is not None:
                    cached = self.cache.get(n, m)
                    if cached is not None:
                        slots[index] = cached
                        continue
                pending.append((index, n, m))
            emit_ready()
            if pending:
                # The batch planner fills every slot it can prove from
                # calibration runs; only the leftovers pay the event
                # engine.  The *original* pending list still drives the
                # cache put-back below, so planned points are cached
                # exactly like simulated ones.
                remaining = (pending if flags.naive_batch() else
                             planner.consume(config, kernel_name, variant,
                                             scalars, seed, verify, pending,
                                             slots, tile_group=tile_group))
                emit_ready()
                for index, n, m in remaining:
                    slots[index] = measure_point(
                        config, kernel_name, n, m, variant, scalars, seed,
                        verify, tile_group=tile_group)
                    emit_ready()
                if self.cache is not None:
                    for index, n, m in pending:
                        self.cache.put(n, m, slots[index])

        self.stats = SweepStats(
            points=len(coords), tile_group=tile_group, tile_class=tile_class,
            elapsed_seconds=time.perf_counter() - started,
            simulated_points=planner.calibration_points + len(remaining),
            planned_points=planner.planned_points,
            batch_fallback_points=planner.fallback_points,
            prefixes_calibrated=planner.prefixes_calibrated,
            prefixes_predicted=planner.prefixes_predicted,
            mmodels_fitted=planner.mmodels_fitted,
            holdout_fallbacks=planner.holdout_fallbacks,
            calibration_store_hits=planner.store_hits,
            calibration_store_misses=planner.store_misses,
            **{name: now - before[name]
               for name, now in self._tallies().items()})
        if _LOG_RUN_STATS:
            _RUN_STATS_LOG.append(self.stats)
        points = typing.cast(typing.List[SweepPoint], slots)
        return SweepResult(points=tuple(points))

    def _tallies(self) -> typing.Dict[str, int]:
        """The lifetime cache and pool counters whose change over a run
        its :class:`SweepStats` reports, by field name."""
        cache = self.cache
        return {
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "cache_evictions": cache.evictions if cache is not None else 0,
            "pool_hits": _SYSTEM_POOL.hits,
            "pool_builds": _SYSTEM_POOL.builds,
            "pool_dropped": _SYSTEM_POOL.dropped,
            "sim_resumes": _SYSTEM_POOL.resume_count(),
        }
