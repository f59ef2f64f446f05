"""Cached, batch-planned execution of measurement sweeps.

Every grid point runs on a boot-state
:class:`~repro.soc.manticore.ManticoreSystem`, so points share no state
and any execution order yields the same measurements.
:class:`SweepExecutor` runs a grid in-process along one path:

- **memoization** — an optional :class:`~repro.core.cache.SweepCache`
  is consulted first, keyed on the content address of each point
  (config digest, kernel, N, M, variant, scalars, seed), so repeated
  sweeps skip simulation entirely;
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
"""

from __future__ import annotations

import contextlib
import time
import typing

from repro import flags
from repro.core.batch import BatchPlanner, store_coords
from repro.core.cache import SweepCache, group_key, point_key
from repro.core.offload import offload
from repro.core.sweep import SweepPoint, SweepResult
from repro.errors import OffloadError
from repro.kernels.registry import get_kernel
from repro.soc.config import SoCConfig
from repro.soc.pool import SystemPool


#: Process-wide system pool, so successive same-config points construct
#: a single SoC.
_SYSTEM_POOL = SystemPool()

#: Opt-in log of per-run statistics summaries (see
#: :func:`collect_run_stats`); experiments build executors internally,
#: so the CLI's ``--stats`` flag observes them through this hook
#: instead of threading a parameter through every experiment signature.
_RUN_STATS_LOG: typing.List[typing.Dict[str, typing.Any]] = []
_LOG_RUN_STATS = False


def collect_run_stats(enabled: bool = True) -> None:
    """Start (or stop) logging every ``SweepExecutor.run`` summary."""
    global _LOG_RUN_STATS
    _LOG_RUN_STATS = enabled
    _RUN_STATS_LOG.clear()


def drain_run_stats() -> typing.List[typing.Dict[str, typing.Any]]:
    """Return and clear the collected run summaries."""
    drained = list(_RUN_STATS_LOG)
    _RUN_STATS_LOG.clear()
    return drained


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

    Counters (reset at the start of every :meth:`run`):

    - ``cache_hits`` / ``cache_misses`` — cache outcomes this run;
    - ``simulated_points`` — simulations actually executed this run
      (``0`` on a fully cached sweep), including the
      :class:`~repro.core.batch.BatchPlanner`'s calibration runs;
    - ``planned_points`` — points timed by the planner's closed form
      instead of the event engine;
    - ``batch_fallback_points`` — points the planner examined but
      handed back to the event engine;
    - ``prefixes_calibrated`` / ``prefixes_predicted`` — M groups whose
      dispatch prefix came from a calibration simulation vs. from the
      affine M-model or the calibration store (no simulation);
    - ``mmodels_fitted`` / ``holdout_fallbacks`` — affine M-axis models
      fitted-and-holdout-verified vs. fit attempts abandoned;
    - ``calibration_store_hits`` / ``calibration_store_misses`` —
      persistent calibration-store outcomes (prefixes and M-models).

    :meth:`run` also assembles :attr:`last_run_stats`, a flat summary
    (throughput, cache/pool/planner outcomes, interpreter resume
    counts) that the CLI's ``--stats`` flag prints after a sweep.
    """

    def __init__(self, cache: typing.Optional[SweepCache] = None) -> None:
        self.cache = cache
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulated_points = 0
        self.planned_points = 0
        self.batch_fallback_points = 0
        self.prefixes_calibrated = 0
        self.prefixes_predicted = 0
        self.mmodels_fitted = 0
        self.holdout_fallbacks = 0
        self.calibration_store_hits = 0
        self.calibration_store_misses = 0
        #: Summary of the most recent :meth:`run` (see
        #: :meth:`_collect_stats`); ``None`` before the first run.
        self.last_run_stats: typing.Optional[
            typing.Dict[str, typing.Any]] = None

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
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulated_points = 0
        self.planned_points = 0
        self.batch_fallback_points = 0
        self.prefixes_calibrated = 0
        self.prefixes_predicted = 0
        self.mmodels_fitted = 0
        self.holdout_fallbacks = 0
        self.calibration_store_hits = 0
        self.calibration_store_misses = 0
        started = time.perf_counter()
        pool_before = (_SYSTEM_POOL.hits, _SYSTEM_POOL.builds,
                       _SYSTEM_POOL.dropped, _SYSTEM_POOL.resume_count())
        evictions_before = (self.cache.evictions
                            if self.cache is not None else 0)

        # N-major grid order: the order of the returned points, whatever
        # order the planner and the simulation loop fill slots in.
        coords = [(n, m) for n in n_values for m in m_values]
        slots: typing.List[typing.Optional[SweepPoint]] = [None] * len(coords)
        pending: typing.List[typing.Tuple[int, int, int]] = []  # (slot, n, m)
        keys: typing.Dict[int, str] = {}

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
        with (self.cache.batch(group_key(*store_coords(
                config, kernel, variant, scalars, seed, tile_group)))
              if self.cache is not None else contextlib.nullcontext()):
            for index, (n, m) in enumerate(coords):
                if self.cache is not None:
                    key = point_key(config, kernel_name, n, m, variant,
                                    scalars, seed, tile_group=tile_group or "")
                    keys[index] = key
                    cached = self.cache.get(key)
                    if cached is not None:
                        self.cache_hits += 1
                        slots[index] = cached
                        continue
                    self.cache_misses += 1
                pending.append((index, n, m))
            emit_ready()
            if pending:
                # The batch planner fills every slot it can prove from
                # calibration runs; only the leftovers pay the event
                # engine.  The *original* pending list still drives the
                # cache put-back below, so planned points are cached
                # exactly like simulated ones.
                remaining: typing.Sequence[typing.Tuple[int, int, int]]
                if flags.naive_batch():
                    remaining = pending
                else:
                    planner = BatchPlanner(_SYSTEM_POOL, cache=self.cache)
                    remaining = planner.consume(
                        config, kernel_name, variant, scalars, seed, verify,
                        pending, slots, tile_group=tile_group)
                    self.simulated_points += planner.calibration_points
                    self.planned_points = planner.planned_points
                    self.batch_fallback_points = planner.fallback_points
                    self.prefixes_calibrated = planner.prefixes_calibrated
                    self.prefixes_predicted = planner.prefixes_predicted
                    self.mmodels_fitted = planner.mmodels_fitted
                    self.holdout_fallbacks = planner.holdout_fallbacks
                    self.calibration_store_hits = planner.store_hits
                    self.calibration_store_misses = planner.store_misses
                    emit_ready()
                for index, n, m in remaining:
                    slots[index] = measure_point(
                        config, kernel_name, n, m, variant, scalars, seed,
                        verify, tile_group=tile_group)
                    self.simulated_points += 1
                    emit_ready()
                if self.cache is not None:
                    for index, _n, _m in pending:
                        self.cache.put(keys[index], slots[index])

        evictions = ((self.cache.evictions - evictions_before)
                     if self.cache is not None else 0)
        self.last_run_stats = self._collect_stats(
            len(coords), time.perf_counter() - started, pool_before,
            evictions, tile_group, tile_class)
        if _LOG_RUN_STATS:
            _RUN_STATS_LOG.append(self.last_run_stats)
        points = typing.cast(typing.List[SweepPoint], slots)
        return SweepResult(points=tuple(points))

    def _collect_stats(self, total_points: int, elapsed: float,
                       pool_before: typing.Tuple[int, int, int, int],
                       cache_evictions: int,
                       tile_group: typing.Optional[str] = None,
                       tile_class: str = "snitch"
                       ) -> typing.Dict[str, typing.Any]:
        """Summarize one :meth:`run` for the ``--stats`` reporting path.

        Pool and resume figures are deltas over :data:`_SYSTEM_POOL`,
        which every point of the run leases from.
        """
        hits0, builds0, dropped0, resumes0 = pool_before
        predictable = self.planned_points + self.batch_fallback_points
        return {
            "points": total_points,
            "tile_group": tile_group,
            "tile_class": tile_class,
            "elapsed_seconds": elapsed,
            "points_per_second": (total_points / elapsed if elapsed > 0
                                  else float("inf")),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated_points": self.simulated_points,
            "planned_points": self.planned_points,
            "batch_fallback_points": self.batch_fallback_points,
            "batch_plan_hit_rate": (self.planned_points / predictable
                                    if predictable else 0.0),
            "prefixes_calibrated": self.prefixes_calibrated,
            "prefixes_predicted": self.prefixes_predicted,
            "mmodels_fitted": self.mmodels_fitted,
            "holdout_fallbacks": self.holdout_fallbacks,
            "calibration_store_hits": self.calibration_store_hits,
            "calibration_store_misses": self.calibration_store_misses,
            "cache_evictions": cache_evictions,
            "pool_hits": _SYSTEM_POOL.hits - hits0,
            "pool_builds": _SYSTEM_POOL.builds - builds0,
            "pool_dropped": _SYSTEM_POOL.dropped - dropped0,
            "sim_resumes": _SYSTEM_POOL.resume_count() - resumes0,
        }
