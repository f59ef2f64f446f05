"""Heterogeneous-fabric integration: timing, planner, model, identity.

The tentpole claim of the tile-class refactor, end to end on a real
mixed fabric:

- the two classes genuinely time differently (and cross as N grows),
- the batch planner keeps engaging *per tile group* instead of
  falling back to point-by-point simulation,
- the Eq.-1 model family re-fitted per class stays under the paper's
  error envelope (MAPE < 5 %, Eq. 2), and
- the planned fast path is bit-identical to the naive path
  (``REPRO_NAIVE_BATCH``) on heterogeneous sweeps, grouped or not.
"""

from __future__ import annotations

import math

import pytest

from repro.core.executor import collect_run_stats, drain_run_stats
from repro.core.model import fit_class_models
from repro.core.offload import offload
from repro.core.sweep import sweep
from repro.errors import DecisionError
from repro.experiments import fabric_experiment
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.tiles import SNITCH, VECWIDE, TileGroup


N_VALUES = (256, 1024, 4096)
M_VALUES = (1, 2, 4)


@pytest.fixture()
def mixed_config():
    return SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=4),
         TileGroup(name="big", tile=VECWIDE, count=4)],
        multicast=True, hw_sync=True)


def _group_sweeps(config, **kwargs):
    little = sweep(config, "daxpy", N_VALUES, M_VALUES,
                   scalars={"a": 2.0}, tile_group="little", **kwargs)
    big = sweep(config, "daxpy", N_VALUES, M_VALUES,
                scalars={"a": 2.0}, tile_group="big", **kwargs)
    return little, big


def test_classes_time_differently_and_cross(mixed_config):
    little, big = _group_sweeps(mixed_config)
    cycles = {
        (p.n, p.num_clusters): p.runtime_cycles for p in little.points}
    wide = {(p.n, p.num_clusters): p.runtime_cycles for p in big.points}
    assert cycles != wide
    # small N: vecwide's heavyweight dispatch front-end loses
    assert wide[(256, 2)] > cycles[(256, 2)]
    # large N: its 4x streaming rate wins despite half the cores
    assert wide[(4096, 2)] < cycles[(4096, 2)]


def test_planner_engages_per_tile_class(mixed_config, monkeypatch):
    # The planner's own engagement is under test: pin it on even when
    # the ambient environment selects the event-engine reference.
    monkeypatch.delenv("REPRO_NAIVE_BATCH", raising=False)
    collect_run_stats()
    try:
        _group_sweeps(mixed_config)
        runs = drain_run_stats()
    finally:
        collect_run_stats(False)
    by_class = {run.tile_class: run for run in runs}
    assert set(by_class) == {"snitch", "vecwide"}
    for tile_class, run in by_class.items():
        assert run.planned_points > 0, tile_class
        assert run.batch_fallback_points == 0, tile_class
        assert run.prefixes_calibrated > 0, tile_class


def test_per_class_mape_under_paper_envelope(mixed_config):
    little, big = _group_sweeps(mixed_config)
    fits = fit_class_models({"snitch": little.triples(),
                             "vecwide": big.triples()})
    assert fits["snitch"].model.t0 < fits["vecwide"].model.t0
    assert (fits["vecwide"].model.compute_coeff
            < fits["snitch"].model.compute_coeff)
    for tile_class, fit in fits.items():
        assert fit.mape_percent < 5.0, (tile_class, fit.mape_percent)


@pytest.mark.parametrize("tile_group", ["little", "big", None])
def test_hetero_planned_path_matches_naive(mixed_config, tile_group,
                                           monkeypatch):
    """Grouped and ungrouped hetero sweeps: planner ≡ reference."""
    m_values = M_VALUES if tile_group else (2, 4, 6, 8)
    planned = sweep(mixed_config, "daxpy", N_VALUES, m_values,
                    scalars={"a": 2.0}, tile_group=tile_group)
    monkeypatch.setenv("REPRO_NAIVE_BATCH", "1")
    naive = sweep(mixed_config, "daxpy", N_VALUES, m_values,
                  scalars={"a": 2.0}, tile_group=tile_group)
    assert [(p.n, p.num_clusters, p.runtime_cycles)
            for p in planned.points] == \
        [(p.n, p.num_clusters, p.runtime_cycles) for p in naive.points]


def test_ungrouped_mixed_sweep_falls_back_only_on_mixed_spans(
        mixed_config, monkeypatch):
    """m ≤ 4 stays inside the snitch span (plans); m > 4 crosses into
    the vecwide span (mixed: falls back, still correct)."""
    monkeypatch.delenv("REPRO_NAIVE_BATCH", raising=False)
    collect_run_stats()
    try:
        sweep(mixed_config, "daxpy", (256, 1024), (2, 4, 6, 8),
              scalars={"a": 2.0})
        (run,) = drain_run_stats()
    finally:
        collect_run_stats(False)
    assert run.tile_class == "mixed"
    assert run.planned_points > 0        # uniform spans still plan
    assert run.batch_fallback_points > 0  # mixed spans fall back
    total = (run.planned_points + run.simulated_points)
    assert total == run.points


@pytest.mark.parametrize("naive_barrier", [False, True])
def test_rated_tile_charges_gemv_per_mac(mixed_config, monkeypatch,
                                         naive_barrier):
    """A rate table rates the kernel's work unit, which for gemv is a
    MAC: a vecwide core with ``r`` rows of ``n`` MACs computes for
    ``setup + ceil(3·r·n/8)`` cycles, so the phase grows with ``n``."""
    if naive_barrier:
        monkeypatch.setenv("REPRO_NAIVE_BARRIER", "1")
    else:
        monkeypatch.delenv("REPRO_NAIVE_BARRIER", raising=False)
    tile = mixed_config.tile_group("big").tile
    setup, num, den = dict(VECWIDE.kernel_rates)["gemv"]
    phases = []
    for n in (32, 64):
        result = offload(ManticoreSystem(mixed_config), "gemv", n, 1,
                         tile_group="big")
        (cluster,) = [c for c in result.trace.clusters if c.had_work]
        rows = -(-n // tile.cores_per_tile)
        phase = cluster.compute_done - cluster.dma_in_done
        assert phase == (tile.worker_wake_latency + setup
                         + math.ceil(num * rows * n / den)
                         + tile.barrier_latency)
        phases.append(phase)
    assert phases[1] > phases[0]


@pytest.mark.parametrize("tile_group", ["little", "big"])
@pytest.mark.parametrize("variant", ["baseline", "extended"])
def test_gemv_sweep_plans_and_matches_naive(mixed_config, tile_group,
                                            variant, monkeypatch):
    """gemv's per-row cost depends on N, so several N per M share one
    planned ``predict_grid`` evaluation on each class; the planned
    points must equal the event engine's."""
    monkeypatch.delenv("REPRO_NAIVE_BATCH", raising=False)
    grid = dict(n_values=(24, 40, 64), m_values=(1, 2, 4), variant=variant,
                tile_group=tile_group)
    collect_run_stats()
    try:
        planned = sweep(mixed_config, "gemv", **grid)
        (run,) = drain_run_stats()
    finally:
        collect_run_stats(False)
    assert run.planned_points > 0
    assert run.batch_fallback_points == 0
    monkeypatch.setenv("REPRO_NAIVE_BATCH", "1")
    naive = sweep(mixed_config, "gemv", **grid)
    assert planned.points == naive.points


@pytest.mark.parametrize("num_clusters, short_class",
                         [(2, "snitch"), (3, "vecwide")])
def test_fabric_experiment_refuses_a_class_with_one_tile(num_clusters,
                                                         short_class):
    """E12 fits each class over M, so each class needs two tiles; the
    refusal names the class and its count before anything is swept."""
    with pytest.raises(DecisionError,
                       match=f"'{short_class}' gets 1 of {num_clusters}"):
        fabric_experiment(num_clusters=num_clusters)
