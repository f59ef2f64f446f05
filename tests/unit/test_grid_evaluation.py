"""The planner times a sweep's planned points in one grid evaluation.

On a warm calibration store a sweep resolves every M group's prefix
without simulating, so every planned point goes through
:func:`repro.core.batch.predict_grid` — once per tile class — and
never through the per-point path :func:`repro.core.batch.predict_point`,
which is left to the residual check of calibration runs.
"""

import contextlib

import pytest

from repro.core import batch
from repro.core.cache import SweepCache
from repro.core.executor import SweepExecutor
from repro.flags import FRESH_SYSTEMS_ENV, NAIVE_BATCH_ENV, NAIVE_MPREDICT_ENV
from repro.soc.config import SoCConfig
from repro.soc.tiles import SNITCH, VECWIDE, TileGroup

COLD_N = [256, 512]
WARM_N = [128, 1024, 2048, 4096]


@pytest.fixture(autouse=True)
def _planner_on(monkeypatch):
    """Pin the planner and M-prediction on regardless of ambient gates."""
    monkeypatch.delenv(NAIVE_BATCH_ENV, raising=False)
    monkeypatch.delenv(NAIVE_MPREDICT_ENV, raising=False)
    monkeypatch.delenv(FRESH_SYSTEMS_ENV, raising=False)


@contextlib.contextmanager
def _grid_only(monkeypatch):
    """Record each grid evaluation's row count; fail on any per-point
    evaluation."""
    calls = []
    evaluate = batch.predict_grid

    def counted(config, kernel, spec, rows, tile=None):
        calls.append(len(rows))
        return evaluate(config, kernel, spec, rows, tile)

    def per_point(*args, **kwargs):
        raise AssertionError("a warm sweep timed a point on its own")

    with monkeypatch.context() as patch:
        patch.setattr(batch, "predict_grid", counted)
        patch.setattr(batch, "predict_point", per_point)
        yield calls


def _check_warm_sweep(tmp_path, monkeypatch, config, m_values, **kwargs):
    SweepExecutor(cache=SweepCache(str(tmp_path))).run(
        config, "daxpy", COLD_N, m_values, **kwargs)
    reference = SweepExecutor().run(config, "daxpy", WARM_N, m_values,
                                    **kwargs)
    executor = SweepExecutor(cache=SweepCache(str(tmp_path)))
    with _grid_only(monkeypatch) as calls:
        result = executor.run(config, "daxpy", WARM_N, m_values, **kwargs)
    assert executor.stats.simulated_points == 0
    assert executor.stats.planned_points == len(WARM_N) * len(m_values)
    assert calls == [len(WARM_N) * len(m_values)]
    assert result.points == reference.points


def test_warm_sweep_is_one_grid_evaluation(tmp_path, monkeypatch):
    _check_warm_sweep(tmp_path, monkeypatch,
                      SoCConfig.extended(num_clusters=32), range(1, 33))


def test_warm_group_sweep_is_one_grid_evaluation(tmp_path, monkeypatch):
    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=8),
         TileGroup(name="big", tile=VECWIDE, count=8)],
        multicast=True, hw_sync=True)
    _check_warm_sweep(tmp_path, monkeypatch, config, range(1, 9),
                      tile_group="big")
