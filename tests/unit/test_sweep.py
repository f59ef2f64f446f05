"""Unit tests for measurement sweeps."""

import pytest

from repro.core.sweep import SweepPoint, SweepResult, sweep
from repro.errors import OffloadError
from repro.soc.config import SoCConfig


CFG = SoCConfig.extended(num_clusters=8)


def small_sweep(**kwargs):
    kwargs.setdefault("n_values", [64, 128])
    kwargs.setdefault("m_values", [1, 4])
    return sweep(CFG, "daxpy", **kwargs)


def test_sweep_covers_the_grid():
    result = small_sweep()
    assert len(result) == 4
    assert set(result.runtime_grid()) == {(1, 64), (4, 64), (1, 128),
                                          (4, 128)}


def test_sweep_points_carry_phases():
    result = small_sweep()
    for point in result:
        assert point.variant == "extended"
        assert point.phases["total"] == point.runtime_cycles


def test_sweep_progress_callback():
    seen = []
    small_sweep(progress=seen.append)
    assert len(seen) == 4
    assert all(isinstance(p, SweepPoint) for p in seen)


def test_sweep_validation():
    with pytest.raises(OffloadError):
        sweep(CFG, "daxpy", [], [1])
    with pytest.raises(OffloadError):
        sweep(CFG, "daxpy", [64], [])
    with pytest.raises(OffloadError):
        sweep(CFG, "daxpy", [64], [16])  # wider than the 8-cluster fabric


def test_runtimes_by_m():
    result = small_sweep()
    by_m = result.runtimes_by_m(64)
    assert sorted(by_m) == [1, 4]
    assert by_m[4] < by_m[1]


def test_runtime_lookup():
    result = small_sweep()
    assert result.runtime(64, 4) == result.runtimes_by_m(64)[4]
    with pytest.raises(OffloadError):
        result.runtime(999, 4)


def test_duplicate_grid_points_detected():
    result = small_sweep()
    doubled = SweepResult(points=result.points + result.points)
    with pytest.raises(OffloadError):
        doubled.runtime_grid()
    with pytest.raises(OffloadError):
        doubled.runtimes_by_m(64)
    with pytest.raises(OffloadError):
        doubled.runtime(64, 4)


def test_triples_for_fitting():
    result = small_sweep()
    triples = result.triples()
    assert len(triples) == 4
    m, n, t = triples[0]
    assert isinstance(t, float)
    assert result.runtime(n, m) == t


def test_speedup_grid_between_variants():
    ext = small_sweep()
    base = sweep(SoCConfig.baseline(num_clusters=8), "daxpy",
                 [64, 128], [1, 4])
    grid = ext.speedup_grid(base)
    assert set(grid) == {(1, 64), (4, 64), (1, 128), (4, 128)}
    assert all(value > 0 for value in grid.values())


def test_speedup_grid_requires_shared_points():
    ext = small_sweep()
    other = sweep(CFG, "daxpy", [32], [2])
    with pytest.raises(OffloadError):
        ext.speedup_grid(other)
