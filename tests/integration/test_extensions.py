"""Integration checks for the extension experiments (E7-E9, A5, A6).

Small-grid versions of the extension experiments, so regressions in the
machinery they compose (host execution, energy metering, double
buffering, tiling, scheduling) surface quickly; the claims at the
committed size are in ``test_experiment_claims.py``.
"""

from repro import experiments
from repro.core.offload import offload_daxpy, run_on_host
from repro.core.tiling import offload_tiled
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


def test_crossover_small_grid():
    result = experiments.crossover_experiment(
        kernels=("daxpy",), n_values=(32, 128, 512), offload_m=8,
        num_clusters=8)
    row = result.rows[0]
    assert row.kernel == "daxpy"
    assert row.crossover_n in (128, 512)
    host, accel = result.curves["daxpy"][32]
    assert host < accel  # tiny jobs stay on the host


def test_energy_small_grid():
    result = experiments.energy_experiment(n=512, m_values=(2, 8),
                                           num_clusters=8)
    for m in (2, 8):
        assert result.extended_pj[m] < result.baseline_pj[m]


def test_scheduler_small_stream():
    result = experiments.scheduler_experiment(num_jobs=8, seed=3,
                                              num_clusters=8)
    adaptive = result.makespans["model_driven"]
    assert adaptive <= min(m for p, m in result.makespans.items()
                           if p != "model_driven") * 1.02


def test_traffic_small_scenario():
    result = experiments.traffic_experiment(num_jobs=24, tenants=2,
                                            num_clusters=8, seed=11)
    assert len(result.metrics) == 12   # 3 arrivals x 4 policies
    for arrival in ("poisson", "bursty", "trace"):
        # The headline claim, on every arrival process: online Eq. 3
        # beats full-width offloading on deadline-miss rate.
        assert result.miss_rate(arrival, "deadline_aware") \
            <= result.miss_rate(arrival, "always_offload_8")
    assert result.miss_rate("poisson", "deadline_aware") < 0.5


def test_traffic_experiment_is_deterministic():
    first = experiments.traffic_experiment(num_jobs=24, tenants=2,
                                           num_clusters=8, seed=11)
    second = experiments.traffic_experiment(num_jobs=24, tenants=2,
                                            num_clusters=8, seed=11)
    assert first.to_csv() == second.to_csv()
    assert first.metrics == second.metrics


def test_double_buffer_ablation_small():
    result = experiments.ablation_double_buffer(n=4096, m_values=(1, 8),
                                                num_clusters=8)
    assert result.double_buffered[1] < result.phased[1]
    assert result.dbuf_mape_vs_phased_model > 3.0


def test_strategies_agree_functionally_on_large_jobs():
    """Tiled, double-buffered and host execution all produce the same
    math for a job no single strategy is required for."""
    import numpy
    n = 4096
    rng = numpy.random.default_rng(12)
    x, y = rng.normal(size=n), rng.normal(size=n)
    config = SoCConfig.extended(num_clusters=8)

    tiled = offload_tiled(ManticoreSystem(config), "daxpy", n, 4,
                          tile_elements=1024, scalars={"a": 2.0},
                          inputs={"x": x, "y": y})
    dbuf = offload_daxpy(ManticoreSystem(config), n=n, num_clusters=4,
                         a=2.0, inputs={"x": x, "y": y},
                         exec_mode="double_buffered")
    host = run_on_host(ManticoreSystem(config), "daxpy", n,
                       scalars={"a": 2.0}, inputs={"x": x, "y": y})
    numpy.testing.assert_array_equal(tiled.outputs["y"], dbuf.outputs["y"])
    numpy.testing.assert_array_equal(tiled.outputs["y"], host.outputs["y"])
