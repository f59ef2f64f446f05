"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_shows_every_experiment():
    code, text = run_cli("list")
    assert code == 0
    for name in ("fig1-left", "fig1-right", "fit", "mape", "decision",
                 "ablation-features", "ablation-dispatch", "kernels",
                 "ablation-poll"):
        assert name in text


def test_offload_command_prints_result_and_phases():
    code, text = run_cli("offload", "--kernel", "daxpy", "--n", "256",
                         "--clusters", "4", "--fabric", "8")
    assert code == 0
    assert "daxpy(n=256) on 4 clusters" in text
    assert "dispatch" in text and "total" in text


def test_offload_command_baseline_variant():
    code, text = run_cli("offload", "--kernel", "memcpy", "--n", "64",
                         "--clusters", "2", "--fabric", "4",
                         "--variant", "baseline")
    assert code == 0
    assert "[baseline]" in text


def test_offload_command_rejects_bad_width():
    code, text = run_cli("offload", "--n", "64", "--clusters", "8",
                         "--fabric", "4")
    assert code == 1
    assert "error:" in text


def test_fig1_left_small_fabric():
    code, text = run_cli("fig1-left", "--clusters", "4")
    assert code == 0
    assert "Fig. 1 (left)" in text
    assert "baseline" in text


def test_mape_small_fabric():
    code, text = run_cli("mape", "--clusters", "4")
    assert code == 0
    assert "MAPE" in text


def test_sweep_to_stdout_is_csv():
    code, text = run_cli("sweep", "--kernel", "daxpy", "--n", "64", "128",
                         "--m", "1", "2", "--clusters", "4")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("kernel,n,num_clusters")
    assert len(lines) == 5  # header + 2x2 grid


def test_sweep_to_file(tmp_path):
    target = tmp_path / "grid.csv"
    code, text = run_cli("sweep", "--kernel", "memcpy", "--n", "64",
                         "--m", "2", "--clusters", "4",
                         "--csv", str(target))
    assert code == 0
    assert "1 points written" in text
    assert target.read_text().startswith("kernel,")


def test_sweep_rejects_overwide_grid():
    code, text = run_cli("sweep", "--n", "64", "--m", "16",
                         "--clusters", "4")
    assert code == 1
    assert "error:" in text


def test_report_writes_all_sections(tmp_path):
    target = tmp_path / "report.md"
    code, text = run_cli("report", "--out", str(target), "--clusters", "4")
    assert code == 0
    content = target.read_text()
    assert content.startswith("# Reproduction report")
    for section in ("fig1-left", "mape", "scheduler", "concurrency"):
        assert f"## {section}" in content


def _stats_run(tile_class, tile_group, *, points, planned, fallbacks,
               calibrated):
    """A synthetic executor stats record with every collected key."""
    predictable = planned + fallbacks
    return {
        "points": points, "tile_group": tile_group,
        "tile_class": tile_class, "elapsed_seconds": 0.5,
        "points_per_second": points / 0.5, "cache_hits": 0,
        "cache_misses": points, "simulated_points": points - planned,
        "planned_points": planned, "batch_fallback_points": fallbacks,
        "batch_plan_hit_rate": (planned / predictable if predictable
                                else 0.0),
        "prefixes_calibrated": calibrated, "prefixes_predicted": 1,
        "mmodels_fitted": 1, "holdout_fallbacks": 0,
        "calibration_store_hits": 0, "calibration_store_misses": 1,
        "cache_evictions": 0, "pool_hits": 2, "pool_builds": 1,
        "pool_dropped": 0, "sim_resumes": 10,
    }


def test_stats_per_tile_class_breakdown(monkeypatch):
    from repro import cli
    from repro.core import executor

    runs = [
        _stats_run("snitch", "little", points=24, planned=20,
                   fallbacks=0, calibrated=4),
        _stats_run("vecwide", "big", points=24, planned=10,
                   fallbacks=10, calibrated=4),
    ]
    monkeypatch.setattr(executor, "drain_run_stats", lambda: runs)
    out = io.StringIO()
    cli._print_run_stats(out)
    text = out.getvalue()
    assert "sweep statistics (2 sweeps):" in text
    assert "points      48" in text
    assert "30 planned" in text and "10 fallbacks" in text
    assert "per tile class:" in text
    assert ("snitch       1 sweeps, 24 points, 20 planned, 0 fallbacks, "
            "4 calibrated (engagement 100.0%)") in text
    assert ("vecwide      1 sweeps, 24 points, 10 planned, 10 fallbacks, "
            "4 calibrated (engagement 50.0%)") in text


def test_stats_mixed_spans_count_as_their_own_class(monkeypatch):
    from repro import cli
    from repro.core import executor

    runs = [_stats_run("mixed", None, points=8, planned=0, fallbacks=8,
                       calibrated=0)]
    monkeypatch.setattr(executor, "drain_run_stats", lambda: runs)
    out = io.StringIO()
    cli._print_run_stats(out)
    text = out.getvalue()
    assert ("mixed        1 sweeps, 8 points, 0 planned, 8 fallbacks, "
            "0 calibrated (engagement 0.0%)") in text


def test_fabric_command_selects_classes():
    code, text = run_cli("fabric", "--clusters", "8")
    assert code == 0
    assert "E12" in text
    assert "snitch" in text and "vecwide" in text
    assert "Fabric selection" in text


def test_traffic_command_reports_and_exports_csv(tmp_path):
    target = tmp_path / "traffic.csv"
    code, text = run_cli("traffic", "--clusters", "4", "--num-jobs", "24",
                         "--tenants", "2", "--seed", "11",
                         "--csv", str(target))
    assert code == 0
    assert "E13" in text
    for policy in ("always_host", "always_offload_4", "model_driven",
                   "deadline_aware"):
        assert policy in text
    content = target.read_text()
    assert content.startswith("arrival,policy,tenant,")
    assert "poisson" in content and "bursty" in content \
        and "trace" in content


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")


def test_missing_command_exits_nonzero():
    with pytest.raises(SystemExit):
        run_cli()
