"""Unit tests for analysis utilities: tables, charts, stats, fitting, export."""

import pytest

from repro.analysis.charts import line_chart
from repro.analysis.export import sweep_to_csv
from repro.analysis.fitting import fit_report
from repro.analysis.stats import crossover_m
from repro.analysis.tables import Table
from repro.core.model import PAPER_DAXPY_MODEL
from repro.core.sweep import SweepPoint, SweepResult
from repro.errors import ModelError


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def test_table_renders_aligned_columns():
    table = Table(["M", "cycles"], title="demo")
    table.add_row([1, 1000])
    table.add_row([32, 637])
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "M" in lines[1] and "cycles" in lines[1]
    assert len({len(line) for line in lines[2:3]}) == 1


def test_table_formats_floats_and_bools():
    table = Table(["a", "b"])
    table.add_row([1.23456, True])
    text = table.render()
    assert "1.235" in text
    assert "yes" in text


def test_table_rejects_bad_rows():
    table = Table(["only"])
    with pytest.raises(ValueError):
        table.add_row([1, 2])
    with pytest.raises(ValueError):
        Table([])


# ----------------------------------------------------------------------
# Charts
# ----------------------------------------------------------------------
def test_line_chart_contains_all_series():
    text = line_chart({"base": {1: 10.0, 2: 20.0},
                       "ext": {1: 5.0, 2: 8.0}}, width=20, height=6)
    assert "legend" in text
    assert "base" in text and "ext" in text
    assert "*" in text and "o" in text


def test_line_chart_validation():
    with pytest.raises(ValueError):
        line_chart({})
    with pytest.raises(ValueError):
        line_chart({"empty": {}})


def test_line_chart_flat_series():
    # A constant series must not divide by zero.
    text = line_chart({"flat": {1: 5.0, 2: 5.0}}, width=10, height=4)
    assert "y_max = 5" in text


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
def test_crossover_m():
    assert crossover_m({1: 100, 4: 80, 8: 90}) == 4
    assert crossover_m({1: 50, 2: 50}) == 1  # ties go to the smaller M
    assert crossover_m({}) is None


# ----------------------------------------------------------------------
# Fit reports
# ----------------------------------------------------------------------
def test_fit_report_perfect_model():
    model = PAPER_DAXPY_MODEL
    points = [(m, 1024, model.predict(m, 1024)) for m in (1, 2, 4, 8)]
    report = fit_report(model, points)
    assert report.r_squared == pytest.approx(1.0)
    assert report.mape_percent == pytest.approx(0.0)
    assert report.max_ape_percent == pytest.approx(0.0)
    assert report.num_points == 4
    assert "R^2" in report.summary()


def test_fit_report_with_errors():
    model = PAPER_DAXPY_MODEL
    points = [(m, 1024, model.predict(m, 1024) * 1.10) for m in (1, 2, 4, 8)]
    report = fit_report(model, points)
    assert report.mape_percent == pytest.approx(100 * (1 - 1 / 1.1), rel=1e-3)
    assert report.r_squared < 1.0


def test_fit_report_empty_rejected():
    with pytest.raises(ModelError):
        fit_report(PAPER_DAXPY_MODEL, [])


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def make_sweep_result():
    point = SweepPoint(kernel_name="daxpy", n=64, num_clusters=2,
                       variant="extended", runtime_cycles=500,
                       phases={"setup": 100, "dispatch": 8,
                               "completion_wait": 392, "sync_overhead": 20,
                               "total": 500})
    return SweepResult(points=(point,))


def test_sweep_to_csv():
    text = sweep_to_csv(make_sweep_result())
    lines = text.strip().splitlines()
    assert lines[0].startswith("kernel,n,num_clusters")
    assert lines[1] == "daxpy,64,2,extended,500,100,8,392,20"
