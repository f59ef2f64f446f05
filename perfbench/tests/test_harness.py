"""Tests for the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import harness  # noqa: E402
import run  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced_calls(script):
    """Replay ``(action, name_or_dt)`` steps on a fake-clock tracer."""
    clock = FakeClock()
    tracer = harness.Tracer(clock)
    open_spans = []
    for action, value in script:
        if action == "begin":
            open_spans.append(tracer.begin(value))
        elif action == "end":
            tracer.end(open_spans.pop())
        else:
            clock.now += value
    return tracer


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    tracer = traced_calls([
        ("begin", "outer"), ("tick", 1.0),
        ("begin", "child"), ("tick", 2.0), ("end", None),
        ("tick", 0.5),
        ("begin", "child"), ("tick", 3.0),
        ("begin", "grandchild"), ("tick", 1.0), ("end", None),
        ("end", None),
        ("tick", 0.25), ("end", None)])
    totals = tracer.totals()
    assert totals["outer"]["duration"] == pytest.approx(7.75)
    assert totals["outer"]["self"] == pytest.approx(1.75)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["duration"] == pytest.approx(6.0)
    assert totals["child"]["self"] == pytest.approx(5.0)
    assert totals["grandchild"]["self"] == pytest.approx(1.0)


def test_spans_record_parent_and_operation():
    clock = FakeClock()
    tracer = harness.Tracer(clock)
    tracer.op_id = 7
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert (outer.parent, inner.parent) == (-1, outer.span_id)
    assert outer.op_id == inner.op_id == 7


def test_covered_merges_overlaps_and_clips():
    # [1,3) and [2,4) overlap -> [1,4); [5,9) is clipped to [5,6).
    assert harness.covered([(1, 3), (2, 4), (5, 9)], 0, 6) == 4
    assert harness.covered([], 0, 6) == 0
    assert harness.covered([(7, 8)], 0, 6) == 0


def test_closing_the_wrong_span_is_an_error():
    tracer = harness.Tracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrap_records_only_while_active_and_on_exceptions():
    tracer = harness.Tracer(FakeClock())

    def boom():
        raise ValueError("boom")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert tracer.spans == []
    tracer.active = True
    with pytest.raises(ValueError):
        traced()
    with tracer.paused():
        with pytest.raises(ValueError):
            traced()
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer.totals()["boom"]["calls"] == 1


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert harness.percentile(values, 50) == pytest.approx(2.5)
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 100) == 4.0
    assert harness.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_summarize_reports_sample_counts():
    values = [float(i) for i in range(1, 1001)]
    summary = harness.summarize(values)
    assert summary["samples"] == 1000
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["p99"] == pytest.approx(990.01)
    assert summary["beyond_p99"] == 10


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_ledger_counts_each_operation_once():
    ledger = harness.Ledger()
    ops = [ledger.attempt() for _ in range(8)]
    ledger.fail(ops[1], "raised")
    ledger.check(ops[1], False, "and failed a check")
    ledger.check(ops[2], True, "passed")
    ledger.check(ops[5], False, "wrong cycles")
    assert (ledger.attempted, ledger.failed) == (8, 2)
    assert ledger.fail_rate == pytest.approx(0.25)
    assert len(ledger.reasons) == 3
    with pytest.raises(ValueError):
        ledger.fail(8, "no such operation")


def test_empty_ledger_has_zero_fail_rate():
    assert harness.Ledger().fail_rate == 0.0


class FakeWorkload:
    def __init__(self, fingerprint):
        self._fingerprint = fingerprint

    def fingerprint(self):
        return dict(self._fingerprint)


FINGERPRINT = {"points": 2304, "cycles": harness.digest([[1, 2], [3, 4]]),
               "model_mape_pct": 0.8897660559084009}


def test_matching_reference_passes(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"sweep_cold": FINGERPRINT}))
    ledger = harness.Ledger()
    run.check_reference(FakeWorkload(FINGERPRINT), ledger, "sweep_cold",
                        False, path)
    assert (ledger.attempted, ledger.failed) == (1, 0)


@pytest.mark.parametrize("corrupt", [
    {"cycles": harness.digest([[1, 2], [3, 5]])},
    {"model_mape_pct": 0.8897660559084010},
    {"points": 2303},
])
def test_corrupted_reference_fails_the_run(tmp_path, corrupt):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"sweep_cold": {**FINGERPRINT, **corrupt}}))
    ledger = harness.Ledger()
    ledger.attempt()   # one timed operation that passed its checks
    run.check_reference(FakeWorkload(FINGERPRINT), ledger, "sweep_cold",
                        False, path)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.fail_rate == pytest.approx(0.5)
    assert ledger.reasons == [
        f"reference mismatch: sweep_cold.{next(iter(corrupt))}"]


def test_missing_reference_entry_fails(tmp_path):
    ledger = harness.Ledger()
    run.check_reference(FakeWorkload(FINGERPRINT), ledger, "stream", False,
                        tmp_path / "absent.json")
    assert ledger.failed == 1


def test_recording_then_checking_round_trips(tmp_path):
    path = tmp_path / "reference.json"
    ledger = harness.Ledger()
    run.check_reference(FakeWorkload(FINGERPRINT), ledger, "traffic", True,
                        path)
    assert ledger.failed == 0
    assert json.loads(path.read_text()) == {"traffic": FINGERPRINT}
