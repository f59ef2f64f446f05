"""Property tests: M-axis prefix prediction is bit-identical, A/B'd.

Layer 3 of the batch engine (:mod:`repro.core.batch`) replaces
one-calibration-per-(variant, M) with an affine M-model fitted from two
anchor calibrations and verified residual-exactly against a held-out
third, plus a persistent calibration store that lets warm runs skip
calibration entirely.  ``REPRO_NAIVE_MPREDICT`` selects the PR-7
reference path; these tests assert the two sides return equal
:class:`~repro.core.sweep.SweepPoint` streams across kernels, variants,
M shapes and job coordinates, that prediction actually engaged
(agreement through silent fallback would be vacuous), that a sabotaged
fit is caught by the holdout check and falls back without corrupting
results, and that a cold store and a warm store produce identical
points — including on N values the store has never seen.
"""

import contextlib
import os

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.core import batch
from repro.core.cache import SweepCache
from repro.core.executor import SweepExecutor
from repro.flags import (
    FRESH_SYSTEMS_ENV,
    NAIVE_BATCH_ENV,
    NAIVE_MPREDICT_ENV,
)
from repro.soc.config import SoCConfig
from tests.unit.test_executor import _stored_entries

SETTINGS = hypothesis.settings(
    max_examples=5, deadline=None,
    suppress_health_check=[
        hypothesis.HealthCheck.too_slow,
        # The autouse gate-clearing fixture is env-only and idempotent
        # across examples, so function scope is safe.
        hypothesis.HealthCheck.function_scoped_fixture,
    ])

CFG = SoCConfig.extended(num_clusters=8)
N_VALUES = [1, 24, 96, 256]
#: Six M values so the fit engages for every variant: multicast
#: dispatch is affine only from M = 2, leaving five eligible groups.
M_VALUES = [1, 2, 3, 4, 5, 6]
VARIANTS = ["baseline", "multicast_only", "hw_sync_only", "extended"]


@pytest.fixture(autouse=True)
def _prediction_on(monkeypatch):
    """Pin the predicted path on regardless of ambient gates (the CI
    ``ab-gates`` matrix runs this suite under each ``REPRO_*`` gate)."""
    monkeypatch.delenv(NAIVE_BATCH_ENV, raising=False)
    monkeypatch.delenv(NAIVE_MPREDICT_ENV, raising=False)
    monkeypatch.delenv(FRESH_SYSTEMS_ENV, raising=False)


@contextlib.contextmanager
def _env(name, value):
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ[name]
        else:
            os.environ[name] = saved


def _ab_sweep(config, kernel_name, n_values, m_values, variant,
              cache=None, **kwargs):
    """One grid through the PR-7 reference and the predicted path.

    Returns ``(naive_points, fast_points, fast_executor)``.
    """
    with _env(NAIVE_MPREDICT_ENV, "1"):
        naive = SweepExecutor().run(config, kernel_name, n_values,
                                    m_values, variant=variant, **kwargs)
    executor = SweepExecutor(cache=cache)
    fast = executor.run(config, kernel_name, n_values, m_values,
                        variant=variant, **kwargs)
    return naive.points, fast.points, executor


# ----------------------------------------------------------------------
# The identity: predicted prefixes == calibrated prefixes, bit for bit
# ----------------------------------------------------------------------
@SETTINGS
@hypothesis.given(kernel=st.sampled_from(["daxpy", "memcpy", "vecsum",
                                          "stencil3"]),
                  variant=st.sampled_from(VARIANTS))
def test_predicted_matches_calibrated_across_kernels_and_variants(
        kernel, variant):
    naive, fast, executor = _ab_sweep(CFG, kernel, N_VALUES, M_VALUES,
                                      variant)
    assert fast == naive
    # Agreement must come from a real fitted model: three anchor
    # calibrations (plus one for multicast's off-domain M = 1 group),
    # every remaining group predicted without simulation.
    assert executor.stats.mmodels_fitted == 1
    assert executor.stats.holdout_fallbacks == 0
    assert executor.stats.prefixes_predicted >= 2
    assert executor.stats.simulated_points < len(M_VALUES)
    assert executor.stats.planned_points + executor.stats.simulated_points \
        == len(N_VALUES) * len(M_VALUES)


@SETTINGS
@hypothesis.given(seed=st.integers(min_value=0, max_value=3),
                  scalar=st.sampled_from([1.0, -0.5, 3.25]))
def test_predicted_matches_calibrated_over_job_coordinates(seed, scalar):
    naive, fast, executor = _ab_sweep(
        CFG, "daxpy", N_VALUES, M_VALUES, "extended",
        seed=seed, scalars={"a": scalar})
    assert fast == naive
    assert executor.stats.mmodels_fitted == 1
    assert executor.stats.prefixes_predicted >= 2


def test_predicted_matches_calibrated_on_wide_fabric_with_empty_slices():
    """A 32-cluster fabric with N down to 1: most clusters get empty
    slices, and the anchors sit at the extreme fabric widths."""
    config = SoCConfig.extended()
    naive, fast, executor = _ab_sweep(
        config, "daxpy", [1, 5, 512], [2, 7, 15, 30, 31, 32], "extended")
    assert fast == naive
    assert executor.stats.mmodels_fitted == 1
    assert executor.stats.prefixes_predicted >= 2


# ----------------------------------------------------------------------
# The holdout check: a bad fit must be caught, never believed
# ----------------------------------------------------------------------
def _sabotage_fit(monkeypatch):
    """Corrupt every fitted slope by one cycle, so the held-out anchor
    no longer lies on the line."""
    genuine = batch.fit_prefix_model

    def sabotaged(min_m, m_lo, prefix_lo, m_hi, prefix_hi):
        model = genuine(min_m, m_lo, prefix_lo, m_hi, prefix_hi)
        if model is None:
            return None
        return batch.MPrefixModel(
            min_m=model.min_m, m_lo=model.m_lo, m_hi=model.m_hi,
            base=model.base,
            slope=tuple(s + 1 for s in model.slope))

    monkeypatch.setattr(batch, "fit_prefix_model", sabotaged)


def test_sabotaged_fit_is_caught_by_the_holdout_and_falls_back(
        monkeypatch):
    """Corrupt every fitted slope by one cycle: the held-out anchor no
    longer lies on the line, so the planner must discard the model,
    calibrate per group (the PR-7 rule), and still match the
    reference stream bit for bit."""
    _sabotage_fit(monkeypatch)
    naive, fast, executor = _ab_sweep(CFG, "daxpy", N_VALUES, M_VALUES,
                                      "extended")
    assert fast == naive
    assert executor.stats.mmodels_fitted == 0
    assert executor.stats.holdout_fallbacks == 1
    assert executor.stats.prefixes_predicted == 0
    # Every M group paid its own calibration, PR-7 style.
    assert executor.stats.simulated_points == len(M_VALUES)


def test_sabotaged_fit_on_a_single_n_falls_back_point_by_point(
        monkeypatch):
    """One N over every M: each anchor group is its own calibration
    point with nothing left to time, and once the fit is discarded the
    other one-point groups go to the event engine.  No group reaches
    the grid evaluation with an empty row list."""
    _sabotage_fit(monkeypatch)
    naive, fast, executor = _ab_sweep(CFG, "daxpy", [256], M_VALUES,
                                      "extended")
    assert fast == naive
    assert executor.stats.holdout_fallbacks == 1
    assert executor.stats.planned_points == 0
    assert executor.stats.simulated_points == len(M_VALUES)


def test_non_affine_strategy_never_fits_a_model():
    """Variants whose strategies do not declare the affine domain must
    stay on per-group calibration — here via a grid whose only
    multicast-affine M values are too few to fit."""
    naive, fast, executor = _ab_sweep(CFG, "daxpy", N_VALUES, [1, 2, 3],
                                      "multicast_only")
    assert fast == naive
    assert executor.stats.mmodels_fitted == 0
    # M = 1 is outside multicast's affine domain and [2, 3] is too
    # small an anchor set, so every group calibrated.
    assert executor.stats.simulated_points == 3


# ----------------------------------------------------------------------
# The calibration store: cold and warm runs agree, warm runs skip sims
# ----------------------------------------------------------------------
def test_warm_store_reproduces_cold_results_without_simulating(tmp_path):
    cold_cache = SweepCache(str(tmp_path))
    naive_cold, cold, cold_executor = _ab_sweep(
        CFG, "daxpy", N_VALUES, M_VALUES, "extended", cache=cold_cache)
    assert cold == naive_cold
    assert cold_executor.stats.calibration_store_hits == 0
    assert cold_executor.stats.calibration_store_misses > 0

    # A fresh cache object over the same directory, and N values the
    # store has never seen: every prefix must come from the store.
    warm_cache = SweepCache(str(tmp_path))
    warm_n = [7, 300, 700]
    naive_warm, warm, warm_executor = _ab_sweep(
        CFG, "daxpy", warm_n, M_VALUES, "extended", cache=warm_cache)
    assert warm == naive_warm
    assert warm_executor.stats.simulated_points == 0
    assert warm_executor.stats.prefixes_calibrated == 0
    assert warm_executor.stats.calibration_store_hits > 0
    assert warm_executor.stats.planned_points == len(warm_n) * len(M_VALUES)


def test_store_entries_are_shared_between_auto_and_explicit_variant(
        tmp_path):
    """Keys speak the *resolved* variant, so ``auto`` on an extended
    SoC warms the store for an explicit ``extended`` request."""
    cache = SweepCache(str(tmp_path))
    first = SweepExecutor(cache=cache)
    first.run(CFG, "daxpy", [64, 128], M_VALUES, variant="auto")

    second = SweepExecutor(cache=SweepCache(str(tmp_path)))
    warm = second.run(CFG, "daxpy", [96], M_VALUES, variant="extended")
    assert second.stats.simulated_points == 0
    with _env(NAIVE_MPREDICT_ENV, "1"):
        reference = SweepExecutor().run(CFG, "daxpy", [96], M_VALUES,
                                        variant="extended")
    assert warm.points == reference.points


def test_auto_and_explicit_variant_share_one_store_file(tmp_path):
    """One file per sweep call, named by the resolved variant: the
    explicit request reads the file ``auto`` wrote and its calibration,
    and writes its own points back into that same file."""
    SweepExecutor(cache=SweepCache(str(tmp_path))).run(
        CFG, "daxpy", [64, 128], M_VALUES, variant="auto")
    (written,) = tmp_path.glob("*.json")
    explicit = SweepExecutor(cache=SweepCache(str(tmp_path)))
    explicit.run(CFG, "daxpy", [96], M_VALUES, variant="extended")
    assert list(tmp_path.glob("*.json")) == [written]
    assert explicit.stats.simulated_points == 0
    assert explicit.stats.calibration_store_hits > 0
    assert explicit.stats.prefixes_calibrated == 0


def test_gate_disables_prediction_and_the_store(tmp_path):
    """``REPRO_NAIVE_MPREDICT`` must restore PR 7 exactly: no models,
    no predictions, and a calibration store that stays untouched."""
    cache = SweepCache(str(tmp_path))
    with _env(NAIVE_MPREDICT_ENV, "1"):
        executor = SweepExecutor(cache=cache)
        result = executor.run(CFG, "daxpy", N_VALUES, M_VALUES,
                              variant="extended")
    assert executor.stats.mmodels_fitted == 0
    assert executor.stats.prefixes_predicted == 0
    assert executor.stats.calibration_store_hits == 0
    assert executor.stats.calibration_store_misses == 0
    assert executor.stats.simulated_points == len(M_VALUES)
    # Only measured points reached the disk layer — one file for the
    # call, one entry per grid point, no prefix or M-model entries.
    (stored,) = tmp_path.glob("*.json")
    entries = _stored_entries(stored)
    assert [key for key, _e in entries] == [
        f"{p.n},{p.num_clusters}" for p in result]


# ----------------------------------------------------------------------
# The fit and the payload codecs
# ----------------------------------------------------------------------
def test_fit_refuses_fractional_slopes_and_degenerate_anchors():
    lo = batch._Prefix(10, 20, 30, 40)
    hi = batch._Prefix(13, 26, 39, 52)     # slopes 1, 2, 3, 4 over span 3
    model = batch.fit_prefix_model(1, 2, lo, 5, hi)
    assert model is not None
    assert model.slope == (1, 2, 3, 4)
    assert model.predict(2) == lo
    assert model.predict(5) == hi
    assert model.predict(3) == batch._Prefix(11, 22, 33, 44)
    # Interpolation only: outside the anchor span or the declared
    # affine floor the model refuses to speak.
    assert model.predict(1) is None
    assert model.predict(6) is None
    assert batch.MPrefixModel(min_m=3, m_lo=2, m_hi=5,
                              base=lo.fields(),
                              slope=model.slope).predict(2) is None
    # A non-integer slope refutes the affinity claim outright.
    assert batch.fit_prefix_model(
        1, 2, lo, 5, batch._Prefix(14, 26, 39, 52)) is None
    # Coinciding or inverted anchors cannot define a line.
    assert batch.fit_prefix_model(1, 3, lo, 3, hi) is None
    assert batch.fit_prefix_model(1, 5, lo, 2, hi) is None


def test_prefix_payload_round_trips_and_rejects_malformed():
    prefix = batch._Prefix(10, 20, 30, 40)
    payload = batch.encode_prefix(prefix)
    assert batch.decode_prefix(payload) == prefix
    assert batch.decode_prefix(None) is None
    assert batch.decode_prefix({}) is None
    bad = dict(payload)
    bad["dispatch_done"] = "30"
    assert batch.decode_prefix(bad) is None
    bad["dispatch_done"] = True           # bool is not a cycle count
    assert batch.decode_prefix(bad) is None


def test_mmodel_payload_round_trips_and_rejects_malformed():
    model = batch.MPrefixModel(min_m=1, m_lo=2, m_hi=6,
                               base=(10, 20, 30, 40), slope=(1, 2, 3, 4))
    payload = batch.encode_mmodel(model)
    assert batch.decode_mmodel(payload) == model
    assert batch.decode_mmodel(None) is None
    assert batch.decode_mmodel({}) is None
    for key, value in [("base", [10, 20, 30]), ("slope", "nope"),
                       ("m_lo", 6), ("min_m", None),
                       ("base", [10, 20, 30, True])]:
        bad = dict(payload)
        bad[key] = value
        assert batch.decode_mmodel(bad) is None, (key, value)
