"""Property-based tests for the runtime model and decision solver."""

import numpy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import min_clusters_for_deadline
from repro.core.mape import mape
from repro.core.model import OffloadModel
from repro.errors import DecisionError


model_strategy = st.builds(
    OffloadModel,
    t0=st.floats(min_value=0, max_value=10_000),
    mem_coeff=st.floats(min_value=0, max_value=10),
    compute_coeff=st.floats(min_value=0, max_value=10),
    dispatch_coeff=st.just(0.0),
)

dispatch_model_strategy = st.builds(
    OffloadModel,
    t0=st.floats(min_value=0, max_value=10_000),
    mem_coeff=st.floats(min_value=0, max_value=10),
    compute_coeff=st.floats(min_value=0.001, max_value=10),
    dispatch_coeff=st.floats(min_value=0.001, max_value=100),
)


@given(model_strategy, st.integers(min_value=1, max_value=512),
       st.integers(min_value=1, max_value=100_000))
def test_runtime_decreases_with_m_without_dispatch_term(model, m, n):
    assert model.predict(m + 1, n) <= model.predict(m, n)


@given(dispatch_model_strategy, st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=100_000))
def test_best_m_is_at_least_as_good_as_neighbours(model, max_m, n):
    best = model.best_m(n, max_m)
    best_runtime = model.predict(best, n)
    for m in range(1, max_m + 1):
        assert best_runtime <= model.predict(m, n) + 1e-6


@given(model_strategy,
       st.integers(min_value=1, max_value=100_000),
       st.floats(min_value=1.0, max_value=1e7),
       st.integers(min_value=1, max_value=1024))
def test_m_min_is_feasible_and_minimal(model, n, t_max, max_clusters):
    try:
        m_min = min_clusters_for_deadline(model, n, t_max,
                                          max_clusters=max_clusters)
    except DecisionError:
        # Infeasible: even the fabric-wide offload must miss the deadline.
        assert model.predict(max_clusters, n) > t_max
        return
    assert 1 <= m_min <= max_clusters
    assert model.predict(m_min, n) <= t_max + 1e-6
    if m_min > 1:
        assert model.predict(m_min - 1, n) > t_max


@given(dispatch_model_strategy,
       st.integers(min_value=1, max_value=100_000),
       st.floats(min_value=1.0, max_value=1e7),
       st.integers(min_value=1, max_value=64))
def test_m_min_with_dispatch_term_is_feasible_and_minimal(
        model, n, t_max, max_clusters):
    # With a dispatch term the runtime is not monotone in M, so
    # minimality means *no* narrower width is feasible — not just the
    # immediate neighbour.
    try:
        m_min = min_clusters_for_deadline(model, n, t_max,
                                          max_clusters=max_clusters)
    except DecisionError:
        assert all(model.predict(m, n) > t_max
                   for m in range(1, max_clusters + 1))
        return
    assert 1 <= m_min <= max_clusters
    assert model.predict(m_min, n) <= t_max
    assert all(model.predict(m, n) > t_max for m in range(1, m_min))


@settings(deadline=None)
@given(st.floats(min_value=0, max_value=5_000),
       st.floats(min_value=0, max_value=5),
       st.floats(min_value=0, max_value=5))
def test_fit_recovers_models_exactly_on_noiseless_grids(t0, b, c):
    truth = OffloadModel(t0=t0, mem_coeff=b, compute_coeff=c)
    points = [(m, n, truth.predict(m, n))
              for m in (1, 2, 4, 8, 16, 32) for n in (128, 512, 1024)]
    fitted = OffloadModel.fit(points)
    predictions_match = [
        fitted.predict(m, n) for m, n, _t in points
    ]
    actual = [t for _m, _n, t in points]
    assert numpy.allclose(predictions_match, actual, rtol=1e-6, atol=1e-3)


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                max_size=50))
def test_mape_of_exact_prediction_is_zero(values):
    assert mape(values, values) == 0.0


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                max_size=50),
       st.floats(min_value=0.5, max_value=2.0))
def test_mape_of_uniform_scaling(values, scale):
    predicted = [v * scale for v in values]
    expected = abs(1 - scale) * 100
    assert mape(values, predicted) == abs(mape(values, predicted))
    assert abs(mape(values, predicted) - expected) < 1e-6
