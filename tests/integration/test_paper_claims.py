"""The paper's claims, asserted end to end (experiments E1-E6).

Each test regenerates a paper artifact through :mod:`repro.experiments`
and asserts the claim's *shape* (who wins, by roughly what factor, where
the crossover falls) — absolute cycles are pinned separately in
``test_calibration.py``.
"""

import pytest

from repro import experiments


@pytest.fixture(scope="module")
def fig1l():
    return experiments.fig1_left()


@pytest.fixture(scope="module")
def fig1r():
    return experiments.fig1_right()


@pytest.fixture(scope="module")
def mape_result():
    return experiments.mape_experiment()


# ----------------------------------------------------------------------
# E1: Fig. 1 (left)
# ----------------------------------------------------------------------
def test_extended_runtime_monotone_decreasing_up_to_32(fig1l):
    """'We can leverage additional clusters up to 32 while still
    decreasing execution time.'"""
    curve = [fig1l.extended[m] for m in sorted(fig1l.extended)]
    assert curve == sorted(curve, reverse=True)


def test_baseline_has_interior_minimum(fig1l):
    """'The runtime in the baseline implementation presents a global
    minimum ... when the number of clusters grows above four, the
    offload overhead starts to dominate.'"""
    best = fig1l.baseline_optimum_m
    assert best not in (1, max(fig1l.baseline))  # interior
    assert best in (4, 8)  # paper: 4; ours: 8 in a near-tie with 4
    # Past the optimum the overhead dominates and runtime climbs.
    assert fig1l.baseline[32] > fig1l.baseline[best]


def test_diminishing_returns_toward_32_clusters(fig1l):
    """'Offloading to more clusters would lead to negligible further
    improvements because of Amdahl's law.'"""
    gain_16_to_32 = fig1l.extended[16] - fig1l.extended[32]
    gain_1_to_2 = fig1l.extended[1] - fig1l.extended[2]
    assert gain_16_to_32 < gain_1_to_2 / 5


# ----------------------------------------------------------------------
# E3: the headline numbers
# ----------------------------------------------------------------------
def test_gap_at_32_clusters_exceeds_300_cycles(fig1l):
    """'More than 300 cycles difference in the 32-clusters config.'"""
    assert fig1l.gap_at_max_m > 300


def test_max_speedup_in_headline_band(fig1l):
    """Paper: 47.9 % on the 1024-element DAXPY.  Accept 35-60 %."""
    assert 1.35 <= fig1l.max_speedup <= 1.60


# ----------------------------------------------------------------------
# E2: Fig. 1 (right)
# ----------------------------------------------------------------------
def test_speedup_always_greater_than_one(fig1r):
    """'The speedup is always greater than one.'"""
    assert fig1r.min_speedup > 1.0


def test_speedup_decreases_with_problem_size(fig1r):
    """'For a fixed number of clusters employed, it decreases with the
    problem size.'  Asserted where the signal exceeds the baseline's
    polling jitter (a few cycles): M >= 8."""
    for m in (8, 16, 32):
        by_n = [fig1r.speedups[(m, n)] for n in fig1r.n_values()]
        assert by_n == sorted(by_n, reverse=True), f"M={m}: {by_n}"


def test_speedup_increases_with_clusters_at_fixed_n(fig1r):
    for n in fig1r.n_values():
        by_m = [fig1r.speedups[(m, n)] for m in fig1r.m_values()]
        assert by_m == sorted(by_m), f"N={n}: {by_m}"


# ----------------------------------------------------------------------
# E4 + E5: the model and its MAPE
# ----------------------------------------------------------------------
def test_mape_below_one_percent_for_every_n(mape_result):
    """'The error is consistently lower than 1%.'"""
    assert set(mape_result.per_n) == {256, 512, 768, 1024}
    for n, value in mape_result.per_n.items():
        assert value < 1.0, f"MAPE({n}) = {value:.3f} %"


def test_fitted_constant_matches_paper(mape_result):
    assert mape_result.model.t0 == pytest.approx(367, abs=5)
    assert mape_result.model.mem_coeff == pytest.approx(0.25, abs=0.005)


# ----------------------------------------------------------------------
# E6: the offload decision
# ----------------------------------------------------------------------
def test_decision_rows_verified_in_simulation():
    result = experiments.decision_experiment(
        scenarios=((1024, 700.0), (1024, 800.0), (512, 600.0),
                   (1024, 620.0)))
    feasible = [row for row in result.rows if row.m_min is not None]
    infeasible = [row for row in result.rows if row.m_min is None]
    assert feasible, "at least one scenario must be solvable"
    # 620 cycles is below the ~623-cycle serial floor at N=1024.
    assert any(row.t_max == 620.0 for row in infeasible)
    for row in feasible:
        assert row.meets_deadline, row
        if row.tighter_fails is not None:
            assert row.tighter_fails, row


# ----------------------------------------------------------------------
# A1: the ablation decomposes the gain
# ----------------------------------------------------------------------
def test_feature_ablation_ordering():
    """Each extension helps on its own; both together win at scale."""
    ablation = experiments.ablation_features(m_values=(8, 32))
    at32 = {variant: curve[32]
            for variant, curve in ablation.runtimes.items()}
    assert at32["extended"] <= at32["multicast_only"] <= at32["baseline"]
    assert at32["extended"] <= at32["hw_sync_only"] <= at32["baseline"]
    # Multicast is the bigger lever at 32 clusters (dispatch is linear,
    # sync overhead is mostly constant).
    assert at32["multicast_only"] < at32["hw_sync_only"]
