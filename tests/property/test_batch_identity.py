"""Property tests: batched sweep timing is bit-identical, A/B'd.

The :class:`~repro.core.batch.BatchPlanner` times most grid points of a
sweep as closed-form array arithmetic seeded from one calibration
simulation per offload-width group.  ``REPRO_NAIVE_BATCH`` selects the
reference path (every point through the event engine); these tests
assert the two paths return equal :class:`~repro.core.sweep.SweepPoint`
streams — cycles and every phase — across kernels, problem sizes
(including N < M empty-slice shapes), offload widths and all four
protocol variants, *and* that the planner actually engaged where the
grid is provable (agreement through silent fallback would be vacuous).

The fallback decision itself is property-tested too: unprovable
strategy types, too-small groups and structurally refused points must
run through the event engine and still match the reference stream.
"""

import contextlib
import os

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.core import batch
from repro.core.executor import SweepExecutor
from repro.core.offload import offload
from repro.flags import (
    FRESH_SYSTEMS_ENV,
    NAIVE_BATCH_ENV,
    NAIVE_MPREDICT_ENV,
)
from repro.kernels.base import Kernel, SliceBytes
from repro.kernels.registry import (
    get_kernel,
    register_kernel,
    unregister_kernel,
)
from repro.runtime.strategies import _REGISTRY as _VARIANT_REGISTRY
from repro.runtime.strategies import (
    AMO_POLL,
    SequentialStoreDispatch,
    register_variant,
)
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem

SETTINGS = hypothesis.settings(
    max_examples=5, deadline=None,
    suppress_health_check=[
        hypothesis.HealthCheck.too_slow,
        # The autouse gate-clearing fixture is env-only and idempotent
        # across examples, so function scope is safe.
        hypothesis.HealthCheck.function_scoped_fixture,
    ])

CFG = SoCConfig.extended(num_clusters=4)
#: Includes N < M shapes (empty slices) and N = 1 (single element).
N_VALUES = [1, 3, 24, 32, 96, 256]
M_VALUES = [1, 2, 3, 4]
VARIANTS = ["baseline", "multicast_only", "hw_sync_only", "extended"]


@pytest.fixture(autouse=True)
def _batching_on(monkeypatch):
    """Pin the batched path on regardless of ambient gates.

    The CI ``ab-gates`` matrix runs the whole suite with each
    ``REPRO_*`` gate set; these tests set the reference side
    explicitly, so the ambient environment must not pre-disable the
    fast side they compare against."""
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
              **kwargs):
    """Run one grid through the reference and batched paths.

    Returns ``(naive_points, fast_points, fast_executor)`` so callers
    can assert equality *and* inspect how the planner behaved.
    """
    with _env(NAIVE_BATCH_ENV, "1"):
        naive = SweepExecutor().run(config, kernel_name, n_values,
                                    m_values, variant=variant, **kwargs)
    executor = SweepExecutor()
    fast = executor.run(config, kernel_name, n_values, m_values,
                        variant=variant, **kwargs)
    return naive.points, fast.points, executor


# ----------------------------------------------------------------------
# The identity: batched points == event-engine points, bit for bit
# ----------------------------------------------------------------------
@SETTINGS
@hypothesis.given(kernel=st.sampled_from(["daxpy", "memcpy", "vecsum",
                                          "stencil3"]),
                  variant=st.sampled_from(VARIANTS))
def test_batched_matches_naive_across_kernels_and_variants(kernel, variant):
    naive, fast, executor = _ab_sweep(CFG, kernel, N_VALUES, M_VALUES,
                                      variant)
    assert fast == naive
    # Agreement must come from real predictions, not wholesale fallback:
    # at most one calibration per M group (fewer when the affine
    # M-model predicts a group outright), everything else planned.
    assert executor.stats.planned_points > 0
    assert 0 < executor.stats.simulated_points <= len(M_VALUES)
    assert executor.stats.planned_points + executor.stats.simulated_points \
        == len(N_VALUES) * len(M_VALUES)


@SETTINGS
@hypothesis.given(seed=st.integers(min_value=0, max_value=3),
                  scalar=st.sampled_from([1.0, -0.5, 3.25]))
def test_batched_matches_naive_over_job_coordinates(seed, scalar):
    naive, fast, executor = _ab_sweep(
        CFG, "daxpy", N_VALUES, M_VALUES, "extended",
        seed=seed, scalars={"a": scalar})
    assert fast == naive
    assert executor.stats.planned_points > 0


def test_batched_matches_naive_on_wide_fabric_with_empty_slices():
    """A 32-cluster fabric with N down to 1: most clusters get empty
    slices, exercising the release-cycle completion path end to end."""
    config = SoCConfig.extended()
    naive, fast, executor = _ab_sweep(
        config, "daxpy", [1, 5, 40, 512], [1, 31, 32], "extended")
    assert fast == naive
    assert executor.stats.planned_points > 0


# ----------------------------------------------------------------------
# The fallback decision
# ----------------------------------------------------------------------
def test_naive_gate_disables_the_planner():
    with _env(NAIVE_BATCH_ENV, "1"):
        executor = SweepExecutor()
        result = executor.run(CFG, "daxpy", [64, 128], [1, 2])
    assert executor.stats.planned_points == 0
    assert executor.stats.batch_fallback_points == 0
    assert executor.stats.simulated_points == len(result)


def test_single_n_groups_ride_the_m_model():
    """A lone provable point per group gains nothing from calibrating
    *itself*, but it can anchor (or be predicted by) the affine
    M-model: a single-N M-sweep over a sequential-dispatch variant
    fits from three anchors and predicts the rest."""
    naive, fast, executor = _ab_sweep(CFG, "daxpy", [96], M_VALUES,
                                      "baseline")
    assert fast == naive
    assert executor.stats.mmodels_fitted == 1
    assert executor.stats.simulated_points == 3       # lo, holdout, hi anchors
    assert executor.stats.planned_points == len(M_VALUES) - 3
    assert executor.stats.batch_fallback_points == 0


def test_single_n_groups_are_not_calibrated_under_the_gate():
    """With ``REPRO_NAIVE_MPREDICT`` set the PR-7 rule is back: a lone
    provable point per group goes straight to the event engine."""
    with _env(NAIVE_MPREDICT_ENV, "1"):
        naive, fast, executor = _ab_sweep(CFG, "daxpy", [96], M_VALUES,
                                          "baseline")
    assert fast == naive
    assert executor.stats.planned_points == 0
    assert executor.stats.batch_fallback_points == len(M_VALUES)
    assert executor.stats.simulated_points == len(M_VALUES)
    assert executor.stats.mmodels_fitted == 0
    assert executor.stats.prefixes_predicted == 0


def test_unprovable_strategy_type_falls_back():
    """A dispatch subclass may override timing arbitrarily, so the
    planner must refuse the whole sweep on exact-type grounds."""

    class TracingDispatch(SequentialStoreDispatch):
        key = "tracing_store"

    name = "batchtest_traced"
    register_variant(name, TracingDispatch(), AMO_POLL)
    try:
        assert batch.resolve_spec(CFG, name) is None
        naive, fast, executor = _ab_sweep(CFG, "daxpy", [64, 128], [1, 2],
                                          name)
        assert fast == naive
        assert executor.stats.planned_points == 0
        assert executor.stats.batch_fallback_points == 4
    finally:
        _VARIANT_REGISTRY.pop(name, None)


def test_zero_byte_slices_are_refused_per_point():
    """Zero-byte DMA slices skip the channel reservation entirely, so
    the chain algebra refuses such points; the sweep must still match
    the reference through the event engine."""

    class ComputeOnlyKernel(Kernel):
        name = "batchtest_computeonly"
        input_names = ("x",)
        output_names = ()
        timing = get_kernel("daxpy").timing
        slice_bytes_in = SliceBytes(per_item=8)
        slice_bytes_out = SliceBytes()

        def compute_slice(self, n, scalars, inputs, work):
            return {}

    register_kernel(ComputeOnlyKernel())
    try:
        kernel = get_kernel(ComputeOnlyKernel.name)
        assert not batch.point_provable(CFG, kernel, 64, 2, {},
                                        CFG.cluster_span(2).tile)
        naive, fast, executor = _ab_sweep(
            CFG, ComputeOnlyKernel.name, [64, 128], [1, 2], "baseline")
        assert fast == naive
        assert executor.stats.planned_points == 0
        assert executor.stats.batch_fallback_points == 4
    finally:
        unregister_kernel(ComputeOnlyKernel.name)


# ----------------------------------------------------------------------
# The residual check
# ----------------------------------------------------------------------
def test_residual_check_accepts_measured_and_rejects_drift():
    """The prediction at the calibration N must reproduce the measured
    trace exactly, and any tampering must be caught — this is the
    guard that keeps algebra drift from ever reaching results."""
    import dataclasses

    from repro.core.sweep import SweepPoint

    n, m = 96, 4
    system = ManticoreSystem(CFG)
    result = offload(system, "daxpy", n, m)
    measured = SweepPoint(
        kernel_name="daxpy", n=n, num_clusters=m, variant=result.variant,
        runtime_cycles=result.runtime_cycles,
        phases=result.trace.phase_summary())

    spec = batch.resolve_spec(CFG, "auto")
    assert spec is not None
    prefix = batch.extract_prefix(CFG, result.trace, m)
    assert prefix is not None
    prediction = batch.predict_point(CFG, get_kernel("daxpy"), spec,
                                     prefix, n, m, CFG.cluster_span(m).tile)
    assert prediction is not None
    assert batch.matches_trace(prediction, result.trace, measured)

    drifted = dataclasses.replace(prediction,
                                  end_cycle=prediction.end_cycle + 1)
    assert not batch.matches_trace(drifted, result.trace, measured)
    shifted = dataclasses.replace(
        prediction,
        completion_signalled=tuple(
            c + 1 for c in prediction.completion_signalled))
    assert not batch.matches_trace(shifted, result.trace, measured)
