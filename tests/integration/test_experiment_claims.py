"""The extensions' and ablations' claims, asserted at the committed size.

Each test runs one experiment with its default arguments, exactly as
``repro <command>`` does, and asserts the claim's *shape*.  The paper's
own claims (E1-E6) live in ``test_paper_claims.py``; the pinned tables
in ``test_paper_artifacts.py``.  What is asserted here and nowhere else:
the Eq. 1 fit quality, E7-E11 and A1-A6.
"""

import pytest

from repro import experiments


# ----------------------------------------------------------------------
# Eq. 1: the fitted model
# ----------------------------------------------------------------------
def test_eq1_fit_explains_the_sweep():
    result = experiments.fit_model()
    # The compute coefficient includes the visible write-back
    # (docs/modeling.md §2), hence above the paper's 0.325.
    assert result.model.compute_coeff == pytest.approx(0.45, abs=0.01)
    assert result.report.r_squared > 0.9999


def test_eq1_baseline_fit_recovers_the_dispatch_term():
    """The baseline's doorbells cost ~10 cycles per cluster, the d·M
    term Eq. 1 (extended) does without."""
    result = experiments.fit_model(variant_config="baseline")
    assert result.model.dispatch_coeff == pytest.approx(10.0, abs=2.0)


# ----------------------------------------------------------------------
# E7: the offload crossover
# ----------------------------------------------------------------------
def test_e7_every_kernel_crosses_in_fine_grained_territory():
    result = experiments.crossover_experiment()
    for row in result.rows:
        # The ~370-cycle constant offload overhead sets the crossover.
        assert row.crossover_n is not None, row.kernel
        assert 32 <= row.crossover_n <= 512, row
    # Below the crossover the host wins; past it the accelerator keeps
    # winning.
    for kernel, curve in result.curves.items():
        crossed = False
        for n in sorted(curve):
            host, accel = curve[n]
            if crossed:
                assert accel < host, (kernel, n)
            crossed = crossed or accel < host


# ----------------------------------------------------------------------
# E8: energy
# ----------------------------------------------------------------------
def test_e8_extensions_save_more_energy_than_time():
    result = experiments.energy_experiment()
    for m in result.extended_pj:
        assert result.extended_pj[m] < result.baseline_pj[m]
        # The sleeping host compounds with the shorter runtime.
        energy_saving = result.baseline_pj[m] / result.extended_pj[m]
        runtime_saving = (result.baseline_cycles[m]
                          / result.extended_cycles[m])
        assert energy_saving > runtime_saving, m
    # Energy- and runtime-optimal widths diverge: watts buy latency.
    assert result.energy_optimal_m() < result.runtime_optimal_m()


# ----------------------------------------------------------------------
# E9: the model as a scheduler
# ----------------------------------------------------------------------
def test_e9_model_driven_placement_beats_every_static_policy():
    result = experiments.scheduler_experiment()
    adaptive = result.makespans["model_driven"]
    for policy, makespan in result.makespans.items():
        assert adaptive <= makespan, policy
    assert result.speedup_over("always_host") > 3.0
    assert result.speedup_over("always_offload_32") > 1.05
    # It genuinely mixes placements.
    assert 0 < result.offloaded["model_driven"] < result.num_jobs


# ----------------------------------------------------------------------
# E10: space sharing
# ----------------------------------------------------------------------
def test_e10_space_sharing_saves_about_one_offload_overhead():
    result = experiments.concurrency_experiment()
    for m, concurrent in result.concurrent_cycles.items():
        saving = result.sequential_cycles[m] - concurrent
        assert 150 < saving < 600, (m, saving)


# ----------------------------------------------------------------------
# E11: host work overlapped with an offload
# ----------------------------------------------------------------------
def test_e11_overlap_hides_host_work_until_the_host_dominates():
    rows = experiments.overlap_experiment().rows
    for host_n, (sequential, overlapped, _exposed) in rows.items():
        assert overlapped < sequential, host_n
    # Small host jobs are fully hidden, so the saving grows with them...
    savings = [rows[n][0] - rows[n][1] for n in sorted(rows)]
    assert savings == sorted(savings)
    # ...until the exposed wait collapses to the WFI fall-through.
    assert rows[max(rows)][2] <= 24


# ----------------------------------------------------------------------
# A1: multicast vs sync unit
# ----------------------------------------------------------------------
def test_a1_each_feature_alone_sits_between_the_designs():
    runtimes = experiments.ablation_features().runtimes
    for m in runtimes["extended"]:
        for alone in ("multicast_only", "hw_sync_only"):
            assert runtimes["extended"][m] <= runtimes[alone][m] \
                <= runtimes["baseline"][m], (alone, m)
    # At scale the dispatch path dominates: multicast is the big lever.
    saved_mcast = runtimes["baseline"][32] - runtimes["multicast_only"][32]
    saved_sync = runtimes["baseline"][32] - runtimes["hw_sync_only"][32]
    assert saved_mcast > 5 * saved_sync


# ----------------------------------------------------------------------
# A2: dispatch-cost sensitivity
# ----------------------------------------------------------------------
def test_a2_dearer_dispatch_moves_the_baseline_optimum_down():
    result = experiments.ablation_dispatch()
    costs = sorted(result.optima)
    optima = [result.optima[cost] for cost in costs]
    assert optima == sorted(optima, reverse=True)
    assert result.optima[costs[0]] >= 8
    assert result.optima[costs[-1]] <= 4
    # The whole baseline curve shifts up with the dispatch cost.
    cheap, dear = result.curves[costs[0]], result.curves[costs[-1]]
    for m in cheap:
        assert dear[m] >= cheap[m], m


# ----------------------------------------------------------------------
# A3: model generality
# ----------------------------------------------------------------------
def test_a3_eq1_family_fits_every_kernel():
    result = experiments.kernel_generality()
    assert set(result.fits) == set(experiments.GENERALITY_KERNELS)
    for name, report in result.fits.items():
        assert report.mape_percent < 1.0, (name, report.mape_percent)
        assert report.r_squared > 0.999, (name, report.r_squared)
    daxpy = result.fits["daxpy"].model
    # memcpy moves half of DAXPY's inbound bytes per element...
    assert result.fits["memcpy"].model.mem_coeff < daxpy.mem_coeff
    # ...and axpby's 3.0 cycles/element is slower than DAXPY's 2.6.
    assert result.fits["axpby"].model.compute_coeff > daxpy.compute_coeff


# ----------------------------------------------------------------------
# A4: poll-period sensitivity
# ----------------------------------------------------------------------
def test_a4_poll_gap_costs_only_past_one_poll_period():
    result = experiments.ablation_poll()
    gaps = sorted(result.runtimes)
    # Small gaps land within one poll period (34 cycles at gap 16) of
    # each other: the poll grids are not nested, so tiny
    # non-monotonicity is quantization.
    small = [result.runtimes[gap] for gap in gaps if gap <= 16]
    assert max(small) - min(small) <= 34
    assert result.runtimes[gaps[-1]] > min(small) + 50
    # Even the tightest busy loop cannot beat the interrupt.
    assert min(result.runtimes.values()) >= result.extended_runtime


# ----------------------------------------------------------------------
# A5: double-buffered vs phased
# ----------------------------------------------------------------------
def test_a5_double_buffering_helps_most_where_memory_dominates():
    result = experiments.ablation_double_buffer()
    for m in result.phased:
        # Overlap can only help, up to chunk-setup noise.
        assert result.double_buffered[m] <= result.phased[m] + 64, m
    speedup_1 = result.phased[1] / result.double_buffered[1]
    speedup_32 = result.phased[32] / result.double_buffered[32]
    assert speedup_1 > 1.4
    assert speedup_1 > speedup_32
    # Overlap breaks Eq. 1's additive structure.
    assert result.dbuf_mape_vs_phased_model > 5.0


# ----------------------------------------------------------------------
# A6: jobs larger than the staged working set
# ----------------------------------------------------------------------
def test_a6_double_buffering_beats_tiling_at_every_width():
    result = experiments.ablation_tiling()
    assert sorted(result.tiled) == [1, 2, 4]
    for m, tiled in result.tiled.items():
        # Both strategies run the job; double buffering pays the
        # offload overhead once and overlaps DMA with compute.
        assert result.tiles[m] > 1, m
        assert result.double_buffered[m] < tiled, m
        assert tiled / result.double_buffered[m] > 1.3, m
