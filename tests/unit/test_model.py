"""Unit tests for the analytic runtime model (Eq. 1, generalized)."""

import pytest

from repro.core.model import OffloadModel, PAPER_DAXPY_MODEL
from repro.errors import ModelError


def test_paper_model_matches_eq1():
    # Eq. 1 at (M=8, N=1024): 367 + 256 + 2.6*1024/(8*8) = 664.6
    assert PAPER_DAXPY_MODEL.predict(8, 1024) == pytest.approx(664.6)


def test_predict_structure():
    model = OffloadModel(t0=100, mem_coeff=0.5, compute_coeff=2.0,
                         dispatch_coeff=3.0)
    assert model.predict(4, 100) == pytest.approx(100 + 12 + 50 + 50)


def test_predict_validation():
    model = PAPER_DAXPY_MODEL
    with pytest.raises(ModelError):
        model.predict(0, 100)
    with pytest.raises(ModelError):
        model.predict(4, -1)


def test_negative_coefficients_rejected():
    with pytest.raises(ModelError):
        OffloadModel(t0=-1, mem_coeff=0, compute_coeff=0)
    with pytest.raises(ModelError):
        OffloadModel(t0=0, mem_coeff=-0.1, compute_coeff=0)


def test_serial_and_parallel_split():
    model = PAPER_DAXPY_MODEL
    n = 1024
    assert model.serial_cycles(n) == pytest.approx(367 + 256)
    # The rest, c·N = 332.8 cycles at M = 1, scales as 1/M.
    assert model.predict(1, n) == pytest.approx(model.serial_cycles(n)
                                                + 332.8)


def test_best_m_without_dispatch_term_is_max():
    assert PAPER_DAXPY_MODEL.best_m(1024, 32) == 32


def test_best_m_with_dispatch_term_is_interior():
    model = OffloadModel(t0=367, mem_coeff=0.25, compute_coeff=0.325,
                         dispatch_coeff=11.0)
    best = model.best_m(1024, 32)
    # sqrt(0.325*1024/11) = 5.5: the optimum is 5 or 6, well inside.
    assert best in (5, 6)
    assert model.predict(best, 1024) <= model.predict(32, 1024)
    assert model.predict(best, 1024) <= model.predict(1, 1024)


def test_best_m_respects_fabric_limit():
    model = OffloadModel(t0=0, mem_coeff=0, compute_coeff=1.0,
                         dispatch_coeff=1e-9)
    assert model.best_m(10_000, 8) == 8
    with pytest.raises(ModelError):
        model.best_m(100, 0)


def test_fit_recovers_exact_synthetic_model():
    truth = OffloadModel(t0=250, mem_coeff=0.375, compute_coeff=0.45)
    points = [(m, n, truth.predict(m, n))
              for m in (1, 2, 4, 8, 16, 32) for n in (256, 512, 1024)]
    fitted = OffloadModel.fit(points)
    assert fitted.t0 == pytest.approx(250, abs=1e-6)
    assert fitted.mem_coeff == pytest.approx(0.375, abs=1e-9)
    assert fitted.compute_coeff == pytest.approx(0.45, abs=1e-9)
    assert fitted.dispatch_coeff == 0.0


def test_fit_recovers_dispatch_term():
    truth = OffloadModel(t0=300, mem_coeff=0.25, compute_coeff=0.325,
                         dispatch_coeff=11.0)
    points = [(m, n, truth.predict(m, n))
              for m in (1, 2, 4, 8, 16, 32) for n in (256, 512, 1024)]
    fitted = OffloadModel.fit(points, include_dispatch_term=True)
    assert fitted.dispatch_coeff == pytest.approx(11.0, abs=1e-6)


def test_fit_needs_enough_points():
    with pytest.raises(ModelError):
        OffloadModel.fit([(1, 256, 500.0), (2, 256, 400.0)])


def test_fit_rejects_degenerate_grid():
    # Constant N and M: columns are collinear.
    points = [(4, 256, 500.0 + i) for i in range(10)]
    with pytest.raises(ModelError, match="degenerate"):
        OffloadModel.fit(points)


def test_fit_rejects_nonpositive_m():
    with pytest.raises(ModelError):
        OffloadModel.fit([(0, 256, 1.0), (1, 256, 1.0), (2, 512, 1.0)])


def test_fit_clamps_tiny_negative_noise():
    truth = OffloadModel(t0=100, mem_coeff=0.0, compute_coeff=1.0)
    points = [(m, n, truth.predict(m, n) + 0.01)
              for m in (1, 2, 4) for n in (64, 128, 256)]
    fitted = OffloadModel.fit(points)
    assert fitted.mem_coeff >= 0.0


def test_describe_includes_all_terms():
    text = OffloadModel(t0=367, mem_coeff=0.25, compute_coeff=0.325,
                        dispatch_coeff=11, label="x").describe()
    assert "367" in text and "N/M" in text and "*M" in text and "[x]" in text
    no_dispatch = PAPER_DAXPY_MODEL.describe()
    assert "*M" not in no_dispatch.replace("N/M", "")


# ----------------------------------------------------------------------
# Per-tile-class model fitting
# ----------------------------------------------------------------------

def _synthetic_sweep(model, n_values=(256, 512, 1024), m_values=(1, 2, 4)):
    return [(m, n, model.predict(m, n))
            for m in m_values for n in n_values]


def test_fit_class_models_recovers_each_class():
    from repro.core.model import fit_class_models
    slow = OffloadModel(t0=300, mem_coeff=0.25, compute_coeff=0.45)
    fast = OffloadModel(t0=600, mem_coeff=0.25, compute_coeff=0.28)
    fits = fit_class_models({"snitch": _synthetic_sweep(slow),
                             "vecwide": _synthetic_sweep(fast)})
    assert set(fits) == {"snitch", "vecwide"}
    assert fits["snitch"].model.t0 == pytest.approx(300, abs=1.0)
    assert fits["vecwide"].model.compute_coeff == pytest.approx(0.28,
                                                               abs=0.01)
    for fit in fits.values():
        assert fit.mape_percent < 0.1  # noiseless data fits exactly
        assert fit.num_points == 9
        assert fit.tile_class in fit.describe()
        assert "MAPE" in fit.describe()


def test_fit_class_models_names_the_failing_class():
    from repro.core.model import fit_class_models
    good = _synthetic_sweep(PAPER_DAXPY_MODEL)
    with pytest.raises(ModelError, match="tile class 'broken'"):
        fit_class_models({"snitch": good, "broken": good[:2]})
