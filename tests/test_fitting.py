import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from morilab import fitting
from morilab.chain import CorrelationSeries
from morilab.fitting import (FitModel, ModelClass, detect_equilibration,
                             epsilon, fit, sigma)


def series_from(func, dt=0.01, t_max=30.0):
    t = np.arange(0, int(round(t_max / dt)) + 1) * dt
    values = func(t)
    return CorrelationSeries(dt, values,
                             normalized=abs(values[0] - 1.0) < 1e-12)


class TestDetectEquilibration:
    def test_constant_never_settles(self):
        series = series_from(lambda t: np.ones_like(t), dt=0.1, t_max=20.0)
        n_eq, ok = detect_equilibration(series)
        assert not ok
        assert n_eq == len(series) - 1

    def test_exponential_example(self):
        # |C| < 0.01 from t = ln(100)/0.24 = 19.188; window ends 5 units later
        series = series_from(lambda t: np.exp(-0.24 * t), dt=0.01, t_max=30.0)
        n_eq, ok = detect_equilibration(series, threshold=0.01, window=5.0)
        assert ok
        assert n_eq == 2419  # first sample below 0.01 is n = 1919, + 500
        assert n_eq * series.dt == pytest.approx(np.log(100) / 0.24 + 5.0,
                                                 abs=2 * series.dt)

    def test_interrupted_window_skipped(self):
        def bumpy(t):
            c = np.exp(-t)
            c[(t > 6.0) & (t < 6.2)] = 0.05  # revival interrupts the window
            return c
        series = series_from(bumpy, dt=0.05, t_max=20.0)
        n_eq, ok = detect_equilibration(series, threshold=0.01, window=5.0)
        assert ok
        assert n_eq * series.dt >= 6.2 + 5.0 - 1e-9

    def test_window_longer_than_series(self):
        series = series_from(lambda t: np.exp(-5 * t), dt=0.1, t_max=3.0)
        n_eq, ok = detect_equilibration(series, window=50.0)
        assert not ok
        assert n_eq == len(series) - 1

    def test_zero_window_is_the_first_sample_below(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            values = rng.uniform(-0.05, 0.05, 40)
            values[0] = 1.0
            below = np.nonzero(np.abs(values) < 0.01)[0]
            expected = (int(below[0]), True) if below.size \
                else (values.size - 1, False)
            series = CorrelationSeries(0.1, values)
            assert detect_equilibration(series, 0.01, 0.0) == expected

    @pytest.mark.parametrize("threshold", [0.0, -0.01, 1.0, 1.5, np.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        series = CorrelationSeries(1.0, np.array([1.0, 0.5, 0.001, 0.5]))
        with pytest.raises(ValueError, match="threshold"):
            detect_equilibration(series, threshold, 1.0)

    def test_threshold_inside_unit_interval_accepted(self):
        series = CorrelationSeries(1.0, np.array([1.0, 0.5, 0.001, 0.5]))
        assert detect_equilibration(series, 0.01, 0.0) == (2, True)
        assert detect_equilibration(series, 0.99, 0.0) == (1, True)

    def test_negative_window_rejected(self):
        series = CorrelationSeries(1.0, np.array([1.0, 0.5, 0.001, 0.5]))
        with pytest.raises(ValueError, match="window"):
            detect_equilibration(series, 0.01, -1.0)


class TestEpsilon:
    def test_exact_model_zero(self):
        model = FitModel(ModelClass.EXP, (1.0, 0.3))
        series = series_from(lambda t: model(t))
        assert epsilon(series, model, 500) == 0.0

    def test_constant_offset_normalization(self):
        # offset c between model and series: eps = |c| sqrt((N+1)/N)
        model = FitModel(ModelClass.EXP, (1.0, 0.0))
        t = np.arange(0, 101) * 0.1
        series = CorrelationSeries(0.1, np.ones_like(t) - 0.03,
                                   normalized=False)
        n_eq = 80
        expected = 0.03 * np.sqrt((n_eq + 1) / n_eq)
        assert epsilon(series, model, n_eq) == pytest.approx(expected, rel=1e-12)

    def test_reparameterization_invariance(self):
        # same pointwise curve, different parameter tuple: phi shifted by 2pi
        series = series_from(lambda t: np.exp(-0.2 * t) * np.cos(2 * t - 0.4))
        m1 = FitModel(ModelClass.EXP_COS, (1.0, 0.2, 2.0, 0.4))
        m2 = FitModel(ModelClass.EXP_COS, (1.0, 0.2, 2.0, 0.4 + 2 * np.pi))
        assert epsilon(series, m1, 900) == pytest.approx(
            epsilon(series, m2, 900), abs=1e-14)


class TestSigma:
    def test_identical_zero(self):
        series = series_from(lambda t: np.exp(-t))
        assert sigma(series, series, 100) == 0.0

    def test_grid_mismatch_rejected(self):
        a = series_from(lambda t: np.exp(-t), dt=0.01)
        b = series_from(lambda t: np.exp(-t), dt=0.02)
        with pytest.raises(ValueError, match="grid"):
            sigma(a, b, 50)

    def test_matches_manual_rms(self):
        a = series_from(lambda t: np.exp(-t), dt=0.1, t_max=10.0)
        b = series_from(lambda t: np.exp(-1.2 * t), dt=0.1, t_max=10.0)
        n_eq = 60
        manual = np.sqrt(np.sum((a.values[:61] - b.values[:61]) ** 2) / 60)
        assert sigma(a, b, n_eq) == pytest.approx(manual, rel=1e-14)


class TestJacobian:
    T = np.arange(2001) * 0.02
    # central-difference steps for (A, mu, omega, phi): the truncation error
    # of mu is about (h x)^2 / 6 relative, x up to t^2 = 1600; the phase
    # columns lose about 1e-14 / h absolute to the rounding of omega t - phi
    STEPS = (1e-6, 5e-7, 4e-5, 1e-4)

    def central_differences(self, kind, params):
        out = np.empty((self.T.size, kind.n_params))
        for i in range(kind.n_params):
            up, down = list(params), list(params)
            up[i] += self.STEPS[i]
            down[i] -= self.STEPS[i]
            out[:, i] = (kind.curve(up, self.T) - kind.curve(down, self.T)) \
                / (up[i] - down[i])
        return out

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(list(ModelClass)), a=st.floats(0.5, 1.5),
           mu=st.floats(0.0, 2.0), omega=st.floats(0.0, 5.0),
           phi=st.floats(-10.0, 10.0))
    def test_matches_central_differences(self, kind, a, mu, omega, phi):
        params = (a, mu, omega, phi)[: kind.n_params]
        jac = kind.jacobian(params, self.T)
        assert jac.shape == (self.T.size, kind.n_params)
        # the floor covers entries that underflow at large mu t^2
        np.testing.assert_allclose(
            jac, self.central_differences(kind, params), rtol=1e-6, atol=1e-9)

    def test_shares_the_envelope_variable(self):
        for kind in ModelClass:
            params = (0.9, 0.2, 1.5, 0.3)[: kind.n_params]
            x = kind.envelope_variable(self.T)
            assert np.array_equal(kind.jacobian(params, self.T, x),
                                  kind.jacobian(params, self.T))
            assert np.array_equal(kind.curve(params, self.T, x),
                                  kind.curve(params, self.T))


# TestFit's self-fit and multi-start series: (curve, dt, t_max, class, n_eq)
SELF_FITS = {
    "exp": (lambda t: 1.02 * np.exp(-0.24 * t), 0.01, 25.0, ModelClass.EXP,
            2400),
    "gauss": (lambda t: np.exp(-0.5 * t**2), 0.01, 8.0, ModelClass.GAUSS, 700),
    "exp_cos": (lambda t: 1.04 * np.exp(-0.57 * t) * np.cos(2.19 * t - 0.32),
                0.01, 20.0, ModelClass.EXP_COS, 1500),
    "gauss_cos": (lambda t: np.exp(-0.125 * t**2) * np.cos(2.0 * t), 0.01,
                  15.0, ModelClass.GAUSS_COS, 1200),
    "multistart": (lambda t: np.exp(-0.2 * t) * np.cos(1.5 * t - 1.0), 0.02,
                   20.0, ModelClass.EXP_COS, 900),
}


def fit_case(name):
    """(series, class, n_eq, warm start) of a TestFit fit: a self-fit, or
    the noisy series of the warm-start bound, with or without its start."""
    if name not in SELF_FITS:
        rng = np.random.default_rng(17)
        base = series_from(lambda t: np.exp(-0.3 * t), dt=0.02, t_max=20.0)
        noisy_values = base.values + 0.02 * rng.standard_normal(len(base))
        noisy_values[0] = 1.0
        warm = fit(base, ModelClass.EXP, 800).model if name == "warm_start" \
            else None
        return CorrelationSeries(base.dt, noisy_values), ModelClass.EXP, 800, \
            warm
    func, dt, t_max, kind, n_eq = SELF_FITS[name]
    return series_from(func, dt=dt, t_max=t_max), kind, n_eq, None


class TestFit:
    def test_least_squares_gets_the_closed_form_jacobian(self, monkeypatch):
        jacs = []

        def spy(fun, x0, **kwargs):
            jacs.append(kwargs.get("jac"))
            return least_squares(fun, x0, **kwargs)

        monkeypatch.setattr(fitting, "least_squares", spy)
        series, kind, n_eq, _ = fit_case("gauss_cos")
        result = fit(series, kind, n_eq)
        assert len(jacs) == result.restarts_used == 4
        for jac in jacs:
            assert callable(jac)
            p = np.array([0.9, 0.1, 2.0, 0.3])
            assert np.array_equal(jac(p), kind.jacobian(p, series.t[:n_eq + 1]))

    @pytest.mark.parametrize("case", [*SELF_FITS, "noisy", "warm_start"])
    def test_same_minimum_as_the_two_point_jacobian(self, monkeypatch, case):
        series, kind, n_eq, warm = fit_case(case)
        result = fit(series, kind, n_eq, warm_start=warm)

        def two_point(fun, x0, **kwargs):
            return least_squares(fun, x0, **{**kwargs, "jac": "2-point"})

        monkeypatch.setattr(fitting, "least_squares", two_point)
        reference = fit(series, kind, n_eq, warm_start=warm)
        assert result.converged == reference.converged
        assert result.restarts_used == reference.restarts_used
        assert abs(result.epsilon - reference.epsilon) <= 1e-10

    def test_exp_self_fit(self):
        result = fit(*fit_case("exp"))
        assert result.converged
        assert result.model.a == pytest.approx(1.02, abs=1e-6)
        assert result.model.mu == pytest.approx(0.24, abs=1e-6)
        assert result.epsilon <= 1e-8

    def test_gauss_self_fit(self):
        result = fit(*fit_case("gauss"))
        assert result.model.mu == pytest.approx(0.5, abs=1e-8)
        assert result.epsilon <= 1e-9

    def test_exp_cos_self_fit(self):
        result = fit(*fit_case("exp_cos"))
        assert result.model.a == pytest.approx(1.04, abs=1e-5)
        assert result.model.mu == pytest.approx(0.57, abs=1e-5)
        assert result.model.omega == pytest.approx(2.19, abs=1e-5)
        assert result.model.phi == pytest.approx(0.32, abs=1e-5)

    def test_gauss_cos_self_fit(self):
        result = fit(*fit_case("gauss_cos"))
        assert result.model.mu == pytest.approx(0.125, abs=1e-6)
        assert result.model.omega == pytest.approx(2.0, abs=1e-6)
        assert result.epsilon < 1e-8

    def test_idempotence(self):
        series = series_from(lambda t: 0.97 * np.exp(-0.31 * t), dt=0.02,
                             t_max=20.0)
        first = fit(series, ModelClass.EXP, 900)
        refit_series = CorrelationSeries(series.dt,
                                         first.model(series.t),
                                         normalized=False)
        second = fit(refit_series, ModelClass.EXP, 900)
        assert np.allclose(second.model.params, first.model.params, atol=1e-9)

    def test_multistart_monotone(self):
        result = fit(*fit_case("multistart"))
        assert result.restarts_used == len(result.restart_objectives)
        assert result.epsilon == min(result.restart_objectives)

    def test_warm_start_bounds_objective(self):
        # with the reference parameters seeded, the fit can never end farther
        # from the data than the reference curve itself: eps <= sigma + eps0
        rng = np.random.default_rng(17)
        base = series_from(lambda t: np.exp(-0.3 * t), dt=0.02, t_max=20.0)
        f0 = fit(base, ModelClass.EXP, 800)
        noisy_values = base.values + 0.02 * rng.standard_normal(len(base))
        noisy_values[0] = 1.0
        noisy = CorrelationSeries(base.dt, noisy_values)
        n_eq = 800
        result = fit(noisy, ModelClass.EXP, n_eq, warm_start=f0.model)
        sig = sigma(noisy, base, n_eq)
        eps0 = epsilon(base, f0.model, n_eq)
        assert result.epsilon <= sig + eps0 + 1e-12

    def test_one_fit_model_per_call(self, monkeypatch):
        built = []
        post_init = FitModel.__post_init__

        def counted(self):
            built.append(self.kind)
            post_init(self)

        monkeypatch.setattr(FitModel, "__post_init__", counted)
        series = series_from(
            lambda t: np.exp(-0.2 * t**2) * np.cos(1.5 * t - 1.0), dt=0.02,
            t_max=20.0)
        result = fit(series, ModelClass.GAUSS_COS, 900)
        assert built == [ModelClass.GAUSS_COS]
        assert result.model.kind is ModelClass.GAUSS_COS

    def test_warm_start_of_another_class_rejected(self):
        series = series_from(lambda t: np.exp(-0.3 * t), dt=0.02, t_max=20.0)
        wrong = FitModel(ModelClass.GAUSS, (1.0, 0.3))
        with pytest.raises(ValueError, match="warm start"):
            fit(series, ModelClass.EXP, 800, warm_start=wrong)

    def test_phase_reported_in_principal_range(self):
        series = series_from(
            lambda t: np.exp(-0.2 * t) * np.cos(1.5 * t + 2.5), dt=0.02,
            t_max=20.0)
        result = fit(series, ModelClass.EXP_COS, 900)
        assert 0.0 <= result.model.phi < 2 * np.pi

    def test_too_few_samples_rejected(self):
        series = series_from(lambda t: np.exp(-t), dt=0.1, t_max=5.0)
        with pytest.raises(ValueError):
            fit(series, ModelClass.EXP, 5)

    def test_amplitude_bounds_respected(self):
        series = series_from(lambda t: 3.0 * np.exp(-0.5 * t), dt=0.05,
                             t_max=10.0)
        result = fit(series, ModelClass.EXP, 150)
        assert 0.5 <= result.model.a <= 1.5


class TestFitModel:
    def test_param_count_enforced(self):
        with pytest.raises(ValueError):
            FitModel(ModelClass.EXP, (1.0, 0.2, 3.0))
        with pytest.raises(ValueError):
            FitModel(ModelClass.EXP_COS, (1.0, 0.2))

    def test_shapes(self):
        t = np.linspace(0, 3, 7)
        exp = FitModel(ModelClass.EXP, (1.1, 0.4))
        assert np.allclose(exp(t), 1.1 * np.exp(-0.4 * t))
        gc = FitModel(ModelClass.GAUSS_COS, (0.9, 0.2, 1.5, 0.3))
        assert np.allclose(gc(t), 0.9 * np.exp(-0.2 * t**2) * np.cos(1.5 * t - 0.3))

    @pytest.mark.parametrize("raw", [-1e-17, -0.0])
    def test_phase_just_below_zero_reports_zero(self, raw):
        # (-1e-17) % 2pi rounds to 2pi itself, outside [0, 2pi)
        phi = FitModel(ModelClass.EXP_COS, (1.0, 0.2, 2.0, raw)).phi
        assert phi == 0.0 and math.copysign(1.0, phi) == 1.0

    def test_phase_just_below_two_pi_kept(self):
        raw = 2 * np.pi - 1e-9
        assert FitModel(ModelClass.GAUSS_COS, (1.0, 0.2, 2.0, raw)).phi == raw

    def test_squared_envelopes(self):
        assert [m for m in ModelClass if m.squared] == \
            [ModelClass.GAUSS, ModelClass.GAUSS_COS]

    def test_model_evaluates_its_class_curve(self):
        t = np.linspace(0, 3, 7)
        for kind, params in [(ModelClass.EXP, (1.1, 0.4)),
                             (ModelClass.GAUSS, (0.8, 0.3)),
                             (ModelClass.EXP_COS, (1.0, 0.2, 2.0, 0.4)),
                             (ModelClass.GAUSS_COS, (0.9, 0.2, 1.5, 0.3))]:
            assert np.array_equal(FitModel(kind, params)(t),
                                  kind.curve(params, t))
