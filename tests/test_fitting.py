import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from morilab import fitting
from morilab.chain import CorrelationSeries, propagate
from morilab.experiment import (Scenario, ScenarioConfig, build_families,
                                trial_seed)
from morilab.fitting import (FitModel, ModelClass, detect_equilibration,
                             epsilon, fit, sigma)
from morilab.perturb import apply_draw, draw_noise


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


def projected_residual(kind, t, c, p):
    """G (alpha, beta) - c at (mu, omega) = p, the pair from numpy's lstsq."""
    e = np.exp(-p[0] * kind.envelope_variable(t))
    g = np.column_stack((e * np.cos(p[1] * t), e * np.sin(p[1] * t)))
    return g @ np.linalg.lstsq(g, c, rcond=None)[0] - c


def projected_central_differences(kind, t, c, p, steps=(1e-6, 1e-6)):
    out = np.empty((t.size, 2))
    for i, h in enumerate(steps):
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        out[:, i] = (projected_residual(kind, t, c, up)
                     - projected_residual(kind, t, c, down)) / (2 * h)
    return out


class TestFit:
    def test_least_squares_gets_the_closed_form_jacobian(self, monkeypatch):
        calls = []

        def spy(fun, x0, **kwargs):
            calls.append((fun, np.asarray(x0), kwargs.get("jac")))
            return least_squares(fun, x0, **kwargs)

        monkeypatch.setattr(fitting, "least_squares", spy)
        # an oscillating class: one projected search over (mu, omega)
        series, kind, n_eq, _ = fit_case("gauss_cos")
        result = fit(series, kind, n_eq)
        assert len(calls) == result.restarts_used == 1
        fun, x0, jac = calls[0]
        assert x0.shape == (2,) and callable(jac)
        t, c = series.t[:n_eq + 1], series.values[:n_eq + 1]
        for p in ([0.1, 2.1], [0.13, 1.9], [0.02, 0.3]):
            p = np.array(p)
            np.testing.assert_allclose(fun(p), projected_residual(kind, t, c, p),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                jac(p), projected_central_differences(kind, t, c, p),
                rtol=1e-6, atol=1e-7)
        # a decay class: every bounded start gets ModelClass.jacobian
        calls.clear()
        series, kind, n_eq, _ = fit_case("gauss")
        result = fit(series, kind, n_eq)
        assert len(calls) == result.restarts_used == 3
        for _, x0, jac in calls:
            assert x0.shape == (2,) and callable(jac)
            p = np.array([0.9, 0.1])
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
        # oscillating: one projected search each; decay: every start
        starts = 1 if kind.oscillating else 3 + (warm is not None)
        assert result.restarts_used == reference.restarts_used == starts
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


def four_parameter_epsilon(series, kind, n_eq, warm=None):
    """Best objective of the oscillating fit with (A, mu, omega, phi) all
    searched: a start at each phase quadrant from the log-envelope rate and
    the Fourier peak, plus the warm start, clipped into the bounds."""
    t, c = series.t[:n_eq + 1], series.values[:n_eq + 1]
    mu0 = fitting._envelope_rate(t, c, kind.squared)
    om0 = fitting._fft_peak(t, c)
    lower = [0.5, 0.0, 0.0, -np.inf]
    upper = [1.5, np.inf, np.pi / series.dt, np.inf]
    starts = [[1.0, mu0, om0, ph] for ph in np.arange(4) * np.pi / 2]
    if warm is not None:
        starts.insert(0, np.clip(warm.params, lower, upper))
    return min(
        np.sqrt(np.sum(least_squares(
            lambda p: kind.curve(p, t) - c, p0,
            jac=lambda p: kind.jacobian(p, t), bounds=(lower, upper),
            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=1600).fun**2) / n_eq)
        for p0 in starts)


def scenario_fits(scenario, seed, n_trials, d=400):
    """{name: (series, class, n_eq, warm start)} of a small-d run: each
    baseline without a warm start, each trial with its baseline's fit."""
    config = ScenarioConfig.preset(scenario, d=d, n_trials=n_trials,
                                   base_seed=seed)
    eq = (config.eq_threshold, config.eq_window)
    cases = {}
    for index, family in enumerate(build_families(config)):
        c0 = propagate(family.chain, dt=config.dt, t_max=config.t_max)
        n_eq0 = detect_equilibration(c0, *eq).n_eq
        cases[f"{family.name}-baseline"] = (c0, family.model_class, n_eq0,
                                            None)
        warm = fit(c0, family.model_class, n_eq0).model
        for trial in range(n_trials):
            draw = draw_noise(config.d, config.n_f,
                              trial_seed(config.base_seed, index, trial))
            chain = apply_draw(family.chain, config.strength, draw,
                               floor=config.floor).chain
            series = propagate(chain, dt=config.dt, t_max=config.t_max)
            cases[f"{family.name}-{trial}"] = (
                series, family.model_class,
                detect_equilibration(series, *eq).n_eq, warm)
    return cases


@pytest.fixture(scope="module")
def small_oscillation_fits():
    return {**scenario_fits(Scenario.OSCILLATION, 5, 3),
            **{f"pathological-{k}": v for k, v in scenario_fits(
                Scenario.PATHOLOGICAL_OSCILLATION, 3, 2).items()}}


def least_squares_starts(monkeypatch) -> list:
    """Spy on fitting's least_squares: the x0 of every call, in order."""
    starts = []

    def spy(fun, x0, **kwargs):
        starts.append(np.array(x0, dtype=float))
        return least_squares(fun, x0, **kwargs)

    monkeypatch.setattr(fitting, "least_squares", spy)
    return starts


class TestProjectedFit:
    DT = 0.02

    def damped_cosine(self, amplitude):
        return series_from(
            lambda t: amplitude * np.exp(-0.2 * t) * np.cos(2.0 * t - 0.5),
            dt=self.DT, t_max=20.0)

    @pytest.mark.parametrize("case", [name for name, case in SELF_FITS.items()
                                      if case[3].oscillating])
    def test_self_fit_same_minimum_as_the_four_parameter_fit(self, case):
        series, kind, n_eq, _ = fit_case(case)
        assert abs(fit(series, kind, n_eq).epsilon
                   - four_parameter_epsilon(series, kind, n_eq)) <= 1e-10

    @pytest.mark.parametrize("case", [
        *(f"{fam}-{i}" for fam in ("gdo", "edo")
          for i in ("baseline", 0, 1, 2)),
        *(f"pathological-{fam}-{i}" for fam in ("gdo", "edo")
          for i in ("baseline", 0, 1))])
    def test_trial_same_minimum_as_the_four_parameter_fit(
            self, small_oscillation_fits, case):
        series, kind, n_eq, warm = small_oscillation_fits[case]
        result = fit(series, kind, n_eq, warm_start=warm)
        assert result.restarts_used == 1
        assert abs(result.epsilon - four_parameter_epsilon(
            series, kind, n_eq, warm)) <= 1e-10

    @pytest.mark.parametrize("amplitude, projected", [(3.0, False),
                                                      (1.0, True)])
    def test_amplitude_outside_its_bounds_falls_back(self, monkeypatch,
                                                     amplitude, projected):
        starts = least_squares_starts(monkeypatch)
        result = fit(self.damped_cosine(amplitude), ModelClass.EXP_COS, 900)
        # the projected search, then the bounded fit from its point
        assert [p.size for p in starts] == ([2] if projected else [2, 4])
        assert result.restarts_used == len(starts) - (not projected)
        assert 0.5 <= result.model.a <= 1.5
        if projected:
            assert result.model.a == pytest.approx(1.0, abs=1e-9)
            assert result.epsilon <= 1e-12
        else:
            assert result.model.a == pytest.approx(1.5, abs=1e-12)
            assert result.converged

    @pytest.mark.parametrize("amplitude", [1.0, 3.0])
    @pytest.mark.parametrize("omega", [2.0, 200.0])
    def test_warm_frequency_is_clipped_into_its_bounds(
            self, monkeypatch, amplitude, omega):
        starts = least_squares_starts(monkeypatch)
        warm = FitModel(ModelClass.EXP_COS, (1.2, 0.2, omega, 0.5))
        result = fit(self.damped_cosine(amplitude), ModelClass.EXP_COS, 900,
                     warm_start=warm)
        used = min(omega, np.pi / self.DT)  # 200 lies above pi/dt = 157.08
        assert starts[0].tolist() == [0.2, used]
        if len(starts) > 1:   # fell back: the warm start comes first, counted
            assert starts[1].tolist() == [1.2, 0.2, used, 0.5]
            assert result.restarts_used == len(starts) - 1 == 2
        assert result.restarts_used == len(result.restart_objectives)

    @pytest.mark.parametrize("kind", [ModelClass.EXP_COS,
                                      ModelClass.GAUSS_COS])
    def test_non_oscillating_series_gives_a_finite_fit(self, kind):
        series = series_from(lambda t: np.exp(-0.3 * kind.envelope_variable(t)),
                             dt=self.DT, t_max=20.0)
        result = fit(series, kind, 900)
        params = np.array(result.model.params)
        assert np.isfinite(params).all() and np.isfinite(result.epsilon)
        assert 0.5 <= result.model.a <= 1.5
        assert 0.0 <= result.model.omega <= np.pi / self.DT
        # the exact curve has omega = 0, which the search only nears
        assert result.epsilon <= 1e-8

    @pytest.mark.parametrize("omega", [0.0, 1e-9, 2.0, np.pi / DT])
    def test_projection_is_the_least_squares_solution(self, omega):
        # at omega = 0 and pi/dt the sin column vanishes on the grid, and
        # the pair is lstsq's minimum-norm one
        series = self.damped_cosine(1.0)
        t = series.t[:901]
        rng = np.random.default_rng(3)
        c = series.values[:901] + 0.01 * rng.standard_normal(t.size)
        projection = fitting._Projection(t, t, c)
        p = np.array([0.2, omega])
        np.testing.assert_allclose(
            projection.residual(p),
            projected_residual(ModelClass.EXP_COS, t, c, p), rtol=0, atol=1e-12)
        assert np.isfinite(projection.jacobian(p)).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([ModelClass.EXP_COS, ModelClass.GAUSS_COS]),
           a=st.floats(0.6, 1.4), mu=st.floats(0.01, 0.3),
           omega=st.floats(0.3, 5.0), phi=st.floats(0.0, 2 * np.pi),
           noise=st.floats(0.0, 0.1), seed=st.integers(0, 2**16))
    def test_warm_start_bounds_the_objective(self, kind, a, mu, omega, phi,
                                             noise, seed):
        # criterion 11 for the oscillating classes: eps <= sigma + eps0
        base = series_from(lambda t: kind.curve((a, mu, omega, phi), t),
                           dt=0.05, t_max=20.0)
        n_eq = 300
        f0 = fit(base, kind, n_eq).model
        rng = np.random.default_rng(seed)
        values = base.values + noise * np.cumsum(
            rng.standard_normal(len(base))) / np.sqrt(len(base))
        perturbed = CorrelationSeries(base.dt, values, normalized=False)
        result = fit(perturbed, kind, n_eq, warm_start=f0)
        assert result.epsilon <= sigma(perturbed, base, n_eq) \
            + epsilon(base, f0, n_eq) + 1e-12


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
