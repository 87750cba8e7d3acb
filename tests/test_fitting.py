import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, least_squares

from morilab import fitting
from morilab.chain import CorrelationSeries, propagate
from morilab.experiment import (Scenario, ScenarioConfig, build_families,
                                trial_seed)
from morilab.fitting import (FitModel, ModelClass, detect_equilibration,
                             epsilon, fit, sigma)
from morilab.perturb import apply_draw, draw_noise


def series_from(func, dt=0.01, t_max=30.0):
    t = np.arange(0, int(round(t_max / dt)) + 1) * dt
    return CorrelationSeries(dt, func(t))


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
        series = CorrelationSeries(0.1, np.ones_like(t) - 0.03)
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

    @pytest.mark.parametrize("n_eq", [0, -1, 101])
    def test_n_eq_outside_the_series_rejected(self, n_eq):
        # the same check as epsilon's: 1 <= n_eq < len
        a = series_from(lambda t: np.exp(-t), dt=0.1, t_max=10.0)
        b = series_from(lambda t: np.exp(-1.2 * t), dt=0.1, t_max=10.0)
        with pytest.raises(ValueError, match="n_eq must lie inside the series"):
            sigma(a, b, n_eq)
        with pytest.raises(ValueError, match="n_eq must lie inside the series"):
            epsilon(a, FitModel(ModelClass.EXP, (1.0, 1.0)), n_eq)

    def test_n_eq_of_one_accepted(self):
        a = series_from(lambda t: np.exp(-t), dt=0.1, t_max=10.0)
        b = series_from(lambda t: np.exp(-1.2 * t), dt=0.1, t_max=10.0)
        assert sigma(a, b, 1) == pytest.approx(
            abs(a.values[1] - b.values[1]), rel=1e-14)


class TestCurve:
    T = np.arange(2001) * 0.02

    def test_shares_the_envelope_variable(self):
        for kind in ModelClass:
            params = (0.9, 0.2, 1.5, 0.3)[: kind.n_params]
            x = kind.envelope_variable(self.T)
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
    """G (alpha, beta) - c at (mu, omega) = p for the best pair of norm in
    [0.5, 1.5]: numpy's lstsq pair, or where its norm leaves the bounds the
    best pair on the violated bound's circle, whose phase is the root of
    the objective's phase derivative next to a dense phase grid's best (the
    objective is convex in the pair, so the annulus's best lies there)."""
    e = np.exp(-p[0] * kind.envelope_variable(t))
    g = np.column_stack((e * np.cos(p[1] * t), e * np.sin(p[1] * t)))
    pair = np.linalg.lstsq(g, c, rcond=None)[0]
    radius = np.clip(np.hypot(*pair), 0.5, 1.5)
    if radius != np.hypot(*pair):
        gram, gc = g.T @ g, g.T @ c

        def slope(phase):
            u = np.array([np.cos(phase), np.sin(phase)])
            return np.array([-u[1], u[0]]) @ (radius * gram @ u - gc)

        grid = np.linspace(0.0, 2 * np.pi, 4001)
        u = np.stack((np.cos(grid), np.sin(grid)))
        best = grid[np.argmin(radius * np.sum(u * (gram @ u), axis=0)
                              - 2 * gc @ u)]
        step = grid[1]
        phase = brentq(slope, best - step, best + step, xtol=1e-15)
        pair = radius * np.array([np.cos(phase), np.sin(phase)])
    return g @ pair - c


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
    def test_search_gets_the_closed_form_jacobian(self, monkeypatch):
        # an oscillating class: one projected search over (mu, omega)
        calls = searches(monkeypatch)
        series, kind, n_eq, _ = fit_case("gauss_cos")
        result = fit(series, kind, n_eq)
        assert len(calls) == result.restarts_used == 1
        projection, p0, _ = calls[0]
        assert p0.shape == (2,)
        t, c = series.t[:n_eq + 1], series.values[:n_eq + 1]
        # at (0.02, 0.3) the free pair's norm, 0.084, is below its bound
        for p, radius in (([0.1, 2.1], None), ([0.13, 1.9], None),
                          ([0.02, 0.3], 0.5)):
            p = np.array(p)
            r = projection.residual(p)
            np.testing.assert_allclose(r, projected_residual(kind, t, c, p),
                                       rtol=0, atol=1e-12)
            assert projection.radius == radius
            jac = projection.jacobian(p)
            differences = projected_central_differences(kind, t, c, p)
            if radius is None:
                np.testing.assert_allclose(jac, differences, rtol=1e-6,
                                           atol=1e-7)
            # on a circle only J^T r, the objective's gradient, is exact
            np.testing.assert_allclose(jac.T @ r, differences.T @ r,
                                       rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("kind, mu", [(ModelClass.EXP, 0.3),
                                          (ModelClass.GAUSS, 0.01)])
    @pytest.mark.parametrize("amplitude", [1.0, 3.0])   # 3.0: A clamped
    def test_decay_profile_has_closed_form_derivatives(self, kind, mu,
                                                       amplitude):
        t = np.arange(801) * 0.02
        x = kind.envelope_variable(t)
        c = amplitude * np.exp(-0.8 * mu * x) + 0.01 * np.sin(3.0 * t)
        f, slope, curvature, a = fitting._profile(mu, x, c)
        e = np.exp(-mu * x)
        assert a == np.clip((e @ c) / (e @ e), 0.5, 1.5)
        assert f == pytest.approx(np.sum((a * e - c) ** 2), rel=1e-14)
        h = 1e-5 * mu
        up = fitting._profile(mu + h, x, c)
        down = fitting._profile(mu - h, x, c)
        assert slope == pytest.approx((up[0] - down[0]) / (2 * h), rel=1e-6)
        assert curvature == pytest.approx((up[1] - down[1]) / (2 * h),
                                          rel=1e-6)

    @pytest.mark.parametrize("case", [*SELF_FITS, "noisy", "warm_start"])
    def test_same_minimum_as_least_squares(self, case):
        series, kind, n_eq, warm = fit_case(case)
        result = fit(series, kind, n_eq, warm_start=warm)
        reference = least_squares_epsilon(series, kind, n_eq, warm)
        assert result.converged
        # one search: the decay scan, or the projected (mu, omega) search
        assert result.restarts_used == 1
        assert abs(result.epsilon - reference) <= 1e-10

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
        refit_series = CorrelationSeries(series.dt, first.model(series.t))
        second = fit(refit_series, ModelClass.EXP, 900)
        assert np.allclose(second.model.params, first.model.params, atol=1e-9)

    @pytest.mark.parametrize("case", ["noisy", "warm_start"])
    def test_decay_fit_is_one_scan_over_the_warm_rate(self, monkeypatch,
                                                      case):
        # one scan, whose grid holds the warm start's rate; it ends no worse
        # than the best amplitude at that rate or at any of the three rates
        # around the log-envelope slope that the bounded fit used to start at
        series, kind, n_eq, warm = fit_case(case)
        scans = decay_scans(monkeypatch)
        result = fit(series, kind, n_eq, warm_start=warm)
        assert result.restarts_used == len(scans) == 1
        (x, c, extra, _), (f, a, mu, converged) = scans[0]
        assert extra == (None if warm is None else warm.mu)
        assert result.model.params == (a, mu) and result.converged == converged
        assert result.epsilon == pytest.approx(math.sqrt(f / n_eq), rel=1e-12)
        mu_base = fitting._envelope_rate(series.t[:n_eq + 1], c, kind.squared)
        rates = [mu_base, mu_base / 3, 3 * mu_base]
        for rate in rates + ([] if warm is None else [warm.mu]):
            assert f <= fitting._profile(rate, x, c)[0]

    def test_series_that_never_settles_is_scanned_over_its_window(self):
        # a lasting oscillation pins the log-envelope rate at its 1e-3
        # floor, and the minimum lies over 3000 times above it
        t = np.arange(2001) * 0.02
        c = 0.9 * np.exp(-2.6 * t**2) + 0.1 * np.cos(3.0 * t)
        result = fit(CorrelationSeries(0.02, c), ModelClass.GAUSS, 2000)
        assert fitting._envelope_rate(t, c, True) == 1e-3
        assert result.converged and result.model.mu > 3.0
        dense = min(fitting._profile(mu, t**2, c)[0]
                    for mu in np.geomspace(1e-4, 1e4, 801))
        assert result.epsilon**2 * 2000 <= dense * (1 + 1e-12)

    def test_constant_series_fits_at_the_rate_bound(self):
        # the objective grows with mu from mu = 0: the bound is the optimum
        series = CorrelationSeries(0.05, np.ones(201))
        result = fit(series, ModelClass.EXP, 200)
        assert result.model.params == (1.0, 0.0)
        assert result.converged and result.epsilon == 0.0

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


def bounds(kind, dt):
    """The fit's bounds on (A, mu[, omega, phi])."""
    if kind.oscillating:
        return [0.5, 0.0, 0.0, -np.inf], [1.5, np.inf, np.pi / dt, np.inf]
    return [0.5, 0.0], [1.5, np.inf]


def bounded_fit_epsilon(series, kind, n_eq, start):
    """epsilon of scipy's bounded least_squares over all of the class's
    parameters, from `start` clipped into the bounds."""
    t, c = series.t[:n_eq + 1], series.values[:n_eq + 1]
    lower, upper = bounds(kind, series.dt)
    return np.sqrt(np.sum(least_squares(
        lambda p: kind.curve(p, t) - c, np.clip(start, lower, upper),
        jac="3-point",
        bounds=(lower, upper), xtol=1e-14, ftol=1e-14, gtol=1e-14,
        max_nfev=1600).fun**2) / n_eq)


def least_squares_epsilon(series, kind, n_eq, warm=None):
    """Best `bounded_fit_epsilon` from the warm start and from the
    log-envelope rate: at each phase quadrant with the Fourier peak for an
    oscillating class, else at one third, one and three times that rate."""
    t, c = series.t[:n_eq + 1], series.values[:n_eq + 1]
    mu0 = fitting._envelope_rate(t, c, kind.squared)
    if kind.oscillating:
        om0 = fitting._fft_peak(t, c)
        starts = [[1.0, mu0, om0, ph] for ph in np.arange(4) * np.pi / 2]
    else:
        starts = [[1.0, mu] for mu in (mu0, mu0 / 3, 3 * mu0)]
    if warm is not None:
        starts.insert(0, warm.params)
    return min(bounded_fit_epsilon(series, kind, n_eq, p0) for p0 in starts)


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


@pytest.fixture(scope="module")
def small_decay_fits():
    return {**scenario_fits(Scenario.DECAY, 5, 3),
            **{f"pathological-{k}": v for k, v in scenario_fits(
                Scenario.PATHOLOGICAL_DECAY, 3, 3).items()}}


@pytest.mark.parametrize("case", [
    f"{prefix}{fam}-{i}" for prefix in ("", "pathological-")
    for fam in ("g", "e") for i in ("baseline", 0, 1, 2)])
def test_decay_trial_same_minimum_as_least_squares(small_decay_fits, case):
    # non-equilibrated trials too, whose log-envelope rate says nothing
    series, kind, n_eq, warm = small_decay_fits[case]
    result = fit(series, kind, n_eq, warm_start=warm)
    assert result.converged and result.restarts_used == 1
    reference = least_squares_epsilon(series, kind, n_eq, warm)
    # 1e-15: the round-off of an exact Gaussian baseline's epsilon
    assert result.epsilon <= reference * (1 + 1e-12) + 1e-15
    assert abs(result.epsilon - reference) <= 1e-9 * reference + 1e-15


def searches(monkeypatch) -> list:
    """Spy on the projected (mu, omega) search, fitting's `least_squares`:
    (projection, start, result) of every call, in order."""
    calls = []
    search = fitting.least_squares

    def spy(projection, p, *args):
        start = np.array(p, dtype=float)
        result = search(projection, p, *args)
        calls.append((projection, start, result))
        return result

    monkeypatch.setattr(fitting, "least_squares", spy)
    return calls


def decay_scans(monkeypatch) -> list:
    """Spy on the decay scan: ((x, c, extra, bounds), result) of every call,
    in order."""
    scans = []
    scan = fitting._decay_scan

    def spy(x, c, extra=None, bounds=fitting.A_BOUNDS):
        result = scan(x, c, extra, bounds)
        scans.append(((x, c, extra, bounds), result))
        return result

    monkeypatch.setattr(fitting, "_decay_scan", spy)
    return scans


class TestProjectedFit:
    DT = 0.02

    def damped_cosine(self, amplitude):
        return series_from(
            lambda t: amplitude * np.exp(-0.2 * t) * np.cos(2.0 * t - 0.5),
            dt=self.DT, t_max=20.0)

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
        assert abs(result.epsilon - least_squares_epsilon(
            series, kind, n_eq, warm)) <= 1e-10

    @pytest.mark.parametrize("warm", [None, (1.2, 0.2, 2.0, 0.5)])
    @pytest.mark.parametrize("kind, amplitude, bound", [
        (ModelClass.EXP_COS, 3.0, 1.5), (ModelClass.EXP_COS, 0.2, 0.5),
        (ModelClass.GAUSS_COS, 2.0, 1.5)])
    def test_amplitude_outside_its_bounds_is_searched_at_the_bound(
            self, monkeypatch, kind, amplitude, bound, warm):
        series = series_from(
            lambda t: kind.curve((amplitude, 0.2, 2.0, 0.5), t), dt=self.DT,
            t_max=20.0)
        warm = None if warm is None else FitModel(kind, warm)
        calls = searches(monkeypatch)
        result = fit(series, kind, 900, warm_start=warm)
        # one search, which ends with the pair on the violated bound's circle
        [(projection, _, search)] = calls
        assert projection.amplitude_phase(search.x)[0] == bound
        assert projection.radius == bound
        assert result.restarts_used == 1 and result.converged
        assert result.model.a == bound
        # scipy's bounded four-parameter fit, from the series' own
        # parameters with A clipped and from the warm start
        reference = min(bounded_fit_epsilon(series, kind, 900, p0) for p0 in
                        [(amplitude, 0.2, 2.0, 0.5), *([] if warm is None
                                                       else [warm.params])])
        assert abs(result.epsilon - reference) <= 1e-10 * reference
        if warm is not None:
            clipped = np.clip(warm.params, *bounds(kind, self.DT))
            assert result.epsilon <= epsilon(series, FitModel(kind, clipped),
                                             900)

    @pytest.mark.parametrize("amplitude", [1.0, 3.0])
    @pytest.mark.parametrize("omega", [0.0, 2.0, 200.0])
    def test_warm_frequency_is_clipped_into_its_bounds(
            self, monkeypatch, amplitude, omega):
        calls = searches(monkeypatch)
        warm = FitModel(ModelClass.EXP_COS, (1.2, 0.2, omega, 0.5))
        series = self.damped_cosine(amplitude)
        result = fit(series, ModelClass.EXP_COS, 900, warm_start=warm)
        # 200 is clipped to pi/dt = 157.08.  There, as at 0, the omega
        # column vanishes and the search could not leave the face: it starts
        # from the Fourier peak instead
        used = omega if omega == 2.0 else \
            fitting._fft_peak(series.t[:901], series.values[:901])
        assert calls[0][1].tolist() == [0.2, used]
        assert len(calls) == result.restarts_used == 1 and result.converged
        if amplitude == 1.0:
            assert result.epsilon < 1e-12
        else:        # then A is held at its bound
            assert result.model.a == 1.5
            clipped = FitModel(ModelClass.EXP_COS, (1.5, 0.2, min(
                omega, np.pi / self.DT), 0.5))
            assert result.epsilon <= epsilon(series, clipped, 900)

    def test_search_that_ends_worse_keeps_the_clipped_warm_model(
            self, monkeypatch):
        # a face start moved to the Fourier peak may end worse than the
        # warm model: a stub here
        monkeypatch.setattr(fitting, "least_squares",
                            lambda projection, p, *args: fitting._Search(
                                np.array([5.0, 9.0]), True, 1))
        warm = FitModel(ModelClass.EXP_COS, (2.0, 0.2, 2.0, 0.5))
        result = fit(self.damped_cosine(1.0), ModelClass.EXP_COS, 900,
                     warm_start=warm)
        assert result.model.params == (1.5, 0.2, 2.0, 0.5)

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
        # the exact curve has omega = 0: the face the decay scan solves
        assert result.converged
        assert result.epsilon <= 1e-12

    @pytest.mark.parametrize("kind", [ModelClass.EXP_COS,
                                      ModelClass.GAUSS_COS])
    def test_face_is_solved_by_the_decay_scan(self, monkeypatch, kind):
        series = series_from(lambda t: np.exp(-0.3 * kind.envelope_variable(t)),
                             dt=self.DT, t_max=20.0)
        calls = searches(monkeypatch)
        scans = decay_scans(monkeypatch)
        result = fit(series, kind, 900)
        # the one search ends within a quarter period of the face, where
        # the scan of the class's own envelope takes over from its rate
        assert len(scans) == len(calls) == 1
        (x, _, extra, bounds), (_, a, mu, converged) = scans[0]
        assert np.array_equal(x, kind.envelope_variable(series.t[:901]))
        assert extra == calls[0][2].x[0] > 0.0   # where the search stopped
        assert bounds == (-1.5, 1.5)             # A cos(phi) at omega = 0
        assert result.model.params == (a, mu, 0.0, 0.0)
        assert result.restarts_used == 2
        assert result.converged == converged
        assert mu == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("seed", [2, 5, 6])
    def test_slow_cosine_with_its_amplitude_at_the_bound(self, seed):
        # omega t_900 = 0.95 < pi/2: the search runs where the face stop
        # may fire, and the best fit holds A at 1.5.  The stop waits while
        # the pair met its bound at the last evaluation (on these three it
        # fired early, unconverged, when it looked at the step's start)
        rng = np.random.default_rng(seed)
        series = series_from(lambda t: ModelClass.EXP_COS.curve(
            (1.17, 0.52, 0.053, 3.49), t) + 0.01 * rng.standard_normal(
                t.size), dt=self.DT)
        result = fit(series, ModelClass.EXP_COS, 900)
        assert result.converged and result.model.a == 1.5
        reference = least_squares_epsilon(series, ModelClass.EXP_COS, 900)
        assert abs(result.epsilon - reference) <= 1e-10 * reference

    @pytest.mark.parametrize("kind, mu, omega", [
        (ModelClass.EXP_COS, 0.5, 0.05), (ModelClass.EXP_COS, 0.5, 0.08),
        (ModelClass.GAUSS_COS, 0.05, 0.05)])
    def test_slow_cosine_resumes_past_the_face_stop(self, monkeypatch, kind,
                                                    mu, omega):
        # omega t_900 < pi/2: the face stop ends the first search short of
        # the minimum, and the face scan, a decay, is worse than where it
        # stopped.  The search resumes from there and reaches the curve
        series = series_from(lambda t: kind.curve((1.0, mu, omega, 0.3), t),
                             dt=self.DT)
        calls = searches(monkeypatch)
        result = fit(series, kind, 900)
        [(_, _, first), (_, start, resumed)] = calls
        assert not first.success and first.x[1] <= np.pi / 2 / 18.0
        assert np.array_equal(start, first.x) and resumed.success
        assert result.converged and result.restarts_used == 3
        assert result.epsilon <= 1e-15
        assert result.model.params == pytest.approx((1.0, mu, omega, 0.3),
                                                    rel=1e-9)

    def test_search_on_a_bound_ends_at_its_constrained_minimum(self):
        # 3 exp(-0.05 t) as exp_cos, from where a creeping search once
        # stopped: the search ends converged at mu = 0, held at that bound
        # by a gradient pointing out of the box, with the pair on the A =
        # 1.5 circle and epsilon 0.70035 (once reported at 1.838)
        t = np.arange(901) * self.DT
        projection = fitting._Projection(t, t, 3.0 * np.exp(-0.05 * t))
        search = fitting.least_squares(projection, np.array([0.4913, 0.0021]),
                                       np.pi / self.DT)
        assert search.success
        assert search.x[0] == 0.0
        assert search.x[1] == pytest.approx(0.00637, rel=1e-3)
        assert projection.amplitude_phase(search.x)[0] == 1.5
        r = projection.residual(search.x)
        jac = projection.jacobian(search.x)
        g = jac.T @ r
        assert g[0] > 0.0
        assert abs(g[1]) <= fitting.SEARCH_GTOL * np.linalg.norm(jac[:, 1]) \
            * np.linalg.norm(r)
        assert np.sqrt(r @ r / 900) == pytest.approx(0.70035, abs=1e-5)

    @pytest.mark.parametrize("kind", [ModelClass.EXP_COS,
                                      ModelClass.GAUSS_COS])
    @pytest.mark.parametrize("value, bound", [(3.0, 1.5), (0.2, 0.5)])
    def test_constant_series_is_fitted_on_the_face(self, kind, value, bound):
        # the Fourier peak of a constant is 0: the search runs on the face
        # omega = 0, where the sin column vanishes and the pair on the
        # bound's circle is the trust region's hard case
        series = CorrelationSeries(self.DT, np.full(1001, value))
        result = fit(series, kind, 900)
        assert result.converged
        assert result.model.a == bound and result.model.omega == 0.0
        # the best curve is min(value, 1.5): A cos(phi) reaches 0.2
        assert result.epsilon == pytest.approx(
            max(value - 1.5, 0.0) * np.sqrt(901 / 900), abs=1e-15)

    @pytest.mark.parametrize("rate", [0.3, 0.05])
    @pytest.mark.parametrize("kind, amplitude", [
        (ModelClass.EXP_COS, 3.0), (ModelClass.EXP_COS, 2.0),
        (ModelClass.EXP_COS, 0.2), (ModelClass.GAUSS_COS, 3.0),
        (ModelClass.GAUSS_COS, 2.0), (ModelClass.GAUSS_COS, 0.2)])
    def test_decay_outside_the_amplitude_bounds(self, kind, amplitude, rate):
        # a decay fitted as an oscillating class: the search approaches the
        # face omega = 0 as the free pair's A runs off, with the pair held
        # on the bound's circle.  The search and the face scan decide; the
        # best may lie off the face (3 exp(-0.3 t) as exp_cos: omega =
        # 0.12, eps 0.341 against the face's 0.370)
        series = series_from(
            lambda t: amplitude * np.exp(-rate * kind.envelope_variable(t)),
            dt=self.DT, t_max=20.0)
        result = fit(series, kind, 900)
        assert result.converged
        assert result.model.a == (1.5 if amplitude > 1.5 else 0.5)
        if amplitude < 0.5:      # A cos(phi) = 0.2 on the face
            assert result.epsilon < 1e-15
        x = kind.envelope_variable(series.t[:901])
        f_face = fitting._decay_scan(x, series.values[:901], None,
                                     (-1.5, 1.5))[0]
        assert result.epsilon <= np.sqrt(f_face / 900) * (1 + 1e-12) + 1e-15
        reference = least_squares_epsilon(series, kind, 900)
        assert result.epsilon <= reference * (1 + 1e-10) + 1e-15

    def test_search_from_a_non_finite_objective_fails(self):
        class Undefined:
            def residual(self, p):
                return np.full(3, np.nan)

            def jacobian(self, p):
                return np.full((3, 2), np.nan)

        search = fitting.least_squares(Undefined(), np.array([0.1, 1.0]),
                                       10.0)
        assert not search.success and search.nfev == 1

    def test_singular_step_is_rejected(self, monkeypatch):
        # a rank-one Jacobian with damping below round-off: the damped 2x2
        # system is singular, its step 0/0, and the damping must grow
        class RankOne:
            radius = None

            def residual(self, p):
                return np.full(4, p[0] + 2 * p[1]) - [1.0, 2.0, 3.0, 4.0]

            def jacobian(self, p):
                return np.array([[1.0, 2.0]] * 4)

        monkeypatch.setattr(fitting, "SEARCH_DAMPING", 1e-17)
        search = fitting.least_squares(RankOne(), np.array([1.0, 1.0]), 10.0)
        assert search.success and np.isfinite(search.x).all()
        assert search.x[0] + 2 * search.x[1] == pytest.approx(2.5, rel=1e-12)

    # the last three rates are linspace(0.01, 0.3, 30)'s 0.06, 0.18 and
    # 0.14; whether a search meets a singular step turns on the last bits
    @pytest.mark.parametrize("rate, n_eq", [
        (0.05, 900), (0.05999999999999999, 600), (0.18, 300),
        (0.13999999999999999, 300)])
    def test_decay_with_a_singular_step_on_the_way(self, rate, n_eq):
        # exp(-r t) as exp_cos: a search on the A = 1.5 circle met a
        # singular damped step in the first three, and the fit raised; the
        # one search of the fourth meets such steps, which are rejected
        t = np.arange(n_eq + 1) * self.DT
        series = CorrelationSeries(self.DT, np.exp(-rate * t))
        result = fit(series, ModelClass.EXP_COS, n_eq)
        assert result.converged and result.epsilon <= 5e-16

    @pytest.mark.parametrize("omega", [0.0, 1e-9, 2.0, np.pi / DT])
    def test_projection_is_the_least_squares_solution(self, omega):
        # the best pair of norm in [0.5, 1.5]: at 2.0 numpy's lstsq pair;
        # at 0 and pi/dt, where the sin column vanishes on the grid,
        # lstsq's minimum-norm pair has a norm below 0.5, and at 1e-9 one
        # of 6e7, so the pair lies on the violated bound's circle
        series = self.damped_cosine(1.0)
        t = series.t[:901]
        rng = np.random.default_rng(3)
        c = series.values[:901] + 0.01 * rng.standard_normal(t.size)
        projection = fitting._Projection(t, t, c)
        p = np.array([0.2, omega])
        np.testing.assert_allclose(
            projection.residual(p),
            projected_residual(ModelClass.EXP_COS, t, c, p), rtol=0, atol=1e-12)
        assert projection.radius == (None if omega == 2.0 else
                                     1.5 if omega == 1e-9 else 0.5)
        assert np.isfinite(projection.jacobian(p)).all()

    def circle_case(self, radius, p):
        """(t, c, g): a noisy damped cosine, scaled so that its free pair at
        p has half the norm of the lower bound, or twice the upper, and the
        columns G at p."""
        series = self.damped_cosine(1.0)
        t = series.t[:901]
        rng = np.random.default_rng(5)
        c = series.values[:901] + 0.05 * rng.standard_normal(t.size)
        e = np.exp(-p[0] * t)
        g = np.stack((e * np.cos(p[1] * t), e * np.sin(p[1] * t)))
        free = np.hypot(*np.linalg.lstsq(g.T, c, rcond=None)[0])
        return t, c * radius * (0.5 if radius == 0.5 else 2.0) / free, g

    @staticmethod
    def best_on_circle(radius, g, c):
        """The least objective of a dense phase grid on the circle."""
        grid = np.linspace(0.0, 2 * np.pi, 4001)
        return np.sum((radius * np.stack((np.cos(grid), np.sin(grid))).T
                       @ g - c) ** 2, axis=1).min()

    @pytest.mark.parametrize("radius", [0.5, 1.5])
    @pytest.mark.parametrize("omega", [0.0, np.pi / DT])
    def test_circle_pair_on_a_face(self, radius, omega):
        # the sin column vanishes (at 0 exactly, at pi/dt to round-off):
        # the pair is finite, of norm `radius` and the best on its circle
        p = np.array([0.3, omega])
        t, c, g = self.circle_case(radius, p)
        projection = fitting._Projection(t, t, c)
        r = projection.residual(p)
        assert projection.radius == radius
        assert np.hypot(*projection.coef) == pytest.approx(radius, rel=1e-15)
        assert r @ r <= self.best_on_circle(radius, g, c) * (1 + 1e-12)

    @pytest.mark.parametrize("radius", [0.5, 1.5])
    @pytest.mark.parametrize("omega", [0.3, 2.0, 2.5])
    def test_circle_pair_is_the_best_on_its_circle(self, radius, omega):
        # the pair of norm `radius` is the best of a dense phase grid, and
        # J^T r, from dG (alpha, beta) alone, is the objective's gradient
        p = np.array([0.3, omega])
        t, c, g = self.circle_case(radius, p)
        projection = fitting._Projection(t, t, c)
        r = projection.residual(p)
        a, phi = projection.amplitude_phase(p)
        assert a == projection.radius == radius
        assert np.hypot(*projection.coef) == pytest.approx(radius, rel=1e-15)
        assert r @ r <= self.best_on_circle(radius, g, c) * (1 + 1e-12)

        def objective(q):
            residual = projection.residual(np.array(q))
            return 0.5 * residual @ residual

        gradient = projection.jacobian(p).T @ r
        for k, h in enumerate((1e-6, 1e-6)):
            up, down = p.copy(), p.copy()
            up[k] += h
            down[k] -= h
            assert gradient[k] == pytest.approx(
                (objective(up) - objective(down)) / (2 * h), rel=1e-6,
                abs=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(amplitude=st.sampled_from([0.2, 1.0, 3.0]),
           mu=st.floats(0.0, 0.6), omega=st.floats(0.0, 5.0))
    def test_pair_is_the_best_of_the_annulus(self, amplitude, mu, omega):
        series = self.damped_cosine(amplitude)
        t = series.t[:901]
        c = series.values[:901] + 0.01 * amplitude * np.random.default_rng(
            7).standard_normal(t.size)
        projection = fitting._Projection(t, t, c)
        p = np.array([mu, omega])
        r = projection.residual(p)
        norm = np.hypot(*projection.coef)
        assert 0.5 * (1 - 1e-15) <= norm <= 1.5 * (1 + 1e-15)
        e = np.exp(-mu * t)
        g = np.stack((e * np.cos(omega * t), e * np.sin(omega * t)))
        free = np.linalg.lstsq(g.T, c, rcond=None)[0]
        if 0.5 <= np.hypot(*free) <= 1.5:
            assert projection.radius is None
            np.testing.assert_allclose(projection.coef, free, rtol=1e-9,
                                       atol=1e-12)
            np.testing.assert_allclose(r, free @ g - c, rtol=0, atol=1e-12)
        # a radius x phase grid of the annulus, with the grid's best
        # objective summed directly
        radii, phases = np.linspace(0.5, 1.5, 101), np.linspace(
            0.0, 2 * np.pi, 721)
        pairs = (radii[:, None, None] * np.stack(
            (np.cos(phases), np.sin(phases)), axis=-1)).reshape(-1, 2)
        gram, gc = g @ g.T, g @ c
        k = np.argmin(np.einsum("ij,jk,ik->i", pairs, gram, pairs)
                      - 2 * pairs @ gc)
        best = pairs[k] @ g - c
        assert r @ r <= (best @ best) * (1 + 1e-12)

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
        perturbed = CorrelationSeries(base.dt, values)
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
