import numpy as np
import pytest

from morilab.chain import LanczosChain, dense_correlation, propagate
from morilab.design import (ContinuationResult, edo_chain,
                            exponential_chain, gaussian_chain,
                            linear_continuation, q_ratio, tangent_intercept,
                            tangent_slope)
from morilab.fitting import ModelClass, detect_equilibration, fit


class TestGaussianChain:
    def test_head_values_nstar4(self):
        ch = gaussian_chain(4, 10)
        assert ch.b[3] == 2.0                      # b_4 = sqrt(4)
        assert ch.b[4] == pytest.approx(5 / 4 + 1.0)  # b_5 = 5/(2*2) + 2/2 = 2.25
        assert ch.b[4] == 2.25

    def test_tangency(self):
        for n_star in (4, 25, 100):
            ch = gaussian_chain(n_star, n_star + 10)
            # continuation touches sqrt at n_star and continues with its slope
            assert ch.b[n_star - 1] == pytest.approx(np.sqrt(n_star), abs=1e-12)
            diff = ch.b[n_star] - ch.b[n_star - 1]
            assert diff == pytest.approx(tangent_slope(n_star), abs=1e-12)

    def test_propagated_matches_gaussian(self):
        ch = gaussian_chain(10, 400)
        times = np.arange(0, 6.001, 0.05)
        oracle = dense_correlation(ch, times)
        # dense-oracle propagation stays within 1e-3 of the exact Gaussian
        assert np.abs(oracle - np.exp(-(times**2) / 2)).max() <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_chain(10, 10)
        with pytest.raises(ValueError):
            gaussian_chain(0, 10)


class TestExponentialChain:
    def test_structure(self):
        ch = exponential_chain(1.2, 10, 50)
        assert ch.b[0] == 1.2
        n = np.arange(2, 50)
        line = tangent_slope(10) * n + tangent_intercept(10)
        assert np.allclose(ch.b[1:], line, atol=1e-14)

    def test_coincides_with_gaussian_past_nstar(self):
        g = gaussian_chain(10, 1000)
        e = exponential_chain(1.2, 10, 1000)
        assert np.array_equal(g.b[10:], e.b[10:])

    def test_linear_growth_invariant(self):
        for ch in (gaussian_chain(17, 400), exponential_chain(0.9, 17, 400)):
            steps = np.diff(ch.b[17:])
            assert np.abs(steps - steps[0]).max() < 1e-12

    def test_unperturbed_fit_near_reported(self):
        # scenario default n*: slow decay with A ~ 1.02, rate ~ 0.24
        ch = exponential_chain(1.2, 150, 2000)
        series = propagate(ch, dt=0.02, t_max=35.0)
        n_eq, ok = detect_equilibration(series)
        assert ok
        result = fit(series, ModelClass.EXP, n_eq)
        assert result.model.a == pytest.approx(1.02, abs=0.02)
        assert result.model.mu == pytest.approx(0.24, abs=0.02)
        assert result.epsilon < 2e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_chain(-1.0, 10, 50)
        with pytest.raises(ValueError, match="n_star"):
            exponential_chain(1.2, 50, 50)


class TestEdoChain:
    def test_head_and_ramp(self):
        ch = edo_chain(2.0, 1.6, (0.05, 2.0), 40)
        assert ch.b[0] == 2.0
        assert ch.b[1] == 1.6
        n = np.arange(3, 40)
        assert np.allclose(ch.b[2:], 0.05 * n + 2.0, atol=1e-14)
        assert ch.b[2] > ch.b[1]  # the jump up onto the ramp

    def test_requires_slope(self):
        with pytest.raises(ValueError):
            edo_chain(2.0, 1.6, (0.0, 2.0), 40)
        with pytest.raises(ValueError):
            edo_chain(2.0, 1.6, (-0.1, 2.0), 40)

    def test_requires_four_sites(self):
        with pytest.raises(ValueError, match="d must be >= 4"):
            edo_chain(2.0, 1.6, (0.05, 2.0), 3)


class TestLinearContinuation:
    def test_sqrt_prefix_slope_matches_regression_oracle(self):
        prefix = np.sqrt(np.arange(1.0, 26.0))
        result = linear_continuation(prefix, 60)
        # independent oracle: plain least squares on the last 10 samples
        oracle_slope, oracle_icpt = np.polyfit(np.arange(16.0, 26.0),
                                               np.sqrt(np.arange(16.0, 26.0)), 1)
        assert result.slope == pytest.approx(0.11092158417825801, abs=1e-12)
        assert result.slope == pytest.approx(oracle_slope, abs=1e-12)
        assert result.intercept == pytest.approx(oracle_icpt, abs=1e-12)
        # regression of sqrt over [16, 25] sits 10.9% above the tangent at 25
        assert abs(result.slope - 0.1) / 0.1 < 0.12

    def test_affine_prefix_exact(self):
        n = np.arange(1.0, 21.0)
        prefix = 0.3 * n + 1.1
        result = linear_continuation(prefix, 50)
        full_n = np.arange(1.0, 50.0)
        assert np.allclose(result.chain.b, 0.3 * full_n + 1.1, atol=1e-10)

    def test_blend_damps_residual(self):
        # prefix ending off the regression line: offset decays over the window
        n = np.arange(1.0, 21.0)
        prefix = 0.3 * n + 1.1
        prefix[-1] += 0.5
        result = linear_continuation(prefix, 60)
        line = result.slope * np.arange(21.0, 60.0) + result.intercept
        resid = result.chain.b[20:] - line
        assert resid[0] > resid[5] > resid[10] >= 0
        assert np.all(resid[10:] == 0)

    def test_negative_slope_rejected(self):
        prefix = np.linspace(3.0, 1.0, 15)
        with pytest.raises(ValueError, match="slope"):
            linear_continuation(prefix, 40)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            linear_continuation(np.array([]), 40)

    @pytest.mark.parametrize("prefix, error", [
        ([1.0], "at least two coefficients, got 1"),
        ([1.0, 0.0, 2.0], "prefix coefficients must be positive")])
    def test_prefix_without_a_tail_line_rejected(self, prefix, error):
        # one coefficient fits no line; a slope of 0 would claim one
        with pytest.raises(ValueError, match=error):
            linear_continuation(np.array(prefix), 40)

    def test_result_type(self):
        result = linear_continuation(np.sqrt(np.arange(1.0, 12.0)), 30)
        assert isinstance(result, ContinuationResult)
        assert isinstance(result.chain, LanczosChain)


class TestQRatio:
    def test_identity(self):
        ch = gaussian_chain(5, 40)
        assert q_ratio(ch, ch) == 1.0

    def test_homogeneity(self):
        ch = gaussian_chain(5, 40)
        for c in (0.5, 2.0, 3.7):
            assert q_ratio(LanczosChain(ch.b * c), ch) == \
                pytest.approx(c**2, rel=1e-12)

    def test_paper_scale_designs(self):
        g = gaussian_chain(150, 10000)
        e = exponential_chain(1.2, 150, 10000)
        assert abs(q_ratio(g, e) - 1.0) <= 1e-4

    def test_converges_with_d(self):
        qs = [abs(q_ratio(gaussian_chain(10, d),
                          exponential_chain(1.2, 10, d)) - 1.0)
              for d in (1000, 4000, 16000)]
        assert qs[0] > qs[1] > qs[2]


class TestTimescaleParity:
    def test_relaxation_times_within_factor_two_at_defaults(self):
        # requirement: paired designs decay on comparable time scales
        g = propagate(gaussian_chain(10, 2000), dt=0.02, t_max=12.0)
        e = propagate(exponential_chain(1.2, 10, 2000), dt=0.02, t_max=12.0)
        # first passage of |C| below 1/e, the relaxation-time proxy
        first = [np.argmax(np.abs(c.values) < 1 / np.e) for c in (g, e)]
        assert min(first) > 0
        ratio = first[1] / first[0]
        assert 0.5 <= ratio <= 2.0
