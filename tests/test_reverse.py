import numpy as np
import pytest

from morilab.chain import LanczosChain, propagate
from morilab.design import linear_continuation
from morilab.fitting import detect_equilibration
from morilab.reverse import (AnalyticCorrelation, QuadratureError,
                             SpectralDensityInput, fourier_of_correlation,
                             lanczos_from_spectrum, spectral_grid_for)


def second_moment(den):
    """Second moment of the normalized measure (equals b_1^2)."""
    return np.trapezoid(den.omega**2 * den.values, den.omega) / (2 * np.pi)


class TestAnalyticCorrelation:
    def test_growth_rejected(self):
        with pytest.raises(ValueError):
            AnalyticCorrelation(gauss_rate=0.5)
        with pytest.raises(ValueError):
            AnalyticCorrelation(exp_rate=0.1)

    def test_evaluation(self):
        c = AnalyticCorrelation(gauss_rate=-0.125, cos_freq=2.0)
        t = np.linspace(0, 5, 11)
        assert np.allclose(c(t), np.exp(-t**2 / 8) * np.cos(2 * t), atol=1e-14)

    def test_gaussian_closed_form_vs_quadrature(self):
        # oracle: direct numeric transform of the sampled correlation function
        c = AnalyticCorrelation(gauss_rate=-0.5)
        omega = np.linspace(-6, 6, 121)
        closed = c.spectral_values(omega)
        t = np.linspace(0, 12, 6001)
        quad = 2 * np.trapezoid(np.cos(np.outer(omega, t)) * np.exp(-t**2 / 2),
                                t, axis=1)
        assert np.abs(closed - quad).max() < 1e-10
        assert np.abs(closed - np.sqrt(2 * np.pi) * np.exp(-omega**2 / 2)).max() < 1e-12

    def test_modulation_shifts_density(self):
        # cos(2t) factor splits the Gaussian into two shifted halves
        c = AnalyticCorrelation(gauss_rate=-0.125, cos_freq=2.0)
        omega = np.linspace(-8, 8, 161)
        closed = c.spectral_values(omega)
        shifted = 0.5 * (np.sqrt(8 * np.pi) * np.exp(-2 * (omega - 2) ** 2)
                         + np.sqrt(8 * np.pi) * np.exp(-2 * (omega + 2) ** 2))
        assert np.abs(closed - shifted).max() < 1e-12
        t = np.linspace(0, 14, 7001)
        quad = 2 * np.trapezoid(np.cos(np.outer(omega, t)) * c(t), t, axis=1)
        assert np.abs(closed - quad).max() < 1e-9

    def test_mixed_damping_has_no_closed_form(self):
        c = AnalyticCorrelation(gauss_rate=-0.2, exp_rate=-0.1)
        assert not c.has_closed_form
        with pytest.raises(ValueError):
            c.spectral_values(np.linspace(-2, 2, 9))


class TestFourierOfCorrelation:
    def test_non_decaying_rejected(self):
        with pytest.raises(ValueError, match="non-decaying"):
            fourier_of_correlation(AnalyticCorrelation())
        with pytest.raises(ValueError, match="non-decaying"):
            fourier_of_correlation(AnalyticCorrelation(cos_freq=1.0))

    def test_series_path_matches_analytic(self):
        ch = LanczosChain(np.sqrt(np.arange(1, 400)))
        series = propagate(ch, dt=0.02, t_max=10.0)
        den = fourier_of_correlation(series)
        target = np.sqrt(2 * np.pi) * np.exp(-den.omega**2 / 2)
        assert np.abs(den.values - target).max() < 1e-5

    def test_undecayed_series_rejected(self):
        series = propagate(LanczosChain(np.sqrt(np.arange(1, 50))),
                           dt=0.02, t_max=0.4)
        with pytest.raises(ValueError, match="not decayed"):
            fourier_of_correlation(series)

    def test_mixed_analytic_sampled_route(self):
        c = AnalyticCorrelation(gauss_rate=-0.25, exp_rate=-0.3)
        den = fourier_of_correlation(c, n_max=12)
        assert den.values.min() >= 0
        # density should be normalized to (1/2pi) integral = 1
        total = np.trapezoid(den.values, den.omega) / (2 * np.pi)
        assert abs(total - 1.0) < 1e-9

    def test_normalization_applied(self):
        den = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.5))
        assert abs(np.trapezoid(den.values, den.omega) / (2 * np.pi) - 1.0) < 1e-12


class TestSpectralDensityInput:
    def test_small_negatives_clipped_silently(self):
        om = np.linspace(-4, 4, 81)
        vals = np.exp(-om**2)
        vals[3] = -5e-11
        den = SpectralDensityInput(om, vals)
        assert den.values.min() >= 0

    def test_moderate_negatives_warn(self):
        om = np.linspace(-4, 4, 81)
        vals = np.exp(-om**2)
        vals[3] = -1e-8
        with pytest.warns(UserWarning):
            den = SpectralDensityInput(om, vals)
        assert den.values.min() >= 0

    def test_gross_negatives_rejected(self):
        om = np.linspace(-4, 4, 81)
        vals = np.exp(-om**2)
        vals[3] = -0.01
        with pytest.raises(ValueError, match="negative"):
            SpectralDensityInput(om, vals)

    def test_second_moment(self):
        om = np.linspace(-10, 10, 2001)
        den = SpectralDensityInput(om, np.sqrt(2 * np.pi) * np.exp(-om**2 / 2))
        assert second_moment(den) == pytest.approx(1.0, abs=1e-10)


class TestLanczosFromSpectrum:
    def test_gaussian_recovers_sqrt_n(self):
        den = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.5),
                                     n_max=55)
        rr = lanczos_from_spectrum(den, 55)
        assert rr.achieved >= 50
        n = np.arange(1, 31)
        rel = np.abs(rr.b[:30] - np.sqrt(n)) / np.sqrt(n)
        assert rel.max() <= 1e-3

    def test_reflection_invariance(self):
        # even measure: flipping the frequency axis leaves the b_n unchanged
        den = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.125,
                                                         cos_freq=2.0), n_max=20)
        rr = lanczos_from_spectrum(den, 20)
        flipped = SpectralDensityInput(den.omega, den.values[::-1].copy())
        rr_f = lanczos_from_spectrum(flipped, 20)
        assert np.allclose(rr.b, rr_f.b, rtol=1e-9)

    def test_b1_equals_sqrt_second_moment(self):
        den = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.125,
                                                         cos_freq=2.0), n_max=10)
        rr = lanczos_from_spectrum(den, 10)
        assert rr.b[0] == pytest.approx(np.sqrt(second_moment(den)), rel=1e-9)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_scale_covariance(self, c):
        base = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.5),
                                      n_max=15)
        rr = lanczos_from_spectrum(base, 15)
        scaled = SpectralDensityInput(base.omega * c, base.values / c)
        rr_c = lanczos_from_spectrum(scaled, 15)
        assert np.allclose(rr_c.b, c * rr.b, rtol=1e-8)

    def test_coarse_grid_truncates_honestly(self):
        om = np.linspace(-9, 9, 55)
        den = SpectralDensityInput(om, np.sqrt(2 * np.pi) * np.exp(-om**2 / 2))
        rr = lanczos_from_spectrum(den, 20)
        assert rr.achieved < 20
        assert "under-resolves" in rr.stop_reason

    def test_rough_density_quadrature_error(self):
        rng = np.random.default_rng(5)
        om = np.linspace(-6, 6, 301)
        vals = np.exp(-om**2 / 2) * (1.0 + 0.5 * rng.random(om.size))
        with pytest.raises(QuadratureError, match="drift"):
            lanczos_from_spectrum(SpectralDensityInput(om, vals), 10)

    def test_csv(self, tmp_path):
        den = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.5),
                                     n_max=8)
        rr = lanczos_from_spectrum(den, 8)
        LanczosChain(rr.b).to_csv(tmp_path / "b.csv")
        rows = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert rows[0] == "n,b"
        assert len(rows) == rr.achieved + 1


class TestGdoPipeline:
    def test_prefix_values_frozen(self):
        # converged against window padding x1.5-2.5 and density 40->80
        den = fourier_of_correlation(
            AnalyticCorrelation(gauss_rate=-0.125, cos_freq=2.0), n_max=50)
        rr = lanczos_from_spectrum(den, 50)
        assert rr.achieved == 50
        assert rr.b[0] == pytest.approx(np.sqrt(4.25), rel=1e-9)  # sqrt(m2)
        assert rr.b[47] == pytest.approx(4.134465, abs=1e-5)
        assert rr.b[49] == pytest.approx(4.206911, abs=1e-5)

    def test_continued_chain_reproduces_target(self):
        den = fourier_of_correlation(
            AnalyticCorrelation(gauss_rate=-0.125, cos_freq=2.0), n_max=50)
        rr = lanczos_from_spectrum(den, 50)
        cont = linear_continuation(rr.b, 2000)
        assert cont.slope == pytest.approx(1 / (4 * np.sqrt(50)), rel=0.05)
        series = propagate(cont.chain, dt=0.02, t_max=25.0)
        target = np.exp(-series.t**2 / 8) * np.cos(2 * series.t)
        n_eq, _ = detect_equilibration(series)
        rms = np.sqrt(np.sum((series.values - target)[: n_eq + 1] ** 2) / n_eq)
        assert rms <= 0.01


class TestSpectralGrid:
    def test_window_covers_basis_support(self):
        c = AnalyticCorrelation(gauss_rate=-0.5)
        grid = spectral_grid_for(c, n_max=50)
        # basis functions reach ~ sqrt(2n) for the unit Gaussian
        assert grid[-1] >= np.sqrt(2 * 50)
        assert grid.size >= 2 * grid[-1] * 40
