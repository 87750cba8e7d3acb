import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite_e import hermegauss, hermeval

from morilab import reverse
from morilab.chain import LanczosChain, propagate
from morilab.cli import main
from morilab.design import GDO_TARGET, linear_continuation
from morilab.fitting import detect_equilibration
from morilab.reverse import (AnalyticCorrelation, fourier_of_correlation,
                             lanczos_from_spectrum)


def coefficients(corr, n_max):
    return lanczos_from_spectrum(fourier_of_correlation(corr, n_max), n_max)


def gauss_hermite(degree):
    """Nodes and weights of N(0, 1): exact for polynomials of degree below
    2 * degree."""
    x, w = hermegauss(degree)
    return x, w / math.sqrt(2 * math.pi)


class TestAnalyticCorrelation:
    def test_growth_rejected(self):
        with pytest.raises(ValueError, match="non-decaying"):
            AnalyticCorrelation(gauss_rate=0.5)
        with pytest.raises(ValueError, match="non-decaying"):
            AnalyticCorrelation(gauss_rate=0.5, cos_freq=2.0)

    @pytest.mark.parametrize("gauss_rate, cos_freq", [
        (float("nan"), 0.0), (-float("inf"), 0.0), (-0.5, float("inf")),
        (-0.5, float("nan"))])
    def test_non_finite_rejected(self, gauss_rate, cos_freq):
        with pytest.raises(ValueError, match="must be finite"):
            AnalyticCorrelation(gauss_rate, cos_freq)


class TestFourierOfCorrelation:
    def test_non_decaying_rejected(self):
        # a constant or a pure cosine has a delta comb for its density
        with pytest.raises(ValueError, match="non-decaying"):
            AnalyticCorrelation(gauss_rate=0.0)
        with pytest.raises(ValueError, match="non-decaying"):
            AnalyticCorrelation(gauss_rate=0.0, cos_freq=1.0)

    @pytest.mark.parametrize("n_max", [0, -10])
    def test_nmax_below_one_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.5),
                                   n_max=n_max)

    @pytest.mark.parametrize("gauss_rate, cos_freq", [
        (-0.5, 0.0), (-0.125, 2.0), (-0.13, -2.3), (-2.0, 0.7)])
    def test_density_transforms_back_to_the_target(self, gauss_rate, cos_freq):
        # C(t) is the mean of cos(omega t) over the density's two halves
        corr = AnalyticCorrelation(gauss_rate, cos_freq)
        s, c = fourier_of_correlation(corr)
        x, w = gauss_hermite(80)
        t = np.linspace(0.0, 4.0, 17)[:, None]
        back = 0.5 * (np.cos(s * (x + c) * t) + np.cos(s * (x - c) * t)) @ w
        target = np.exp(gauss_rate * t[:, 0]**2) * np.cos(cos_freq * t[:, 0])
        assert np.abs(back - target).max() < 1e-13

    def test_sign_of_the_frequency_does_not_matter(self):
        assert (fourier_of_correlation(AnalyticCorrelation(-0.125, -2.0))
                == fourier_of_correlation(AnalyticCorrelation(-0.125, 2.0))
                == (0.5, 4.0))


class TestModifiedMoments:
    @pytest.mark.parametrize("c", [0.0, 0.7, 4.0])
    def test_hermite_moments_against_gauss_hermite(self, c):
        # the algorithm's moments: E[He_l(Y)] over Y ~ 1/2 [N(-c, 1) + N(c, 1)]
        # is c^l for even l and 0 for odd l; the quadrature's round-off is
        # measured against He_l's norm sqrt(l!), and was below 4e-16 of it
        x, w = gauss_hermite(60)
        for l in range(21):
            he = np.eye(l + 1)[l]
            quad = 0.5 * (hermeval(x + c, he) + hermeval(x - c, he)) @ w
            exact = c**l if l % 2 == 0 else 0.0
            scale = math.sqrt(math.factorial(l)) * max(1.0, c**l)
            assert abs(quad - exact) <= 1e-14 * scale

    @pytest.mark.parametrize("gauss_rate, cos_freq", [
        (-0.5, 0.0), (-0.125, 2.0), (-0.13, 2.3), (-2.0, 0.7)])
    def test_against_stieltjes_on_gauss_hermite_nodes(self, gauss_rate,
                                                      cos_freq):
        # an independent route: the three-term recursion run on the discrete
        # measure of 2 x 100 Gauss-Hermite nodes, exact for these degrees
        corr = AnalyticCorrelation(gauss_rate, cos_freq)
        s, c = fourier_of_correlation(corr)
        x, w = gauss_hermite(100)
        nodes, weights = s * np.r_[x - c, x + c], 0.5 * np.r_[w, w]
        p_prev, p, norm, b2 = 0.0 * nodes, 1.0 + 0.0 * nodes, 1.0, 0.0
        expected = []
        for _ in range(12):
            p_prev, p = p, nodes * p - b2 * p_prev
            norm, b2 = weights @ p**2, weights @ p**2 / norm
            expected.append(math.sqrt(b2))
        got = coefficients(corr, 12).b
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestLanczosFromSpectrum:
    def test_gaussian_recovers_sqrt_n_to_the_bit(self):
        rr = coefficients(AnalyticCorrelation(gauss_rate=-0.5), 50)
        assert rr.achieved == 50
        assert np.array_equal(rr.b, np.sqrt(np.arange(1, 51)))

    @pytest.mark.parametrize("gauss_rate, cos_freq", [
        (-0.5, 0.0), (-0.125, 2.0), (-0.13, 2.3), (-0.01, 3.0), (-1e-7, 2.0)])
    def test_first_two_coefficients(self, gauss_rate, cos_freq):
        # b_1^2 = mu2 and b_2^2 = mu4/mu2 - mu2 for an even measure, with
        # mu2 = s^2 + w^2 and mu4 = 3 s^4 + 6 s^2 w^2 + w^4, in exact
        # arithmetic since mu4/mu2 - mu2 cancels most digits when w >> s
        corr = AnalyticCorrelation(gauss_rate, cos_freq)
        s, _ = fourier_of_correlation(corr)
        s2, w2 = Fraction(s)**2, Fraction(cos_freq)**2
        mu2, mu4 = s2 + w2, 3 * s2**2 + 6 * s2 * w2 + w2**2
        b = coefficients(corr, 2).b
        assert b[0] == pytest.approx(math.sqrt(mu2), rel=1e-15)
        assert b[1] == pytest.approx(math.sqrt(mu4 / mu2 - mu2), rel=1e-15)

    @pytest.mark.parametrize("k", [1e-11, 0.5, 2.0, 1e24])
    def test_scale_covariance(self, k):
        # rate x k^2 and frequency x k scale the density, and so b, by k
        base = coefficients(GDO_TARGET, 50).b
        scaled = coefficients(AnalyticCorrelation(GDO_TARGET.gauss_rate * k**2,
                                                  GDO_TARGET.cos_freq * k), 50)
        assert scaled.achieved == 50
        assert np.all(np.abs(scaled.b - k * base) <= 2 * np.spacing(scaled.b))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gauss_rate=st.floats(-4.0, -0.01), cos_freq=st.floats(0.0, 4.0),
           j=st.integers(-60, 60))
    def test_scale_covariance_by_powers_of_two_is_exact(self, gauss_rate,
                                                        cos_freq, j):
        # a power of two scales s and leaves c, so b scales without rounding
        k = 2.0**j
        base = coefficients(AnalyticCorrelation(gauss_rate, cos_freq), 12).b
        scaled = coefficients(AnalyticCorrelation(gauss_rate * k**2,
                                                  cos_freq * k), 12).b
        assert np.array_equal(scaled, k * base)

    @pytest.mark.parametrize("n_max", [0, -10])
    def test_nmax_below_one_rejected(self, n_max):
        den = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.5),
                                     n_max=8)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            lanczos_from_spectrum(den, n_max)

    @pytest.mark.parametrize("gauss_rate, cos_freq", [(-1e-7, 0.0),
                                                      (-1e-7, 2.0)])
    def test_narrow_density_is_cheap(self, gauss_rate, cos_freq):
        # no grid: a density 1/sqrt(2e-7) narrower than exp(-t^2/2)'s costs
        # no more memory (a frequency grid for it held over 600 MB)
        corr = AnalyticCorrelation(gauss_rate, cos_freq)
        tracemalloc.start()
        try:
            rr = coefficients(corr, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rr.achieved == 50 and np.all(rr.b > 0)
        assert peak < 10e6
        if cos_freq == 0.0:
            s, _ = fourier_of_correlation(corr)
            assert np.array_equal(rr.b, s * np.sqrt(np.arange(1, 51)))

    def test_csv(self, tmp_path):
        rr = coefficients(AnalyticCorrelation(gauss_rate=-0.5), 8)
        LanczosChain(rr.b).to_csv(tmp_path / "b.csv")
        rows = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert rows[0] == "n,b"
        assert len(rows) == rr.achieved + 1


class TestPrecisionCheck:
    @pytest.mark.parametrize("n_max", [50, 200])
    @pytest.mark.parametrize("corr", [
        GDO_TARGET, AnalyticCorrelation(-0.13, 2.3),
        AnalyticCorrelation(-0.01, 3.0)], ids=["gdo", "c=4.5", "c=21.2"])
    def test_quiet_where_the_rule_holds(self, corr, n_max):
        _, c = fourier_of_correlation(corr)
        digits = 30 + math.ceil(n_max * math.log10(c))
        rr = coefficients(corr, n_max)
        assert rr.achieved == n_max and np.all(rr.b > 0)
        assert rr.digits == (digits, 2 * digits)

    def test_trips_when_the_digits_are_too_few(self, monkeypatch):
        monkeypatch.setattr(reverse, "_digits", lambda c, n: 10)
        with pytest.raises(ArithmeticError,
                           match=r"^b_1/s is .* at 10 digits and .* at 20: "
                                 r"the working precision does not hold for "
                                 r"c = 21\.2132 at n_max = 50$"):
            coefficients(AnalyticCorrelation(-0.01, 3.0), 50)

    def test_cli_exits_with_the_numerical_failure_code(self, monkeypatch,
                                                       tmp_path, capsys):
        monkeypatch.setattr(reverse, "_digits", lambda c, n: 10)
        code = main(["reverse", "--target", "exp(-0.01t^2)*cos(3t)",
                     "--nmax", "50", "--out", str(tmp_path / "b.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: b_1/s is ")
        assert " at 10 digits and " in err and " at 20: " in err
        assert os.listdir(tmp_path) == []


class TestGdoPipeline:
    def test_prefix_values_frozen(self):
        # b_48 and b_50 as a converged frequency-grid quadrature gave them
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
