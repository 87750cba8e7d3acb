"""Recovering chain coefficients from a target correlation function.

The route is spectral: Fourier-transform C(t), seed the three-term
recursion with the normalized square root of the density, and apply the
frequency-multiplication operator.  The recursion coefficients are the
chain's hopping amplitudes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import CorrelationSeries

__all__ = [
    "AnalyticCorrelation",
    "SpectralDensityInput",
    "ReverseResult",
    "QuadratureError",
    "fourier_of_correlation",
    "spectral_grid_for",
    "lanczos_from_spectrum",
]

GRID_DENSITY = 40          # grid points per unit frequency
SUPPORT_CUT = 1e-16        # window rule: density below this fraction of max
STABILITY_B2_MIN = 1e-20   # b_n^2 below this ends the recursion
ORTHO_RESIDUAL_MAX = 1e-6  # loss of basis orthogonality ends the recursion


class QuadratureError(ValueError):
    """Raised when the frequency grid cannot support the computation."""


@dataclass(frozen=True)
class AnalyticCorrelation:
    """C(t) = exp(gauss_rate*t^2) * exp(exp_rate*|t|) * cos(cos_freq*t).

    Rates are signed; decaying targets use negative rates.  The transform is
    closed-form unless both damping factors are present, in which case the
    sampled cosine transform is used.
    """

    gauss_rate: float = 0.0
    exp_rate: float = 0.0
    cos_freq: float = 0.0

    def __post_init__(self):
        if self.gauss_rate > 0 or self.exp_rate > 0:
            raise ValueError("growth rates correspond to a non-decaying C(t)")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        c = np.ones_like(t)
        if self.gauss_rate:
            c = c * np.exp(self.gauss_rate * t**2)
        if self.exp_rate:
            c = c * np.exp(self.exp_rate * np.abs(t))
        if self.cos_freq:
            c = c * np.cos(self.cos_freq * t)
        return c

    @property
    def has_closed_form(self) -> bool:
        return not (self.gauss_rate and self.exp_rate)

    @property
    def decaying(self) -> bool:
        return bool(self.gauss_rate or self.exp_rate)

    def rms_width(self) -> float:
        """RMS frequency width of the induced density (for window sizing)."""
        if self.gauss_rate:
            var = -2.0 * self.gauss_rate  # transform of e^{-p t^2} has var 2p
        elif self.exp_rate:
            var = 2.0 * self.exp_rate**2  # Lorentzian proxy: use 2r^2 scale
        else:
            var = 1.0
        return float(np.sqrt(var + self.cos_freq**2))

    def spectral_values(self, omega: np.ndarray) -> np.ndarray:
        """Closed-form transform on a grid (pure Gaussian / pure exponential)."""
        omega = np.asarray(omega, dtype=float)
        if not self.decaying:
            raise ValueError("constant or pure-cosine C(t) has a singular density")
        if not self.has_closed_form:
            raise ValueError("mixed damping has no closed form; sample C(t) instead")

        def base(w):
            if self.gauss_rate:
                p = -self.gauss_rate
                return np.sqrt(np.pi / p) * np.exp(-w**2 / (4 * p))
            r = -self.exp_rate
            return 2 * r / (w**2 + r**2)

        if self.cos_freq:
            return 0.5 * (base(omega - self.cos_freq) + base(omega + self.cos_freq))
        return base(omega)


@dataclass
class SpectralDensityInput:
    """Nonnegative density on a symmetric grid, normalized so C(0) = 1."""

    omega: np.ndarray
    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.omega.ndim != 1 or self.omega.size < 8:
            raise ValueError("need a one-dimensional grid of at least 8 nodes")
        if np.any(np.diff(self.omega) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        vmax = self.values.max() if self.values.size else 0.0
        if vmax <= 0:
            raise ValueError("density must have positive mass")
        floor = self.values.min()
        if floor < -1e-6 * vmax:
            raise ValueError(f"grossly negative density (min {floor:.3g}); rejected")
        if floor < -1e-10:
            warnings.warn("small negative density values clipped to zero")
        self.values = np.clip(self.values, 0.0, None)
        # normalize the induced C(0) = (1/2pi) integral to unity
        total = np.trapezoid(self.values, self.omega)
        self.values = self.values * (2 * np.pi / total)


def spectral_grid_for(corr: AnalyticCorrelation, n_max: int) -> np.ndarray:
    """Symmetric uniform grid wide enough for n_max recursion steps.

    The window is the support rule (density below 1e-16 of its maximum)
    widened by the reach of the n-th basis function, ~ sqrt(2n) times the
    measure's RMS width; without the widening the recursion error is
    quadrature-dominated well before n_max.
    """
    sigma = corr.rms_width()
    if corr.gauss_rate:
        p = -corr.gauss_rate
        half = np.sqrt(np.log(1.0 / SUPPORT_CUT) * 4 * p) / (2 * p)
    else:
        r = -corr.exp_rate
        half = r / np.sqrt(SUPPORT_CUT)  # Lorentzian tail 2r/w^2
        half = min(half, 2000.0 * max(sigma, 1.0))
    w0 = abs(corr.cos_freq) + half
    w = w0 + np.sqrt(2.0 * (n_max + 5)) * sigma
    n_pts = int(np.ceil(2 * w * GRID_DENSITY)) + 1
    return np.linspace(-w, w, n_pts)


def fourier_of_correlation(source, n_max: int = 50) -> SpectralDensityInput:
    """Density of a correlation function, analytic form preferred.

    `source` is an AnalyticCorrelation (closed form when available, sampled
    cosine transform otherwise) or a CorrelationSeries (cosine transform of
    the sampled half-line, using evenness).  Non-decaying input is rejected:
    its density is a delta comb that no grid represents.
    """
    if isinstance(source, AnalyticCorrelation):
        if not source.decaying:
            raise ValueError("non-decaying correlation function; density is singular")
        grid = spectral_grid_for(source, n_max)
        if source.has_closed_form:
            vals = source.spectral_values(grid)
            return SpectralDensityInput(grid, vals, source="analytic")
        # sample until the product has decayed, then transform numerically
        scale = max(-source.gauss_rate, -source.exp_rate, 0.25)
        t_max = np.sqrt(np.log(1e18) / scale) if source.gauss_rate else np.log(1e18) / scale
        dt = 0.5 * np.pi / grid[-1]
        t = np.arange(0.0, t_max, dt)
        series = CorrelationSeries(dt, source(t))
        return _cosine_transform(series, grid, source="analytic-sampled")

    if isinstance(source, CorrelationSeries):
        c_end = abs(source.values[-1])
        if c_end > 0.05:
            raise ValueError(
                f"series has not decayed within the window (|C_end| = {c_end:.3g})")
        w_max = min(np.pi / source.dt / 2, 64.0)
        omega = np.linspace(-w_max, w_max, int(np.ceil(2 * w_max * GRID_DENSITY)) + 1)
        return _cosine_transform(source, omega, source="series")

    raise TypeError("source must be an AnalyticCorrelation or CorrelationSeries")


def _cosine_transform(series: CorrelationSeries, omega: np.ndarray,
                      source: str) -> SpectralDensityInput:
    t = series.t
    vals = 2.0 * np.trapezoid(np.cos(np.outer(omega, t)) * series.values,
                              t, axis=1)
    return SpectralDensityInput(omega, vals, source=source)


@dataclass
class ReverseResult:
    """Coefficients recovered from a density, with the achieved count."""

    b: np.ndarray
    achieved: int
    stop_reason: str


def _recursion(omega: np.ndarray, values: np.ndarray,
               n_max: int) -> tuple[np.ndarray, str]:
    """Weighted three-term recursion with twice-is-enough reorthogonalization."""
    w = np.empty_like(omega)
    dx = np.diff(omega)
    w[0] = dx[0] / 2
    w[-1] = dx[-1] / 2
    w[1:-1] = (dx[:-1] + dx[1:]) / 2
    f0 = np.sqrt(values)
    f0 = f0 / np.sqrt(np.sum(w * f0 * f0))

    Q = np.empty((n_max + 1, omega.size))
    Q[0] = f0
    b = np.zeros(n_max)
    q_prev = np.zeros_like(f0)
    q = f0
    stop = "n_max reached"
    achieved = 0
    for n in range(1, n_max + 1):
        r = -omega * q - (b[n - 2] if n > 1 else 0.0) * q_prev
        for _ in range(2):
            r -= Q[:n].T @ (Q[:n] @ (w * r))
        bn2 = float(np.sum(w * r * r))
        if bn2 < STABILITY_B2_MIN:
            stop = f"b_{n}^2 below stability cutoff"
            break
        bn = np.sqrt(bn2)
        q_prev, q = q, r / bn
        if float(np.max(np.abs(Q[:n] @ (w * q)))) > ORTHO_RESIDUAL_MAX:
            stop = f"orthogonality residual exceeded at step {n}"
            break
        Q[n] = q
        b[n - 1] = bn
        achieved = n
    return b[:achieved].copy(), stop


def lanczos_from_spectrum(spec: SpectralDensityInput, n_max: int) -> ReverseResult:
    """Three-term recursion in function space with full reorthogonalization.

    Seed: normalized sqrt of the density.  Operator: multiplication by
    -omega.  Inner product: quadrature on the input grid.  Stops at n_max,
    at loss of positivity of b_n^2, or at loss of orthogonality; the
    achieved count is reported rather than padded.

    Under-resolution defense is twofold: the density's integral must agree
    between the grid and its half-resolution subgrid (else QuadratureError),
    and the recursion is repeated on the subgrid — coefficients are only
    reported up to the point where both grids agree, since past it they
    reflect the grid rather than the measure.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    full = np.trapezoid(spec.values, spec.omega)
    half = np.trapezoid(spec.values[::2], spec.omega[::2])
    drift = abs(full - half) / full
    if drift > 1e-4:
        raise QuadratureError(
            f"normalization drift {drift:.2e} between grid resolutions: "
            "the grid under-resolves the density")

    b, stop = _recursion(spec.omega, spec.values, n_max)
    b_half, _ = _recursion(spec.omega[::2], spec.values[::2], n_max)
    agree = min(b.size, b_half.size)
    mismatch = np.nonzero(
        np.abs(b[:agree] - b_half[:agree]) > 5e-3 * np.abs(b[:agree]))[0]
    if mismatch.size:
        cut = int(mismatch[0])
        b = b[:cut]
        stop = (f"grid-resolution disagreement at step {cut + 1}: "
                "the grid under-resolves the basis functions")
    return ReverseResult(b, b.size, stop)
