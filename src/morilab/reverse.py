"""Recovering chain coefficients from a target correlation function.

The route is spectral: the target C(t), a Gaussian envelope times at most
one cosine, has a closed-form density on the frequency axis; seed the
three-term recursion with the normalized square root of that density and
apply the frequency-multiplication operator.  The recursion coefficients
are the chain's hopping amplitudes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
    """C(t) = exp(gauss_rate*t^2) * cos(cos_freq*t), with gauss_rate < 0.

    Such a C(t) is smooth at t = 0, so every moment of its density is
    finite; a kinked factor such as exp(-r|t|) would leave b_1 infinite.
    """

    gauss_rate: float
    cos_freq: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.gauss_rate)
                and math.isfinite(self.cos_freq)):
            raise ValueError("gauss_rate and cos_freq must be finite")
        if not self.gauss_rate < 0:
            raise ValueError(f"gauss_rate {self.gauss_rate:g} is not negative: "
                             "C(t) is non-decaying and its density singular")

    def spectral_values(self, omega: np.ndarray) -> np.ndarray:
        """Closed-form transform on a grid: the Gaussian's transform, split
        into halves centred at -cos_freq and +cos_freq."""
        omega = np.asarray(omega, dtype=float)
        p = -self.gauss_rate
        base = lambda w: np.sqrt(np.pi / p) * np.exp(-w**2 / (4 * p))
        return 0.5 * (base(omega - self.cos_freq) + base(omega + self.cos_freq))


@dataclass
class SpectralDensityInput:
    """Nonnegative density on a symmetric grid, normalized so C(0) = 1."""

    omega: np.ndarray
    values: np.ndarray

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
    measure's RMS width sigma; without the widening the recursion error is
    quadrature-dominated well before n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # the transform of e^{-p t^2} has variance 2p; the cosine adds cos_freq^2
    p = -corr.gauss_rate
    sigma = np.sqrt(2.0 * p + corr.cos_freq**2)
    half = np.sqrt(np.log(1.0 / SUPPORT_CUT) * 4 * p) / (2 * p)
    w0 = abs(corr.cos_freq) + half
    w = w0 + np.sqrt(2.0 * (n_max + 5)) * sigma
    n_pts = int(np.ceil(2 * w * GRID_DENSITY)) + 1
    return np.linspace(-w, w, n_pts)


def fourier_of_correlation(corr: AnalyticCorrelation,
                           n_max: int = 50) -> SpectralDensityInput:
    """The target's closed-form density on `spectral_grid_for`'s grid."""
    grid = spectral_grid_for(corr, n_max)
    return SpectralDensityInput(grid, corr.spectral_values(grid))


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
