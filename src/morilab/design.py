"""Designed coefficient families: decay and damped-oscillation chains.

All designs end in an affine tail b_n = alpha*n + gamma, the asymptotics
demanded of generic non-integrable dynamics; the head encodes the decay
class (square-root growth for Gaussian decay, a small leading coefficient
for slow exponential decay, a two-coefficient head for the oscillating
variant).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chain import LanczosChain
from .reverse import (AnalyticCorrelation, fourier_of_correlation,
                      lanczos_from_spectrum)

__all__ = [
    "GDO_TARGET",
    "gaussian_chain",
    "exponential_chain",
    "edo_chain",
    "oscillating_pair",
    "linear_continuation",
    "ContinuationResult",
    "q_ratio",
    "tangent_slope",
    "tangent_intercept",
]


# exp(-t^2/8) * cos(2t): the Gaussian-damped oscillation the gdo chain generates
GDO_TARGET = AnalyticCorrelation(gauss_rate=-0.125, cos_freq=2.0)
FIT_POINTS = 10  # prefix entries the continued tail line is fitted to
BLEND = 10       # indices over which the seam's residual offset is damped


def tangent_slope(n_star: int) -> float:
    """Slope of the affine tail continuing sqrt(n) smoothly past n_star."""
    return 1.0 / (2.0 * np.sqrt(n_star))


def tangent_intercept(n_star: int) -> float:
    """Intercept of the same tangent line, sqrt(n_star)/2."""
    return np.sqrt(n_star) / 2.0


def gaussian_chain(n_star: int, d: int) -> LanczosChain:
    """sqrt(n) head continued tangentially by alpha*n + gamma past n_star.

    The pure sqrt(n) chain generates exp(-t^2/2) exactly; the tangent
    continuation enforces asymptotically linear growth without strongly
    affecting the Gaussian decay.
    """
    if not 1 <= n_star < d:
        raise ValueError("require 1 <= n_star < d")
    n = np.arange(1, d)
    al, ga = tangent_slope(n_star), tangent_intercept(n_star)
    b = np.where(n <= n_star, np.sqrt(n), al * n + ga)
    return LanczosChain(b)


def exponential_chain(a: float, n_star: int, d: int) -> LanczosChain:
    """Small first coefficient a, then the same affine tail from n = 2 on.

    The weak entry coupling followed by the jump to the tail produces a slow
    decay that is exponential after a short initial window.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if not 1 <= n_star < d:
        raise ValueError("require 1 <= n_star < d")
    n = np.arange(1, d)
    b = tangent_slope(n_star) * n + tangent_intercept(n_star)
    b[0] = a
    return LanczosChain(b)


def edo_chain(b1: float, b2: float, slope_params: tuple[float, float],
              d: int) -> LanczosChain:
    """Two-coefficient head, then a jump onto an affine ramp from n = 3.

    `slope_params` is (slope, intercept) of the ramp; pass the tail fitted to
    the reverse-engineered oscillation chain so both oscillating designs share
    one asymptote (and hence comparable spectral width).
    """
    if b1 <= 0 or b2 <= 0:
        raise ValueError("head coefficients must be positive")
    slope, intercept = slope_params
    if slope <= 0:
        raise ValueError("ramp slope must be positive")
    if d < 4:
        raise ValueError("d must be >= 4")
    n = np.arange(1, d)
    b = slope * n + intercept
    b[0], b[1] = b1, b2
    return LanczosChain(b)


def oscillating_pair(n_max: int, d: int, b1: float,
                     b2: float) -> tuple[LanczosChain, LanczosChain]:
    """The gdo and edo chains of the damped-oscillation scenarios.

    gdo is GDO_TARGET's first n_max Lanczos coefficients, from the exact
    Hermite moments of its density (`reverse.lanczos_from_spectrum`),
    continued linearly to d sites; edo's ramp is that fitted tail.
    """
    density = fourier_of_correlation(GDO_TARGET, n_max=n_max)
    prefix = lanczos_from_spectrum(density, n_max)
    cont = linear_continuation(prefix.b, d)
    return cont.chain, edo_chain(b1, b2, (cont.slope, cont.intercept), d)


class ContinuationResult(NamedTuple):
    chain: LanczosChain
    slope: float
    intercept: float


def linear_continuation(prefix, d: int) -> ContinuationResult:
    """Extend a coefficient prefix to length d-1 with a fitted affine tail.

    The tail line is the least-squares fit to the last FIT_POINTS prefix
    entries; the residual offset of the final prefix point is damped linearly
    over BLEND indices so no jump is injected at the seam.

    Raises
    ------
    ValueError
        If the prefix has fewer than two coefficients, or the fitted slope
        is nonpositive (the continuation would violate asymptotically
        linear growth).
    """
    prefix = np.asarray(prefix, dtype=float)
    p = prefix.size
    if p < 2:
        raise ValueError(f"a tail needs at least two coefficients, got {p}")
    if np.any(prefix <= 0):
        raise ValueError("prefix coefficients must be positive")
    if d - 1 < p:
        raise ValueError(f"d too small for the given prefix: d = {d}, and "
                         f"{p} coefficients need d >= {p + 1}")
    m = min(FIT_POINTS, p)
    idx = np.arange(p - m + 1, p + 1, dtype=float)
    slope, intercept = np.polyfit(idx, prefix[-m:], 1)
    if slope <= 0:
        raise ValueError(f"fitted tail slope {slope:.4g} <= 0 violates linear growth")
    n_tail = np.arange(p + 1, d, dtype=float)
    tail = slope * n_tail + intercept
    residual = prefix[-1] - (slope * p + intercept)
    j = np.arange(1, tail.size + 1, dtype=float)
    tail += residual * np.clip(1.0 - j / (BLEND + 1.0), 0.0, None)
    return ContinuationResult(LanczosChain(np.concatenate([prefix, tail])),
                              float(slope), float(intercept))


def q_ratio(chain_a: LanczosChain, chain_b: LanczosChain) -> float:
    """Ratio of summed squared coefficients (spectral-width proxy)."""
    return float(np.sum(chain_a.b**2) / np.sum(chain_b.b**2))
