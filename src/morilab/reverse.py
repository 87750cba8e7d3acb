"""Recovering chain coefficients from a target correlation function.

A target C(t) = exp(a t^2) cos(w t), a < 0, has the spectral density
1/2 [N(-w, s^2) + N(w, s^2)] with s^2 = -2a.  In y = omega/s it is
1/2 [N(-c, 1) + N(c, 1)], c = |w|/s, whose modified moments against the
monic Hermite polynomials He_l are exact: c^l for even l, 0 for odd l.
Gautschi's modified Chebyshev algorithm (Orthogonal Polynomials, 2004,
section 2.1.7) turns them into the recursion coefficients beta_1..beta_n,
and the chain's hopping amplitudes are b_k = s sqrt(beta_k).  There is no
frequency grid, and b scales with s exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticCorrelation",
    "ReverseResult",
    "fourier_of_correlation",
    "lanczos_from_spectrum",
]


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


def fourier_of_correlation(corr: AnalyticCorrelation,
                           n_max: int = 50) -> tuple[float, float]:
    """The target's density as (s, c): halves N(-c s, s^2) and N(c s, s^2).

    The density does not depend on n_max, which is only checked here.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = math.sqrt(-2.0 * corr.gauss_rate)
    return s, abs(corr.cos_freq) / s


@dataclass
class ReverseResult:
    """Coefficients recovered from a density, and the working precision and
    its check's, in decimal digits."""

    b: np.ndarray
    digits: tuple[int, int]

    @property
    def achieved(self) -> int:
        return self.b.size


def _digits(c: float, n: int) -> int:
    """Working precision: c^(2n) is the largest moment, and the algorithm
    cancels about as many digits as it has.  The measured minimum for
    bit-stable b was 30, 60 and 175 digits at n = 50 for c = 4, 21.2 and
    4472 (40, 120 and 590 at n = 200), and 20 for c = 0."""
    return 30 + math.ceil(n * math.log10(max(c, 1.0)))


def _unit_coefficients(c: float, n: int, digits: int) -> list[float]:
    """b_1/s..b_n/s, the square roots of beta_1..beta_n, by the modified
    Chebyshev algorithm at `digits` digits.

    sigma_k[l] is the integral of p_k He_l, p_k the monic orthogonal
    polynomials; with He_{l+1} = y He_l - l He_{l-1}, an even measure
    and beta_0 = m_0 = 1, the algorithm's step is
        sigma_k[l] = sigma_{k-1}[l+1] - beta_{k-1} sigma_{k-2}[l]
                     + l sigma_{k-1}[l-1],
    and beta_k = sigma_k[k] / sigma_{k-1}[k-1].  Only l of k's parity is
    nonzero.  No trap is set, so a failing precision yields a NaN or a
    nonpositive value for the caller to refuse, never an exception.
    """
    # imported here, not at the top: the decay scenarios never reach this,
    # and the module costs a run about 0.3 MB of resident memory
    from decimal import Context, Decimal, localcontext

    size = 2 * n + 1
    with localcontext(Context(prec=digits, traps=[])):
        c2 = Decimal(c) * Decimal(c)
        moments = [Decimal(0)] * size
        moments[0] = Decimal(1)
        for l in range(2, size, 2):
            moments[l] = moments[l - 2] * c2
        prev, cur, beta = [Decimal(0)] * size, moments, Decimal(1)
        roots = []
        for k in range(1, n + 1):
            new = [Decimal(0)] * size
            for l in range(k, size - k, 2):
                new[l] = cur[l + 1] - beta * prev[l] + l * cur[l - 1]
            beta = new[k] / cur[k - 1]
            roots.append(float(beta.sqrt()))
            prev, cur = cur, new
    return roots


def lanczos_from_spectrum(density: tuple[float, float],
                          n_max: int) -> ReverseResult:
    """The first n_max Lanczos coefficients of `fourier_of_correlation`'s
    density, or an ArithmeticError.

    The algorithm runs at `_digits(c, n_max)` and again at twice that; the
    float b/s of both runs must be equal and positive, else the precision
    did not hold and the call refuses, naming both precisions and the
    first coefficient that disagrees.  b/s is compared, not b, so that an
    exact b/s (sqrt(k) for c = 0) is not rounded twice.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s, c = density
    digits = _digits(c, n_max)
    roots = _unit_coefficients(c, n_max, digits)
    check = _unit_coefficients(c, n_max, 2 * digits)
    bad = [k for k, (x, y) in enumerate(zip(roots, check), 1)
           if not (x == y and x > 0)]
    if bad:
        k = bad[0]
        raise ArithmeticError(
            f"b_{k}/s is {roots[k - 1]!r} at {digits} digits and "
            f"{check[k - 1]!r} at {2 * digits}: the working precision "
            f"does not hold for c = {c:g} at n_max = {n_max}")
    return ReverseResult(s * np.array(roots), (digits, 2 * digits))
