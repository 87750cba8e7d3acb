"""Band-limited random alterations of the chain coefficients.

The noise is a truncated random Fourier series over the chain index: the
cutoff keeps a minimal correlation length in the perturbed coefficients,
and lifting it (cutoff = d) reproduces the uncorrelated white-noise case
that localizes the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import LanczosChain

__all__ = [
    "PerturbationDraw",
    "PerturbedChain",
    "draw_noise",
    "apply_draw",
    "POSITIVITY_FLOOR",
]

POSITIVITY_FLOOR = 1e-6


@dataclass(frozen=True)
class PerturbationDraw:
    """One realization of the truncated Fourier noise v_n, n = 1..d-1."""

    d: int
    n_f: int
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not 1 <= self.n_f <= self.d:
            raise ValueError("require 1 <= n_f <= d")
        if self.x.size != self.n_f or self.y.size != self.n_f:
            raise ValueError("amplitude arrays must have n_f entries")
        if self.v.size != self.d - 1:
            raise ValueError("v must cover n = 1..d-1")

    @property
    def amplitude_norm(self) -> float:
        """sum(x^2 + y^2); unity by construction."""
        return float(np.sum(self.x**2) + np.sum(self.y**2))

    @property
    def v0(self) -> float:
        """Value of the underlying periodic signal at n = 0 (= sum of x_k)."""
        return float(np.sum(self.x))

    @property
    def sum_v2(self) -> float:
        return float(np.sum(self.v**2))


def _assemble(d: int, n_f: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """v_n = sum_k x_k cos(2pi n k/d) + y_k sin(2pi n k/d) for n = 1..d-1.

    Evaluated as the real part of an inverse FFT of x_k - i y_k placed at
    bins k mod d (the k = d term of the white-noise limit aliases to the
    constant bin, whose sine part never enters v).
    """
    coeff = np.zeros(d, dtype=complex)
    np.add.at(coeff, np.arange(1, n_f + 1) % d, x - 1j * y)
    full = d * np.real(np.fft.ifft(coeff))
    return full[1:].copy()


def draw_noise(d: int, n_f: int, seed) -> PerturbationDraw:
    """Draw Gaussian Fourier amplitudes, normalize them jointly, assemble v.

    Deterministic for a fixed seed (numpy PCG64 stream); the seed may be an
    int or anything `numpy.random.default_rng` accepts.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 1 <= n_f <= d:
        raise ValueError("require 1 <= n_f <= d")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_f)
    y = rng.standard_normal(n_f)
    scale = np.sqrt(np.sum(x**2) + np.sum(y**2))
    x /= scale
    y /= scale
    return PerturbationDraw(d, n_f, x, y, _assemble(d, n_f, x, y))


@dataclass(frozen=True)
class PerturbedChain:
    """Coefficients after adding strength*v, floored at the positivity limit."""

    chain: LanczosChain
    clamp_count: int

    @property
    def invalid(self) -> bool:
        """True when clamping dominated the draw (>1% of entries floored)."""
        return self.clamp_count > 0.01 * self.chain.d


def apply_draw(base: LanczosChain, strength: float, draw: PerturbationDraw,
               floor: float = POSITIVITY_FLOOR) -> PerturbedChain:
    """Elementwise b + strength*v with clamping below `floor`.

    Clamped entries are counted rather than redrawn: resampling would bias
    the ensemble, while the count flags draws that overwhelm the chain.
    """
    if strength < 0:
        raise ValueError("perturbation strength must be nonnegative")
    if floor <= 0:
        raise ValueError("positivity floor must be positive")
    if draw.d != base.d:
        raise ValueError(f"draw is for d={draw.d}, chain has d={base.d}")
    b = base.b + strength * draw.v
    clamped = b < floor
    if clamped.any():
        b = np.where(clamped, floor, b)
    return PerturbedChain(LanczosChain(b), int(clamped.sum()))
