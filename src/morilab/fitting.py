"""Model-class fits of correlation functions and the deviation quantifiers.

Four model classes: plain exponential or Gaussian decay, and either one
modulating a cosine.  The deviation epsilon is the RMS distance between a
series and its best within-class fit up to the equilibration index; the
alteration sigma is the same distance between perturbed and unperturbed
dynamics.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares

from .chain import CorrelationSeries

__all__ = [
    "ModelClass",
    "FitModel",
    "FitResult",
    "EquilibrationResult",
    "detect_equilibration",
    "fit",
    "epsilon",
    "sigma",
]

EQ_THRESHOLD = 0.01  # |C| must stay below this ...
EQ_WINDOW = 5.0      # ... for this long (time units) to count as equilibrated
A_BOUNDS = (0.5, 1.5)
_TOLERANCES = dict(xtol=1e-14, ftol=1e-14, gtol=1e-14)


class ModelClass(enum.Enum):
    EXP = "exp"
    GAUSS = "gauss"
    EXP_COS = "exp_cos"
    GAUSS_COS = "gauss_cos"

    @property
    def oscillating(self) -> bool:
        return self in (ModelClass.EXP_COS, ModelClass.GAUSS_COS)

    @property
    def squared(self) -> bool:
        """Whether the envelope decays in t^2 (Gaussian) rather than t."""
        return self in (ModelClass.GAUSS, ModelClass.GAUSS_COS)

    @property
    def n_params(self) -> int:
        return 4 if self.oscillating else 2

    def envelope_variable(self, t: np.ndarray) -> np.ndarray:
        """x in the envelope exp(-mu x): t**2 for Gaussian classes, else t."""
        t = np.asarray(t, dtype=float)
        return t**2 if self.squared else t

    def curve(self, params, t: np.ndarray, x: np.ndarray | None = None
              ) -> np.ndarray:
        """The class's model at parameters (A, mu[, omega, phi]) on times t;
        `x` is `envelope_variable(t)`, if already at hand."""
        t = np.asarray(t, dtype=float)
        x = self.envelope_variable(t) if x is None else x
        out = params[0] * np.exp(-params[1] * x)
        if self.oscillating:
            out = out * np.cos(params[2] * t - params[3])
        return out

    def jacobian(self, params, t: np.ndarray, x: np.ndarray | None = None
                 ) -> np.ndarray:
        """d curve / d params in closed form, shape (len(t), n_params).

        With e = exp(-mu x), c = cos(omega t - phi), s = sin(omega t - phi)
        the columns are (e, -A x e) and, oscillating,
        (e c, -A x e c, -A t e s, A e s).
        """
        t = np.asarray(t, dtype=float)
        x = self.envelope_variable(t) if x is None else x
        a, e = params[0], np.exp(-params[1] * x)
        jac = np.empty((t.size, self.n_params))
        if self.oscillating:
            arg = params[2] * t - params[3]
            jac[:, 3] = a * e * np.sin(arg)
            jac[:, 2] = -t * jac[:, 3]
            e = e * np.cos(arg)
        jac[:, 0] = e
        jac[:, 1] = -a * x * e
        return jac


@dataclass(frozen=True)
class FitModel:
    """A model class together with concrete parameters (A, mu[, omega, phi])."""

    kind: ModelClass
    params: tuple

    def __post_init__(self):
        if len(self.params) != self.kind.n_params:
            raise ValueError(
                f"{self.kind.value} takes {self.kind.n_params} parameters")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.kind.curve(self.params, t)

    @property
    def a(self) -> float:
        return self.params[0]

    @property
    def mu(self) -> float:
        return self.params[1]

    @property
    def omega(self) -> float | None:
        return self.params[2] if self.kind.oscillating else None

    @property
    def phi(self) -> float | None:
        """Phase reduced to [0, 2pi)."""
        if not self.kind.oscillating:
            return None
        phi = self.params[3] % (2 * np.pi)
        # a tiny negative phase rounds up to 2pi itself
        return 0.0 if phi == 2 * np.pi else phi


@dataclass
class FitResult:
    model: FitModel
    epsilon: float
    n_eq: int
    converged: bool
    restarts_used: int
    restart_objectives: tuple = ()

    def to_json_dict(self) -> dict:
        m = self.model
        return {"model": m.kind.value, "A": m.a, "mu": m.mu,
                "omega": m.omega, "phi": m.phi,
                "epsilon": self.epsilon, "n_eq": self.n_eq,
                "converged": self.converged, "restarts_used": self.restarts_used}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)


class EquilibrationResult(NamedTuple):
    n_eq: int
    equilibrated: bool


def detect_equilibration(series: CorrelationSeries,
                         threshold: float = EQ_THRESHOLD,
                         window: float = EQ_WINDOW) -> EquilibrationResult:
    """Index closing the first window in which |C| stays below threshold.

    Scans for the earliest start s with |C| < threshold on every sample of
    [t_s, t_s + window]; the returned index is the window's end.  Dynamics
    that never settle get the final index and equilibrated = False.
    """
    c = series.values
    if c.size == 0:
        raise ValueError("empty series")
    if not 0 < threshold < 1:
        raise ValueError("equilibration threshold must lie in (0, 1)")
    if window < 0:
        raise ValueError("equilibration window must be nonnegative")
    below = np.abs(c) < threshold
    ws = int(round(window / series.dt))
    if c.size > ws:
        # run-length trick: window [s, s+ws] is clean iff the running
        # minimum of `below` over ws+1 samples is True
        csum = np.cumsum(below)
        full = csum[ws:] - np.concatenate(([0], csum[:-ws - 1])) == ws + 1
        starts = np.nonzero(full)[0]
        if starts.size:
            return EquilibrationResult(int(starts[0]) + ws, True)
    return EquilibrationResult(c.size - 1, False)


def epsilon(series: CorrelationSeries, model: FitModel, n_eq: int) -> float:
    """RMS deviation of the model from the series over samples 0..n_eq.

    The sum runs over n_eq + 1 samples but is normalized by n_eq, matching
    the quantifier's definition.
    """
    if n_eq < 1 or n_eq >= len(series):
        raise ValueError("n_eq must lie inside the series")
    t = series.t[: n_eq + 1]
    resid = series.values[: n_eq + 1] - model(t)
    return float(np.sqrt(np.sum(resid**2) / n_eq))


def sigma(perturbed: CorrelationSeries, unperturbed: CorrelationSeries,
          n_eq: int) -> float:
    """RMS alteration between two series on the identical grid, 0..n_eq."""
    if abs(perturbed.dt - unperturbed.dt) > 1e-12:
        raise ValueError("series grids differ (dt mismatch)")
    if n_eq >= len(perturbed) or n_eq >= len(unperturbed):
        raise ValueError("n_eq exceeds a series length")
    diff = perturbed.values[: n_eq + 1] - unperturbed.values[: n_eq + 1]
    return float(np.sqrt(np.sum(diff**2) / n_eq))


def _envelope_rate(t: np.ndarray, c: np.ndarray, squared: bool) -> float:
    """Initial decay-rate guess from an affine fit to the log envelope."""
    mask = np.abs(c) > max(1e-3, 0.02 * np.abs(c).max())
    if mask.sum() < 4:
        return 0.1
    x = t[mask] ** 2 if squared else t[mask]
    slope = np.polyfit(x, np.log(np.abs(c[mask])), 1)[0]
    return max(-float(slope), 1e-3)


def _fft_peak(t: np.ndarray, c: np.ndarray) -> float:
    """Dominant frequency of the series (DC removed)."""
    spec = np.abs(np.fft.rfft(c - c.mean()))
    freq = np.fft.rfftfreq(c.size, t[1] - t[0])
    return float(2 * np.pi * freq[int(np.argmax(spec))])


class _Projection:
    """An oscillating class with its amplitude and phase projected out.

    A e cos(omega t - phi) = alpha e cos(omega t) + beta e sin(omega t) with
    (alpha, beta) = A (cos phi, sin phi), e = exp(-mu x), is linear in
    (alpha, beta).  For fixed p = (mu, omega) the best pair solves the 2x2
    normal equations of G = [e cos(omega t), e sin(omega t)], so a search
    runs over p alone (variable projection: Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413, 1973).  The last evaluation is kept: `least_squares`
    asks for the Jacobian at the point it has just evaluated.
    """

    def __init__(self, t: np.ndarray, x: np.ndarray, c: np.ndarray):
        self.t, self.x, self.c = t, x, c
        # numpy's lstsq cutoff, squared: sigma_min / sigma_max of G below n eps
        self.rcond2 = (t.size * np.finfo(float).eps) ** 2
        self._last = None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^+ rhs for the Gram matrix M = G^T G, in closed form.

        rhs is (2,) or (2, k).  G's cos column is 1 at t = 0, so G loses
        rank only where its sin column vanishes on the grid (omega = 0 or
        pi/dt); there the minimum-norm solution has beta = 0.
        """
        a, b, d = self.gram
        det = a * d - b * b
        if det > self.rcond2 * (a + d) ** 2:
            return np.array([d * rhs[0] - b * rhs[1], a * rhs[1] - b * rhs[0]]
                            ) / det
        return np.array([rhs[0] / a, np.zeros_like(rhs[1])])

    def _evaluate(self, p: np.ndarray) -> None:
        if self._last is not None and np.array_equal(self._last, p):
            return
        e = np.exp(-p[0] * self.x)
        arg = p[1] * self.t
        self.g = np.stack((e * np.cos(arg), e * np.sin(arg)))
        # dot products, not g @ g.T: BLAS's syrk and gemm would each load
        # about 130 KB that no other part of a run touches
        g0, g1 = self.g
        self.gram = (g0 @ g0, g0 @ g1, g1 @ g1)
        self.coef = self._solve(self.g @ self.c)
        self.resid = self.coef @ self.g - self.c
        self._last = np.array(p, dtype=float)

    def residual(self, p: np.ndarray) -> np.ndarray:
        """G (alpha, beta) - c at the best (alpha, beta) for p."""
        self._evaluate(p)
        return self.resid

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """d residual / d p, shape (len(t), 2), in closed form.

        For each parameter k, with r the residual and dG_k = dG / dp_k:
        J_k = dG_k (alpha, beta) - G M^+ (G^T dG_k (alpha, beta) + dG_k^T r).
        Here dG_mu = -x G and dG_omega = t [-e sin, e cos].
        """
        self._evaluate(p)
        g, (alpha, beta), r = self.g, self.coef, self.resid
        dg_coef = np.stack((-self.x * (self.coef @ g),
                            self.t * (beta * g[0] - alpha * g[1])))
        tr = g @ (self.t * r)
        dg_r = np.stack((-(g @ (self.x * r)), [-tr[1], tr[0]]), axis=1)
        k = self._solve(np.stack((g @ dg_coef[0], g @ dg_coef[1]), axis=1)
                        + dg_r)
        return (dg_coef - k[0][:, None] * g[0] - k[1][:, None] * g[1]).T

    def amplitude_phase(self, p: np.ndarray) -> tuple[float, float]:
        """(A, phi) = (hypot(alpha, beta), atan2(beta, alpha)) at p."""
        self._evaluate(p)
        alpha, beta = (float(v) for v in self.coef)
        return math.hypot(alpha, beta), math.atan2(beta, alpha)


def fit(series: CorrelationSeries, model_class: ModelClass, n_eq: int,
        warm_start: FitModel | None = None) -> FitResult:
    """Best within-class fit of the series up to n_eq.

    The caller's `warm_start` (e.g. the unperturbed fit; it must be of
    `model_class`) is clipped into the bounds and tried first, which makes
    the returned objective at most the warm model's distance to the
    series.  Bounds: amplitude A in [0.5, 1.5], mu >= 0, 0 <= omega <= pi/dt.

    Oscillating classes search (mu, omega) alone, with (A, phi) solved in
    closed form at each point (`_Projection`), from the warm start's
    (mu, omega), else from a log-envelope slope and the dominant Fourier
    peak.  Should that search fail to converge or end with A outside its
    bounds, the bounded four-parameter fit runs from the warm start and
    from the projected point, its A clamped.  Decay classes run the
    bounded fit from the warm start and from three rates around the
    log-envelope slope.  Returns the best start; converged = False if no
    start terminated cleanly.
    """
    if n_eq < 8:
        raise ValueError("need at least 8 samples up to n_eq")
    if n_eq >= len(series):
        raise ValueError("n_eq exceeds series length")
    if warm_start is not None and warm_start.kind is not model_class:
        raise ValueError(f"warm start of class {warm_start.kind.value} "
                         f"for a {model_class.value} fit")
    t = series.t[: n_eq + 1]
    c = series.values[: n_eq + 1]
    x = model_class.envelope_variable(t)

    if model_class.oscillating:
        lower = [A_BOUNDS[0], 0.0, 0.0, -np.inf]
        upper = [A_BOUNDS[1], np.inf, np.pi / series.dt, np.inf]
        if warm_start is None:
            p0 = [_envelope_rate(t, c, model_class.squared), _fft_peak(t, c)]
        else:
            p0 = warm_start.params[1:3]
        bounds = (lower[1:3], upper[1:3])
        projection = _Projection(t, x, c)
        res = least_squares(projection.residual, np.clip(p0, *bounds),
                            jac=projection.jacobian, bounds=bounds,
                            **_TOLERANCES, max_nfev=400 * len(p0))
        a, phi = projection.amplitude_phase(res.x)
        params = (a, *res.x, phi)
        if res.success and A_BOUNDS[0] <= a <= A_BOUNDS[1]:
            model = FitModel(model_class, params)
            obj = epsilon(series, model, n_eq)
            return FitResult(model, obj, n_eq, True, 1, (obj,))
        starts = [np.clip(params, lower, upper)]
    else:
        mu0 = _envelope_rate(t, c, model_class.squared)
        starts = [[1.0, m] for m in (mu0, mu0 / 3, 3 * mu0)]
        lower = [A_BOUNDS[0], 0.0]
        upper = [A_BOUNDS[1], np.inf]
    if warm_start is not None:
        starts.insert(0, np.clip(warm_start.params, lower, upper))

    def residual(p):
        return model_class.curve(p, t, x) - c

    def jacobian(p):
        return model_class.jacobian(p, t, x)

    best = None
    objectives = []
    converged = False
    for p0 in starts:
        try:
            res = least_squares(residual, p0, jac=jacobian,
                                bounds=(lower, upper), **_TOLERANCES,
                                max_nfev=400 * len(p0))
        except ValueError:
            continue
        obj = float(np.sqrt(np.sum(res.fun**2) / n_eq))
        objectives.append(obj)
        converged = converged or bool(res.success)
        if best is None or obj < best[0]:
            best = (obj, res)
    if best is None:
        raise RuntimeError("no fit restart could be evaluated")
    model = FitModel(model_class, tuple(best[1].x))
    return FitResult(model, best[0], n_eq, converged, len(objectives),
                     tuple(objectives))
