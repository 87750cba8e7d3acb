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


def fit(series: CorrelationSeries, model_class: ModelClass, n_eq: int,
        warm_start: FitModel | None = None) -> FitResult:
    """Best within-class fit of the series up to n_eq, multi-start.

    Starts: the dominant Fourier peak for the frequency, a log-envelope
    slope for the rate, phases at the four quadrants, plus the caller's
    `warm_start` if given (e.g. the unperturbed fit, which also makes the
    returned objective at most the distance to the unperturbed curve; it
    must be of `model_class`).  The amplitude is bounded to [0.5, 1.5];
    rates to mu >= 0.  Returns the best restart; converged = False if no
    restart terminated cleanly.
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
    mu0 = _envelope_rate(t, c, model_class.squared)

    starts: list[list[float]] = []
    if model_class.oscillating:
        om0 = _fft_peak(t, c)
        for ph in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
            starts.append([1.0, mu0, om0, ph])
        lower = [A_BOUNDS[0], 0.0, 0.0, -np.inf]
        upper = [A_BOUNDS[1], np.inf, np.pi / series.dt, np.inf]
    else:
        for m in (mu0, mu0 / 3, 3 * mu0):
            starts.append([1.0, m])
        lower = [A_BOUNDS[0], 0.0]
        upper = [A_BOUNDS[1], np.inf]
    if warm_start is not None:
        a, mu, *rest = warm_start.params
        starts.insert(0, [min(max(a, lower[0]), upper[0]), max(mu, 0.0), *rest])

    x = model_class.envelope_variable(t)

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
                                bounds=(lower, upper),
                                xtol=1e-14, ftol=1e-14, gtol=1e-14,
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

