"""Model-class fits of correlation functions and the deviation quantifiers.

Four model classes: plain exponential or Gaussian decay, and either one
modulating a cosine.  The deviation epsilon is the RMS distance between a
series and its best within-class fit up to the equilibration index; the
alteration sigma is the same distance between perturbed and unperturbed
dynamics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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

# The decay scan: mu = 0 and SCAN_PER_DECADE rates per decade from
# SCAN_FLAT / x_end, where the model is flat to 0.1% over the window, to
# SCAN_CUT / x_1, where it is gone after the first sample and the objective
# no longer changes (x_1, x_end: the envelope variable at the first and the
# last sample).  Neighbours differ by 10^(1/32) = 1.075, so the refinement
# starts within 7.5% of any minimum whose basin spans two grid steps.  The
# range is the window's, not one around a rate guessed from the data: a
# series that does not settle has no meaningful log-envelope slope.
SCAN_PER_DECADE = 32
SCAN_FLAT = 1e-3
SCAN_CHUNK = 16       # grid rows per pass: two (16, n_eq) buffers, 256 KB
                      # each at n_eq = 2000, far below a run's resident set
# The scan takes a chunk's model as 0 where its smallest rate has
# mu x > SCAN_CUT: there A e < 1.5 exp(-40) = 6.4e-18, which moves a grid
# point's objective by at most 1.3e-17 sum |c|, and exp never takes its slow
# path (subnormal and underflowing results cost 20x a normal one).
SCAN_CUT = 40.0
# A safeguarded Newton step this small, relative to mu, ends the refinement
# once taken: the next one would be about its square, below what the
# slope's round-off resolves.
REFINE_XTOL = 1e-12
REFINE_MAX = 100      # bisection alone narrows 7.5% to 1e-12 in 37 steps
# The (mu, omega) search: Levenberg-Marquardt on the projected residual.
# It stops when every free gradient component is below SEARCH_GTOL times
# |J_k| |r|, or when the step cannot move p by more than SEARCH_XTOL
# relative, about 50 ulps.  The first is a cosine: at the bound the
# objective lies within about SEARCH_GTOL^2 = 1e-16 of the minimum,
# relative.  Of 1608 searches in 200-trial desk runs, 1559 ended so; 45
# ended by the second, stalled at the cosine's round-off floor (1.0e-8 to
# 2.3e-8: the projected Jacobian cancels), and so did 4 exact self-fits.
SEARCH_GTOL = 1e-8
SEARCH_XTOL = 1e-14
SEARCH_MAX_EVALS = 800   # desk searches take 5-36 evaluations
SEARCH_DAMPING = 1e-3    # first damping, relative to diag(J^T J)
# Near the face omega = 0 the projected amplitude runs off as omega -> 0
# (the sin column tends to omega t e, so beta grows like 1/omega) and the
# search would creep towards the face without end.  It stops once the
# cosine shows at most a quarter period in the window, omega t_{n_eq} <=
# pi/2, and the face is solved by the decay scan instead.
FACE_PHASE = math.pi / 2
# Newton's method for the best pair on an amplitude's circle ends once it
# has taken a step this small relative to its root (`_circle_pair`): the
# next would be about its square.  It took 2 to 9 steps on 200 noisy
# damped cosines whose best A lay outside its bounds.
PAIR_XTOL = 1e-8
PAIR_MAX = 50


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

    def to_json_dict(self) -> dict:
        m = self.model
        return {"model": m.kind.value, "A": m.a, "mu": m.mu,
                "omega": m.omega, "phi": m.phi,
                "epsilon": self.epsilon, "n_eq": self.n_eq,
                "converged": self.converged, "restarts_used": self.restarts_used}


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
    Anal. 10, 413, 1973).  A pair whose norm A leaves A_BOUNDS is replaced
    by the best pair on the violated bound's circle, whose radius is kept
    as `radius` (None inside): the objective is convex in the pair, so the
    best pair of the annulus lies there.  The last evaluation is kept: the
    search asks for the Jacobian at the point it has just evaluated.
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

    def _circle_pair(self, gc: np.ndarray, amp: float) -> np.ndarray:
        """The best pair of norm A = amp for gc = G^T c.

        In M's eigenbasis, eigenvalues lam_1 <= lam_2, it is w_i = g_i /
        (lam_i - nu) at the nu <= lam_1 where |w| = A (a trust region's
        boundary solution: More & Sorensen, SIAM J. Sci. Stat. Comput. 4,
        553, 1983).  1/|w| is concave in delta = lam_1 - nu, so Newton's
        method on 1/|w| = 1/A from delta = |g_1| / A, where |w| >= A, rises
        monotonically onto the root.  Where g_1 vanishes (at omega = 0 the
        sin column does) delta may be 0, the hard case: w_2 = g_2 / (lam_2 -
        lam_1), at most A in size, and w_1 takes the rest of the norm.
        """
        a, b, d = self.gram
        lam, vec = np.linalg.eigh([[a, b], [b, d]])
        g = gc @ vec
        shift = np.array([0.0, lam[1] - lam[0]])
        if abs(g[0]) <= np.finfo(float).eps * abs(g[1]):
            w = g[1] / shift[1] if abs(g[1]) < amp * shift[1] \
                else math.copysign(amp, g[1])
            return vec @ [math.sqrt(amp * amp - w * w), w]
        delta = abs(g[0]) / amp
        for _ in range(PAIR_MAX):
            w = g / (delta + shift)
            norm = math.hypot(*w)
            step = (norm - amp) * norm**2 \
                / (amp * (w * w / (delta + shift)).sum())
            delta += step
            if abs(step) <= PAIR_XTOL * delta:
                break
        return vec @ (g / (delta + shift))

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
        gc = self.g @ self.c
        self.coef = self._solve(gc)
        norm = math.hypot(*self.coef)
        self.radius = A_BOUNDS[0] if norm < A_BOUNDS[0] \
            else A_BOUNDS[1] if norm > A_BOUNDS[1] else None
        if self.radius is not None:
            self.coef = self._circle_pair(gc, self.radius)
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
        Here dG_mu = -x G and dG_omega = t [-e sin, e cos].  On a circle
        J_k = dG_k (alpha, beta) alone: the pair moves along the circle,
        orthogonal at the best phase to G^T r, so J^T r is still exact.
        """
        self._evaluate(p)
        g, (alpha, beta), r = self.g, self.coef, self.resid
        dg_coef = np.stack((-self.x * (self.coef @ g),
                            self.t * (beta * g[0] - alpha * g[1])))
        if self.radius is not None:
            return dg_coef.T
        tr = g @ (self.t * r)
        dg_r = np.stack((-(g @ (self.x * r)), [-tr[1], tr[0]]), axis=1)
        k = self._solve(np.stack((g @ dg_coef[0], g @ dg_coef[1]), axis=1)
                        + dg_r)
        return (dg_coef - k[0][:, None] * g[0] - k[1][:, None] * g[1]).T

    def amplitude_phase(self, p: np.ndarray) -> tuple[float, float]:
        """(A, phi) = (hypot(alpha, beta), atan2(beta, alpha)) at p; A is
        the bound itself on a bound's circle."""
        self._evaluate(p)
        alpha, beta = (float(v) for v in self.coef)
        return self.radius or math.hypot(alpha, beta), math.atan2(beta, alpha)


def _profile(mu: float, x: np.ndarray, c: np.ndarray, bounds=A_BOUNDS
             ) -> tuple[float, float, float, float]:
    """(f, f', f'', A) of the decay objective f(mu) = |A e - c|^2 at
    A = clip(<e, c>/<e, e>, *bounds), the best amplitude for e = exp(-mu x).

    With r = A e - c, f' = -2 A <x e, r> whether A is clamped or not.  An
    unclamped A moves with mu, which removes f_Amu^2 / f_AA from f_mumu.
    """
    e = np.exp(-mu * x)
    xe = x * e
    ee = e @ e
    a_free = (e @ c) / ee
    a = min(max(a_free, bounds[0]), bounds[1])
    r = a * e - c
    xer = xe @ r
    curvature = 2 * a * ((x * xe) @ r + a * (xe @ xe))
    if bounds[0] < a_free < bounds[1]:
        cross = -2 * (xer + a * (e @ xe))
        curvature -= cross * cross / (2 * ee)
    return float(r @ r), -2 * a * float(xer), float(curvature), float(a)


def _refine(x: np.ndarray, c: np.ndarray, lo: float, mu: float, hi: float,
            top: float, bounds=A_BOUNDS) -> tuple[float, float, float, bool]:
    """(f, A, mu, converged): the decay objective's minimum in [lo, hi] by
    safeguarded Newton, from a grid point mu no worse than lo and hi.

    The slope's sign at the best point so far halves the bracket's side; a
    Newton step that leaves the bracket, or meets negative curvature, is
    replaced by bisection, and only a point no worse than the best is kept.
    At mu = 0 a nonnegative slope is the bound's optimum; at the grid's top
    rate a negative slope means the minimum lies beyond it, unconverged.
    """
    f, slope, curvature, a = _profile(mu, x, c, bounds)
    for _ in range(REFINE_MAX):
        if slope > 0:
            hi = mu
        elif slope < 0:
            lo = mu
        if slope == 0 or lo == hi:
            return f, a, mu, not (slope < 0 and mu >= top)
        step = -slope / curvature if curvature > 0 else math.inf
        trial = mu + step if lo < mu + step < hi else 0.5 * (lo + hi)
        done = abs(trial - mu) <= REFINE_XTOL * mu
        values = _profile(trial, x, c, bounds)
        if values[0] <= f:
            mu, (f, slope, curvature, a) = trial, values
        elif trial < mu:
            lo = trial
        else:
            hi = trial
        if done or hi - lo <= REFINE_XTOL * hi:
            return f, a, mu, True
    return f, a, mu, False


def _decay_scan(x: np.ndarray, c: np.ndarray, extra: float | None = None,
                bounds=A_BOUNDS) -> tuple[float, float, float, bool]:
    """(f, A, mu, converged) of the best decay fit A exp(-mu x) to c, A
    within `bounds`, f its sum of squared residuals.

    The objective, with A profiled out in closed form, is summed on the
    stated grid (0, SCAN_FLAT / x_end .. SCAN_CUT / x_1, and `extra`, e.g.
    a warm start's rate) in chunks of SCAN_CHUNK rates, and refined by
    `_refine` between the best point's neighbours.  Residuals are summed
    directly: the expanded form <c, c> - 2 A <e, c> + A^2 <e, e> loses
    everything below about 1e-16 <c, c>, which is more than a self-fit's
    whole objective.
    """
    decades = math.log10(SCAN_CUT * x[-1] / (SCAN_FLAT * x[1]))
    grid = np.concatenate(([0.0], np.logspace(
        math.log10(SCAN_FLAT / x[-1]), math.log10(SCAN_CUT / x[1]),
        math.ceil(SCAN_PER_DECADE * decades) + 1)))
    if extra is not None:
        extra = max(extra, 0.0)
        if extra not in grid:   # not np.unique: its first call imports numpy.ma
            grid = np.insert(grid, np.searchsorted(grid, extra), extra)
    # tail[n] = sum of c^2 beyond sample n, the objective of a zero model
    tail = np.append(np.cumsum((c * c)[::-1])[::-1], 0.0)
    objective = np.empty(grid.size)
    e_buf, r_buf = np.empty((2, SCAN_CHUNK, x.size))
    for lo in range(0, grid.size, SCAN_CHUNK):
        mu = grid[lo:lo + SCAN_CHUNK, None]
        n = np.searchsorted(x, SCAN_CUT / mu[0, 0]) if mu[0, 0] > 0 \
            else x.size
        e, r = e_buf[:mu.size, :n], r_buf[:mu.size, :n]
        np.exp(np.multiply(mu, -x[:n], out=e), out=e)
        a = np.clip((e @ c[:n]) / np.einsum("ij,ij->i", e, e), *bounds)
        np.subtract(np.multiply(a[:, None], e, out=r), c[:n], out=r)
        objective[lo:lo + SCAN_CHUNK] = np.einsum("ij,ij->i", r, r) + tail[n]
    k = int(np.argmin(objective))
    return _refine(x, c, grid[max(k - 1, 0)], grid[k],
                   grid[min(k + 1, grid.size - 1)], grid[-1], bounds)


class _Search(NamedTuple):
    x: np.ndarray       # the point (mu, omega) where the search stopped
    success: bool       # a convergence test passed within the budget
    nfev: int           # residual evaluations, the start's included, and
                        # steps rejected as not finite


def least_squares(projection: _Projection, p: np.ndarray, omega_max: float,
                  omega_face: float = -math.inf) -> _Search:
    """Levenberg-Marquardt over p = (mu, omega) in the box
    [0, inf) x [0, omega_max], on `projection`'s residual and exact Jacobian.

    Each step solves (H + lambda diag H) s = -g on the free coordinates
    (those not held at a bound by a gradient pointing out of the box),
    H = J^T J and g = J^T r; a coordinate whose column is round-off beside
    the other's is held too.  On the sample grid the objective is even in
    omega about 0 and pi/dt = omega_max, so periodic in it: a step past
    either end is folded back into the box rather than clipped onto the
    face, where the omega column vanishes at every mu (a start on that face
    stays on it).  mu is clipped at 0.  Only steps that lower the objective
    are taken, so the result is no worse than the start; lambda, the trust
    region, moves by Nielsen's rule on the ratio of actual to predicted
    decrease; a step that is not finite (a singular damped system) is
    rejected like one that fails to.  Success means the projected-gradient
    test or the step test of SEARCH_GTOL / SEARCH_XTOL passed within the
    budget; a start whose objective is not finite fails at once.  Two points
    in a row with omega <= omega_face, if given, with the pair inside its
    bounds at the second and at the evaluation before it, end the search,
    unsuccessful: it is creeping towards the face omega = 0 as A runs off,
    which on a bound's circle A cannot.
    """
    lower, upper = np.zeros(2), np.array([np.inf, omega_max])
    r = projection.residual(p)
    jac = projection.jacobian(p)
    f = r @ r
    if not math.isfinite(f):
        return _Search(p, False, 1)
    damping, growth = SEARCH_DAMPING, 2.0
    for nfev in range(1, SEARCH_MAX_EVALS + 1):
        g, h = jac.T @ r, jac.T @ jac
        diag = np.diag(h)
        free = ~(((p <= lower) & (g > 0)) | ((p >= upper) & (g < 0))) \
            & (diag > np.finfo(float).eps * diag.max())
        if np.all(np.abs(g[free]) <= SEARCH_GTOL * np.sqrt(diag[free] * f)):
            return _Search(p, True, nfev)
        m = h + damping * np.diag(diag)
        if free.all():
            with np.errstate(all="ignore"):    # singular: rejected below
                step = np.array([m[0, 1] * g[1] - m[1, 1] * g[0],
                                 m[0, 1] * g[0] - m[0, 0] * g[1]]) \
                    / (m[0, 0] * m[1, 1] - m[0, 1] ** 2)
        else:
            step = np.where(free, -g / np.where(free, diag * (1 + damping),
                                                1.0), 0.0)
        if not np.isfinite(step).all():
            damping *= growth
            growth *= 2
            continue
        trial = p + step
        trial[1] = abs(trial[1] - 2 * omega_max
                       * round(trial[1] / (2 * omega_max)))
        trial[0] = max(trial[0], 0.0)
        step = trial - p
        if math.hypot(*step) <= SEARCH_XTOL * (SEARCH_XTOL + math.hypot(*p)):
            return _Search(p, True, nfev)
        inside = projection.radius is None    # at the last evaluation
        r_trial = projection.residual(trial)
        f_trial = r_trial @ r_trial
        if f_trial < f:
            predicted = -(2 * g @ step + step @ h @ step)
            ratio = (f - f_trial) / predicted if predicted > 0 else 0.0
            damping *= max(1 / 3, 1 - (2 * ratio - 1) ** 3)
            growth = 2.0
            if max(p[1], trial[1]) <= omega_face and inside \
                    and projection.radius is None:
                return _Search(trial, False, nfev + 1)
            p, r, f = trial, r_trial, f_trial
            jac = projection.jacobian(p)
        else:
            damping *= growth
            growth *= 2
    return _Search(p, False, SEARCH_MAX_EVALS + 1)


def fit(series: CorrelationSeries, model_class: ModelClass, n_eq: int,
        warm_start: FitModel | None = None) -> FitResult:
    """Best within-class fit of the series up to n_eq.

    Bounds: amplitude A in [0.5, 1.5], mu >= 0, 0 <= omega <= pi/dt.  The
    caller's `warm_start` (e.g. the unperturbed fit; it must be of
    `model_class`) is clipped into the bounds, and the fit is never worse
    than it: the returned objective is at most the warm model's distance to
    the series.

    Decay classes profile A out in closed form and scan mu on a stated grid
    that holds the warm start's rate, then refine (`_decay_scan`): one
    search.  Oscillating classes search (mu, omega) alone, with (A, phi)
    solved in closed form at each point (`_Projection`), from the warm
    start's (mu, omega), else from a log-envelope slope and the dominant
    Fourier peak (`least_squares`); a start on a face omega = 0 or pi/dt,
    where the omega column vanishes and the search could not leave it,
    takes the Fourier peak instead.  An amplitude outside its bounds is
    held at the bound it violates inside the projection, so the one search
    runs over the bounded class.  A search that ends near the face omega =
    0 also has that face solved by the decay scan, with the class's
    amplitude there, A cos(phi) in [-1.5, 1.5], and the face fit is kept if
    no worse than the search's; if worse, an unconverged search (a slow
    cosine's, stopped short) resumes from its point without the face stop.
    The clipped warm model is kept should the fit end worse than it.  An
    unconverged search is reported as such.  `restarts_used` counts the
    searches run: the scan or the (mu, omega) search, the face scan and the
    resumed search.
    """
    if n_eq < 8:
        raise ValueError("need at least 8 samples up to n_eq")
    if n_eq >= len(series):
        raise ValueError("n_eq exceeds series length")
    if warm_start is not None and warm_start.kind is not model_class:
        raise ValueError(f"warm start of class {warm_start.kind.value} "
                         f"for a {model_class.value} fit")
    t = series.t[: n_eq + 1]
    # contiguous, so that a series read from CSV (a strided column) sums in
    # the same order as the run's own and fits to the same bits
    c = np.ascontiguousarray(series.values[: n_eq + 1])
    x = model_class.envelope_variable(t)

    def result(params, converged, searches):
        model = FitModel(model_class, params)
        return FitResult(model, epsilon(series, model, n_eq), n_eq, converged,
                         searches)

    if not model_class.oscillating:
        warm_mu = None if warm_start is None else warm_start.mu
        _, a, mu, converged = _decay_scan(x, c, warm_mu)
        return result((a, mu), converged, 1)

    lower = [A_BOUNDS[0], 0.0, 0.0, -np.inf]
    upper = [A_BOUNDS[1], np.inf, np.pi / series.dt, np.inf]
    start = np.clip([_envelope_rate(t, c, model_class.squared),
                     _fft_peak(t, c)] if warm_start is None
                    else warm_start.params[1:3], lower[1:3], upper[1:3])
    if start[1] in (lower[2], upper[2]):
        start[1] = _fft_peak(t, c)
    projection = _Projection(t, x, c)
    omega_face = FACE_PHASE / t[-1]
    p, converged, _ = least_squares(projection, start, upper[2], omega_face)
    a, phi = projection.amplitude_phase(p)
    params, f = (a, *p, phi), projection.resid @ projection.resid
    searches = 1
    if p[1] <= omega_face:
        # on the face omega = 0 the class is A cos(phi) exp(-mu x)
        f_face, a_face, mu, face_converged = _decay_scan(
            x, c, p[0], (-upper[0], upper[0]))
        searches += 1
        if f_face <= f:
            amplitude = max(abs(a_face), lower[0])
            params = (amplitude, mu, 0.0, math.acos(a_face / amplitude))
            f, converged = f_face, face_converged
        elif not converged:     # a slow cosine, not a creep to the face
            p, converged, _ = least_squares(projection, p, upper[2])
            a, phi = projection.amplitude_phase(p)
            params, f = (a, *p, phi), projection.resid @ projection.resid
            searches += 1
    if warm_start is not None:
        warm = np.clip(warm_start.params, lower, upper)
        r = model_class.curve(warm, t, x) - c
        if r @ r < f:
            params = warm
    return result(params, converged, searches)
