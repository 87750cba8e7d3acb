"""Finite Mori chain: hopping coefficients and time evolution.

The chain is the one-dimensional tight-binding model whose hopping
amplitudes are the Lanczos coefficients b_1..b_{d-1}.  The site-0
amplitude of the evolving wavefunction is the autocorrelation function
C(t).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import jv

__all__ = [
    "LanczosChain",
    "CorrelationSeries",
    "PropagationError",
    "propagate",
    "propagate_many",
    "dense_generator",
    "dense_correlation",
    "spectral_width_sum",
]

NORM_TOL = 1e-9          # allowed |sum phi^2 - 1| over the full horizon
RK4_TOL = 1e-9           # phase-error budget that sizes the rk4 substep
C0_TOL = 1e-9            # largest |C(0) - 1| of a normalized series
CUT_TOL = 1e-13          # largest certified |C - C_cut| a causal cut may carry
WKB_FACTOR = 2.0         # cut where sum 1/b_m reaches this multiple of t_max


class PropagationError(RuntimeError):
    """Raised when a propagator backend loses unitarity."""


@dataclass(frozen=True)
class LanczosChain:
    """Ordered positive hopping amplitudes b_1..b_{d-1} of a d-site chain."""

    b: np.ndarray
    label: str = ""

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "b", b)
        if b.ndim != 1:
            raise ValueError("b must be a one-dimensional sequence")
        if b.size and not np.all(b > 0):
            raise ValueError("all hopping amplitudes must be positive")
        if not np.all(np.isfinite(b)):
            raise ValueError("hopping amplitudes must be finite")

    @property
    def d(self) -> int:
        """Liouville-space dimension (site count)."""
        return self.b.size + 1

    def scaled(self, factor: float, label: str | None = None) -> "LanczosChain":
        return LanczosChain(self.b * factor, self.label if label is None else label)

    # -- serialization ----------------------------------------------------
    def to_csv(self, path) -> None:
        """Write `n,b` rows; repr formatting round-trips bit-exactly."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "b"])
            for n, bn in enumerate(self.b, start=1):
                w.writerow([n, repr(float(bn))])

    @classmethod
    def from_csv(cls, path, label: str = "") -> "LanczosChain":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["n", "b"]:
            raise ValueError(f"{path}: expected header 'n,b'")
        b = np.array([float(r[1]) for r in rows[1:]])
        return cls(b, label)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"label": self.label, "d": self.d, "b": [float(x) for x in self.b]}, fh)


@dataclass
class CorrelationSeries:
    """C(t_n) on the uniform grid t_n = n*dt."""

    dt: float
    values: np.ndarray
    normalized: bool = True
    label: str = ""
    method: str = ""
    norm_drift_max: float = 0.0
    # set by the "moments" engine only: its scale, the even moments it
    # computed, the sites it expanded (d when uncut) and the certified bound
    # on |C - C_continued| over the grid (see `_prefix_moments`)
    lam: float = 0.0
    moments: int = 0
    sites: int = 0
    cut_bound: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.normalized and self.values.size and abs(self.values[0] - 1.0) > C0_TOL:
            raise ValueError("normalized series must start at C(0)=1")

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt

    def __len__(self) -> int:
        return self.values.size

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,C\n")
            for n, c in enumerate(self.values):
                fh.write(f"{n * self.dt:.17g},{c:.17g}\n")

    @classmethod
    def from_csv(cls, path, label: str = "") -> "CorrelationSeries":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["t", "C"]:
            raise ValueError(f"{path}: expected header 't,C'")
        t = np.array([float(r[0]) for r in rows[1:]])
        c = np.array([float(r[1]) for r in rows[1:]])
        if t.size < 2:
            raise ValueError("series needs at least two samples")
        dt = t[1] - t[0]
        if not np.allclose(np.diff(t), dt, rtol=0, atol=1e-9 * max(dt, 1.0)):
            raise ValueError("time grid is not uniform")
        return cls(float(dt), c, normalized=abs(c[0] - 1.0) <= C0_TOL,
                   label=label)


# ---------------------------------------------------------------------------
# generators and oracles
# ---------------------------------------------------------------------------

def dense_generator(chain: LanczosChain) -> np.ndarray:
    """Dense symmetric tridiagonal matrix L with zero diagonal (oracle use)."""
    d = chain.d
    L = np.zeros((d, d))
    if d > 1:
        idx = np.arange(d - 1)
        L[idx, idx + 1] = chain.b
        L[idx + 1, idx] = chain.b
    return L


def spectral_width_sum(chain: LanczosChain) -> float:
    """Sum of squared coefficients; equals Tr[L^2]/2 exactly."""
    return float(np.sum(chain.b**2))


def dense_correlation(chain: LanczosChain, times: np.ndarray) -> np.ndarray:
    """C(t) by dense diagonalization (oracle; O(d^2) memory).

    The spectrum of the zero-diagonal tridiagonal L comes in +/- pairs with
    equal site-0 weights, so C(t) = sum_k w_k cos(lambda_k t) with
    w_k = V[0,k]^2.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if chain.d == 1:
        return np.ones_like(times)
    lam, V = eigh_tridiagonal(np.zeros(chain.d), chain.b)
    w = V[0, :] ** 2
    return w @ np.cos(np.outer(lam, times))


def _spectral_bound(b: np.ndarray) -> float:
    """Gershgorin bound on the spectral radius of the generator."""
    if b.size == 0:
        return 0.0
    if b.size == 1:
        return float(b[0])
    rows = np.concatenate(([b[0]], b[:-1] + b[1:], [b[-1]]))
    return float(rows.max())


def _apply_generator(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_n = b_n x_{n-1} - b_{n+1} x_{n+1} (antisymmetric hopping action)."""
    y = np.zeros_like(x)
    y[1:] = b * x[:-1]
    y[:-1] -= b * x[1:]
    return y


def _bessel_weights(z: float) -> np.ndarray:
    """J_0..J_K at argument z, truncated where the tail is below round-off."""
    if z == 0.0:
        return np.array([1.0])
    kmax = int(z + 40 + 4 * np.sqrt(z))
    J = jv(np.arange(kmax + 1), z)
    keep = np.nonzero(np.abs(J) > 1e-17)[0]
    return J[: keep[-1] + 1] if keep.size else J[:1]


def _chebyshev_step(bs: np.ndarray, phi: np.ndarray, J: np.ndarray) -> np.ndarray:
    """One exact-exponential step exp(dt*A)phi via real Chebyshev recursion.

    bs is the generator scaled to unit spectral radius; J are the Bessel
    weights at z = lambda_max*dt.  All arithmetic stays real because the
    (-i)^k phases of the Jacobi-Anger expansion are absorbed into the
    recursion u_{k+1} = 2*A_s u_k + u_{k-1}.
    """
    u_prev = phi
    if J.size == 1:
        return J[0] * phi
    u = _apply_generator(bs, phi)
    acc = J[0] * u_prev + 2.0 * J[1] * u
    for k in range(2, J.size):
        u_prev, u = u, 2.0 * _apply_generator(bs, u) + u_prev
        acc += 2.0 * J[k] * u
    return acc


# Miller's backward recurrence starts every column at this tiny value: the
# Bessel values grow downward by at most top!*(2/z)^top, which stays below
# the float range for any z > 1e-15.
_MILLER_SEED = 1e-300


def _even_moments(b: np.ndarray, lam: float,
                  count: int) -> tuple[np.ndarray, float, float]:
    """mu_2k = <e0|T_2k(L/lam)|e0> for k = 0..count, their drift bound, and
    max_k |v_k[d-1]|, the largest Chebyshev amplitude on the last site.

    Doubling: T_2k = 2 T_k^2 - 1, so mu_2k = 2 v_k.v_k - 1 with
    v_k = T_k(H) e0 from v_{k+1} = 2 H v_k - v_{k-1}, H = L/lam.  v_k lives
    on sites 0..k, so step k touches min(k+2, d) sites.  With the spectrum
    of H inside [-1, 1], |mu_2k| <= 1 exactly; the drift is how far the
    computed moments exceed that bound.
    """
    bs2 = 2.0 * b / lam
    d = b.size + 1
    mu = np.empty(count + 1)
    mu[0] = 1.0
    # zeroed once: each step writes only the light-cone slice, so the sites
    # beyond it must already hold the zeros of v_k
    prev, cur, tmp = np.zeros(d), np.zeros(d), np.zeros(d - 1)
    cur[0] = 1.0
    drift = 0.0
    edge = 0.0
    for k in range(count):
        n = min(k + 2, d)
        if k == 0:
            prev[1] = 0.5 * bs2[0]      # v_1 = H e0
        else:                           # prev <- v_{k+1} = 2 H v_k - v_{k-1}
            h, t = bs2[:n - 1], tmp[:n - 1]
            np.multiply(h, cur[1:n], out=t)
            np.subtract(t, prev[:n - 1], out=prev[:n - 1])
            prev[n - 1] = -prev[n - 1]
            np.multiply(h, cur[:n - 1], out=t)
            prev[1:n] += t
        prev, cur = cur, prev
        mu[k + 1] = 2.0 * float(cur[:n] @ cur[:n]) - 1.0
        if n == d:                      # v_k[d-1] = 0 before the cone reaches it
            edge = max(edge, abs(cur[d - 1]))
        if mu[k + 1] - 1.0 > drift:
            drift = mu[k + 1] - 1.0
            if drift > NORM_TOL:
                raise PropagationError(
                    f"Chebyshev moment mu_{2 * k + 2} = {mu[k + 1]:.3g} exceeds 1 "
                    f"by more than {NORM_TOL:.0e}: the scale {lam:.6g} does not "
                    f"bound the spectrum; use method='chebyshev'")
    return mu, drift, edge


def _causal_cut(b: np.ndarray, horizon: float, factor: float) -> int:
    """Smallest site count n_c with sum_{m=1}^{n_c-1} 1/b_m >= factor*horizon,
    or d when no n_c < d has it.

    sum 1/(2 b_m) is the WKB travel time of the front from site 0 to the
    cut; at factor 2 it is at least the horizon, twice the t/2 that the
    doubling identity needs the front for.
    """
    reach = np.cumsum(1.0 / b)
    return min(int(np.searchsorted(reach, factor * horizon)) + 2, b.size + 1)


def _bessel_tail(order: int, x: float) -> float:
    """Bound on sum_{k > order} |J_k(y)| for every 0 <= y <= x < order + 1.

    Kapteyn: |J_k(k sech a)| <= exp(-k (a - tanh a)), a bound that grows
    with the argument.  The rate a - tanh a grows with k, so every term is
    at most exp(-k r) with r the rate at k = order + 1.
    """
    if x == 0.0:
        return 0.0
    k = order + 1
    a = np.arccosh(k / x)
    r = a - np.tanh(a)
    return float(np.exp(-k * r) / -np.expm1(-r))


# 2^(j/64 - 1), j = 0..64: the mantissas in [1/2, 1] of the grid 2^(j/64)
# that spectral scales are rounded up to
_LAM_GRID = np.exp2(np.arange(65) / 64 - 1.0)


def _quantized(lam: float) -> float:
    """The smallest 2^(j/64) >= lam > 0, for integer j.  Built from lam's
    binary mantissa and exponent, so lam -> 2^p lam maps it exactly onto
    2^p times it, and powers of two map to themselves."""
    mantissa, exponent = np.frexp(lam)
    return float(np.ldexp(_LAM_GRID[np.searchsorted(_LAM_GRID, mantissa)],
                          exponent))


class _Expansion(NamedTuple):
    lam: float          # the expanded prefix's Gershgorin bound, quantized
    z: np.ndarray       # Bessel arguments lam * t_n
    mu: np.ndarray      # even moments mu_0, mu_2, ...
    drift: float        # max(0, max mu_2k - 1)
    bound: float        # certified bound on |C - C_continued| over the grid


def _continued_coupling(b: np.ndarray) -> float:
    """b_d, the coupling that continues the chain b_1..b_{d-1} past its end:
    b_{d-1} + max(b_{d-1} - b_{d-2}, 0), or b_{d-1} when d = 2.  On an
    affine tail it is the tail's own next coefficient."""
    step = b[-1] - b[-2] if b.size > 1 else 0.0
    return float(b[-1] + max(step, 0.0))


def _prefix_moments(b: np.ndarray, n_c: int, dt: float,
                    n_steps: int) -> _Expansion:
    """The expansion of C(t_n), t_n = n*dt, on the first n_c sites.

    The bound compares it with the continued chain: b_1..b_{d-1}, then
    `_continued_coupling(b)` as b_d, then any couplings at all.  The end of
    the prefix is a cut, at n_c = d too.  With T = n_steps*dt, the doubling
    identity C(t) = 2|cos(Lt/2)e0|^2 - 1 and Duhamel's formula give
    |C - C_continued| <= 2 b_{n_c} T max_{s <= T/2} |psi_{n_c-1}(s)| for
    the prefix wavefunction psi; Jacobi-Anger with H_c = L_c/lam and
    Cauchy-Schwarz (sum_k J_k^2 <= 1) bound that amplitude by
    2 (sqrt(K+1) max_{k<=K} |v_k[n_c-1]| + sum_{k>K} |J_k|) for any K.
    K runs past the moment count to the Miller start order of lam*T/2,
    where the Bessel tail is negligible.  lam is the prefix's Gershgorin
    bound rounded up to the grid 2^(j/64); any bound on the spectrum works.
    """
    b_c = b[:n_c - 1]
    lam = _quantized(_spectral_bound(b_c) * (1.0 + 1e-7))
    z = lam * dt * np.arange(n_steps + 1)
    order = max(int(_miller_order(z[-1])) // 2, int(_miller_order(z[-1] / 2)))
    mu, drift, edge = _even_moments(b_c, lam, order)
    b_cut = b[n_c - 1] if n_c <= b.size else _continued_coupling(b)
    bound = 4.0 * b_cut * (n_steps * dt) * (
        np.sqrt(order + 1) * edge + _bessel_tail(order, z[-1] / 2))
    return _Expansion(lam, z, mu, drift, float(bound))


def _miller_order(z: np.ndarray) -> np.ndarray:
    """Even Bessel order where the backward recurrence starts for argument z."""
    top = np.ceil(z + 30.0 + 12.0 * np.cbrt(z)).astype(np.int64)
    return top + top % 2


def _cosine_series(mus: Sequence[np.ndarray], z: np.ndarray) -> np.ndarray:
    """C_i(z_n) = J_0(z_n) + 2 sum_k (-1)^k mu_i,2k J_2k(z_n) for nondecreasing
    z, one row per moment sequence mu_i.

    Miller's backward recurrence J_{m-1} = (2m/z) J_m - J_{m+1}, vectorised
    over n, builds each column from its own start order down to J_0 and
    normalises it by J_0 + 2 sum_k J_2k = 1.  The start order grows with z,
    so the columns active at order m are a suffix of n.  z_n = 0 gives 1.
    The recurrence is shared by every row; each row accumulates its terms
    by elementwise products, so a row's bits do not depend on the others.
    """
    out = np.ones((len(mus), z.size))
    first = int(np.searchsorted(z, 0.0, side="right"))
    z = z[first:]
    if z.size == 0:
        return out
    top = _miller_order(z)
    # coefficient of J_2k per row, as a (rows, 1) column for each k
    coef = np.array([mu[: top[-1] // 2 + 1] for mu in mus]).T[:, :, None]
    coef *= 2.0
    coef[1::2] *= -1.0
    inv2z = 2.0 / z
    # first column whose recurrence is running at order m
    starts = np.searchsorted(top, np.arange(top[-1] + 2)).tolist()
    cur, nxt, tmp = np.zeros(z.size), np.zeros(z.size), np.empty(z.size)
    norm = np.zeros(z.size)
    acc = out[:, first:]
    acc[...] = 0.0
    term = np.empty_like(acc)
    for m in range(int(top[-1]), 0, -1):
        s = starts[m]
        c, x = cur[s:], nxt[s:]
        if m % 2 == 0:
            cur[s:starts[m + 1]] = _MILLER_SEED   # columns starting at m
            np.multiply(coef[m // 2], c, out=term[:, s:])
            acc[:, s:] += term[:, s:]
            norm[s:] += c
        np.multiply(c, inv2z[s:], out=tmp[s:])
        tmp[s:] *= m
        np.subtract(tmp[s:], x, out=x)            # x <- J_{m-1}
        cur, nxt = nxt, cur
    acc += cur
    acc /= cur + 2.0 * norm
    return out


def _rk4_substep_count(dt: float, t_max: float, lam_max: float, tol: float) -> int:
    """Substeps per output step so the accumulated phase error stays below tol.

    Classical RK4 on e^{i*lam*t} has per-step phase error ~ (lam*h)^5/120;
    the budget over the horizon gives h = (120*tol/(T*lam^5))^(1/4), capped
    by the stability bound h <= 0.5/b_max ~ 1/lam_max.
    """
    if lam_max == 0.0:
        return 1
    horizon = max(t_max, dt)
    h_acc = (120.0 * tol / (horizon * lam_max**5)) ** 0.25
    h = min(h_acc, 1.0 / lam_max, dt)
    return max(1, int(np.ceil(dt / h)))


def _step_count(dt: float, t_max: float) -> int:
    """The last index of the output grid t_n = n*dt: round(t_max/dt)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    return int(round(t_max / dt))


def propagate_many(chains: Iterable[LanczosChain], dt: float = 0.01,
                   t_max: float = 10.0) -> list[CorrelationSeries]:
    """`propagate(chain, dt, t_max)` for every chain, with the "moments"
    engine: each chain's own causal prefix and even moments.

    Chains whose scales lam (quantized) are equal share one Bessel sum, one
    Miller pass over their stacked moments.  Its rows do not depend on
    each other, so every series equals the one `propagate` gives for its
    chain alone, to the bit, whatever the chains and their order.  Only a
    chain's moments are kept, so `chains` may be a generator.
    """
    n_steps = _step_count(dt, t_max)
    out: list[CorrelationSeries | None] = []
    groups: dict[float, list[tuple[int, str, int, _Expansion]]] = {}
    for chain in chains:
        if chain.d == 1:
            out.append(CorrelationSeries(dt, np.ones(n_steps + 1),
                                         label=chain.label, method="moments"))
            continue
        n_c = _causal_cut(chain.b, n_steps * dt, WKB_FACTOR)
        ex = _prefix_moments(chain.b, n_c, dt, n_steps)
        if n_c < chain.d and not ex.bound <= CUT_TOL:
            # the cut is not certified: expand the whole chain
            n_c = chain.d
            ex = _prefix_moments(chain.b, n_c, dt, n_steps)
        groups.setdefault(ex.lam, []).append((len(out), chain.label, n_c, ex))
        out.append(None)
    for members in groups.values():
        rows = _cosine_series([ex.mu for *_, ex in members], members[0][3].z)
        for (i, label, n_c, ex), values in zip(members, rows):
            out[i] = CorrelationSeries(
                dt, values, label=label, method="moments",
                norm_drift_max=ex.drift, lam=ex.lam,
                moments=ex.mu.size, sites=n_c, cut_bound=ex.bound)
    return out


def propagate(
    chain: LanczosChain,
    dt: float = 0.01,
    t_max: float = 10.0,
    method: str = "moments",
) -> CorrelationSeries:
    """C(t_n) = <e0|cos(L t_n)|e0>, the site-0 amplitude from the delta start.

    Parameters
    ----------
    chain : LanczosChain
    dt : float
        Output time step.
    t_max : float
        Horizon; the grid is t_n = n*dt, n = 0..round(t_max/dt).
    method : {"moments", "chebyshev", "rk4"}
        "moments" (default) never holds the wavefunction: it computes the
        even Chebyshev moments mu_2k of L/lambda at site 0 (about
        lambda*t_max/2 light-cone truncated matvecs) and sums
        C(t_n) = cos(L t_n)_00 as a Bessel series in them (the
        kernel-polynomial route).  It expands only the causal prefix: the
        first n_c sites, where sum_{m<n_c} 1/b_m first reaches 2*t_max (the
        front's WKB travel time to the cut is t_max, twice the t/2 the
        doubling identity needs), with the prefix's own Gershgorin bound
        rounded up to the grid 2^(j/64) as lambda.  A Duhamel bound
        certifies the cut; above CUT_TOL the whole chain is expanded
        instead.  The series records lambda, the moment count, the sites
        expanded and the bound (`lam`, `moments`, `sites`, `cut_bound`;
        `sites` = d when uncut).  `cut_bound` always bounds |C - C'| on
        the grid, for C' of any longer chain that goes on past site d-1
        with b_d = b_{d-1} + max(b_{d-1} - b_{d-2}, 0): for an uncut chain
        it is the finite-size bound, its end treated as a cut.
        "chebyshev" and "rk4" are the stepping references; they evolve the
        wavefunction.  "chebyshev" is a scaled polynomial expansion of the
        matrix exponential, exact to round-off per step; "rk4" is a
        fixed-substep classical integrator whose substep keeps the phase
        error below RK4_TOL.

    Raises
    ------
    PropagationError
        If the norm drifts beyond NORM_TOL (for "moments": if some |mu_2k|
        exceeds 1 by more than NORM_TOL, which the spectral bound forbids);
        the message names the remedy.
    """
    if method not in ("chebyshev", "rk4", "moments"):
        raise ValueError(f"unknown propagator method {method!r}")
    if method == "moments":
        return propagate_many([chain], dt, t_max)[0]

    d = chain.d
    n_steps = _step_count(dt, t_max)
    if d == 1:
        return CorrelationSeries(dt, np.ones(n_steps + 1), label=chain.label,
                                 method=method)

    values = np.empty(n_steps + 1)
    values[0] = 1.0
    phi = np.zeros(d)
    phi[0] = 1.0
    lam_max = _spectral_bound(chain.b) * (1.0 + 1e-7)
    drift_max = 0.0

    if method == "chebyshev":
        bs = chain.b / lam_max
        J = _bessel_weights(lam_max * dt)
        def step(x):
            return _chebyshev_step(bs, x, J)
    else:
        n_sub = _rk4_substep_count(dt, t_max, lam_max, RK4_TOL)
        h = dt / n_sub
        b = chain.b
        def step(x):
            for _ in range(n_sub):
                k1 = _apply_generator(b, x)
                k2 = _apply_generator(b, x + 0.5 * h * k1)
                k3 = _apply_generator(b, x + 0.5 * h * k2)
                k4 = _apply_generator(b, x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            return x

    for n in range(1, n_steps + 1):
        phi = step(phi)
        values[n] = phi[0]
        drift = abs(float(phi @ phi) - 1.0)
        drift_max = max(drift_max, drift)
        if drift > NORM_TOL:
            if method == "rk4":
                hint = (f"shrink dt below {0.5 / chain.b.max():.3g} "
                        f"or use method='chebyshev'")
            else:
                hint = f"shrink dt below {dt / 2:.3g}"
            raise PropagationError(
                f"norm drift {drift:.2e} beyond {NORM_TOL:.0e} at t={n * dt:.4g}; {hint}")

    return CorrelationSeries(dt, values, label=chain.label, method=method,
                             norm_drift_max=drift_max)
