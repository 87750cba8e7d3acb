"""Finite Mori chain: hopping coefficients and time evolution.

The chain is the one-dimensional tight-binding model whose hopping
amplitudes are the Lanczos coefficients b_1..b_{d-1}.  The site-0
amplitude of the evolving wavefunction is the autocorrelation function
C(t).
"""

from __future__ import annotations

import csv
import itertools
import math
import mmap
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "LanczosChain",
    "CorrelationSeries",
    "PropagationError",
    "propagate",
    "propagate_many",
    "read_csv",
    "write_csv",
    "finite",
    "dense_generator",
    "dense_correlation",
    "spectral_width_sum",
]

NORM_TOL = 1e-9          # allowed |sum phi^2 - 1| over the full horizon
RK4_TOL = 1e-9           # phase-error budget that sizes the rk4 substep
CUT_TOL = 1e-13          # largest certified |C - C_cut| a causal cut may carry
WKB_FACTORS = (1.4, 2.0) # cut rungs: where sum 1/b_m reaches each * t_max
GROUP_ROWS = 32          # most chains one moment recursion expands together
_CHUNK_ROWS = 32         # J_2k rows the Bessel sum stages per contraction


class PropagationError(RuntimeError):
    """Raised when a propagator backend loses unitarity."""


def read_csv(path, header: Sequence[str],
             cells: Sequence[Callable]) -> Iterator[list]:
    """The rows of a CSV file below `header`, read one at a time, each cell
    converted by its column's function in `cells`.  ValueError names the
    file, and the line of a row with a wrong cell count or a bad cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)!r}")
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, expected {len(header)}")
                typed = [read(cell) for read, cell in zip(cells, row)]
            except ValueError as err:
                raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
            yield typed


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """`header` and `rows` in csv's default dialect: CRLF line ends, a float
    by its shortest round-trip repr, None as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {cell!r}")
    return value


@dataclass(frozen=True)
class LanczosChain:
    """Ordered positive hopping amplitudes b_1..b_{d-1} of a d-site chain."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "b", b)
        if b.ndim != 1:
            raise ValueError("b must be a one-dimensional sequence")
        if not np.all(b > 0):
            raise ValueError("all hopping amplitudes must be positive")
        if not np.all(np.isfinite(b)):
            raise ValueError("hopping amplitudes must be finite")

    @property
    def d(self) -> int:
        """Liouville-space dimension (site count)."""
        return self.b.size + 1

    # -- serialization ----------------------------------------------------
    def to_csv(self, path) -> None:
        write_csv(path, ["n", "b"], enumerate(self.b.tolist(), start=1))

    @classmethod
    def from_csv(cls, path) -> "LanczosChain":
        """A chain written by `to_csv`: row i must hold n = i."""
        rows = itertools.count(1)
        def index(cell: str) -> None:
            if int(cell) != (i := next(rows)):
                raise ValueError(f"n = {cell} in row {i}")
        return cls([b for _, b in read_csv(path, ["n", "b"], [index, finite])])


@dataclass
class CorrelationSeries:
    """C(t_n) on the uniform grid t_n = n*dt."""

    dt: float
    values: np.ndarray
    norm_drift_max: float = 0.0
    # set by the "moments" engine only: its scale, the even moments it
    # computed, the sites it expanded (d when uncut) and the certified bound
    # on |C - C_continued| over the grid (see `propagate_many`)
    lam: float = 0.0
    moments: int = 0
    sites: int = 0
    cut_bound: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt

    def __len__(self) -> int:
        return self.values.size

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "C"], zip(self.t.tolist(), self.values.tolist()))

    @classmethod
    def from_csv(cls, path) -> "CorrelationSeries":
        """A series written by `to_csv`: its grid must be t_n = n*dt."""
        rows = list(read_csv(path, ["t", "C"], [finite, finite]))
        if len(rows) < 2:
            raise ValueError(f"{path}: series needs at least two samples")
        t, c = np.array(rows).T
        dt = t[1] - t[0]
        if not dt > 0:
            raise ValueError(f"{path}: time column does not increase")
        tol = 1e-9 * max(dt, 1.0)
        if abs(t[0]) > tol:
            raise ValueError(f"{path}: series starts at t = {t[0]:g}, not 0")
        if not np.allclose(np.diff(t), dt, rtol=0, atol=tol):
            raise ValueError(f"{path}: time grid is not uniform")
        return cls(float(dt), c)


# ---------------------------------------------------------------------------
# generators and oracles
# ---------------------------------------------------------------------------

def dense_generator(chain: LanczosChain) -> np.ndarray:
    """Dense symmetric tridiagonal matrix L with zero diagonal (oracle use)."""
    return np.diag(chain.b, 1) + np.diag(chain.b, -1)


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
    lam, V = np.linalg.eigh(dense_generator(chain))
    w = V[0, :] ** 2
    return w @ np.cos(np.outer(lam, times))


def _spectral_bound(b: np.ndarray) -> float:
    """Gershgorin bound on the spectral radius of the generator."""
    return float((np.append(b, 0.0) + np.insert(b, 0, 0.0)).max())


def _apply_generator(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_n = b_n x_{n-1} - b_{n+1} x_{n+1} (antisymmetric hopping action)."""
    y = np.zeros_like(x)
    y[1:] = b * x[:-1]
    y[:-1] -= b * x[1:]
    return y


def _bessel_weights(z: float) -> np.ndarray:
    """J_0..J_K at argument z, truncated where the tail is below round-off.

    Miller's backward recurrence J_{m-1} = (2m/z) J_m - J_{m+1} from
    `_miller_order(z)`, normalised by J_0 + 2 sum_k J_2k = 1, as in
    `_cosine_series`.
    """
    if z == 0.0:
        return np.array([1.0])
    top = int(_miller_order(z))
    J = np.zeros(top + 2)
    J[top] = _MILLER_SEED
    for m in range(top, 0, -1):
        J[m - 1] = 2 * m / z * J[m] - J[m + 1]
    J = J[:-1] / (J[0] + 2 * J[2::2].sum())
    return J[: np.nonzero(np.abs(J) > 1e-17)[0][-1] + 1]


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


def _even_moments(b: np.ndarray, lam: float, count: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """For the rows b_i of b (rows, n-1): mu (rows, count+1), whose row i
    holds mu_2k = <e0|T_2k(L_i/lam)|e0> for k = 0..count, and edge (rows),
    max_k |v_k[n-1]| of each, the largest Chebyshev amplitude on the last
    site.

    Doubling: T_2k = 2 T_k^2 - 1, so mu_2k = 2 v_k.v_k - 1 with
    v_k = T_k(H) e0 from v_{k+1} = 2 H v_k - v_{k-1}, H = L/lam.  v_k lives
    on the sites 0..k of parity k, since L has a zero diagonal, so the even
    and the odd sites are held apart: step k writes v_{k+1} over v_{k-1} in
    the array of parity k+1, on its light cone, from v_k in the other.
    Each site takes (h_i v_{i+1} - v_{k-1,i}) + h_{i-1} v_{i-1}, h = 2b/lam,
    and each norm is one reduction over its own row, so a row's moments do
    not depend on the other rows, even one that overflows.  With the
    spectrum of H inside [-1, 1], |mu_2k| <= 1 exactly; `propagate_many`
    reads how far the computed moments exceed that bound.
    """
    rows = b.shape[0]
    n = b.shape[1] + 1
    ne, no = (n + 1) // 2, n // 2           # even and odd site counts
    h = 2.0 * b / lam
    # each array is padded with a zero where a site has no right neighbour
    he, ho = np.zeros((rows, ne)), np.zeros((rows, no))
    he[:, :no] = h[:, 0::2]                 # h_2j: site 2j to site 2j+1
    ho[:, :ne - 1] = h[:, 1::2]             # h_2j+1: site 2j+1 to site 2j+2
    even, odd = np.zeros((rows, no + 1)), np.zeros((rows, ne))
    tmp = np.empty((rows, ne))
    even[:, 0] = 1.0                        # v_0 = e0
    odd[:, 0] = 0.5 * he[:, 0]              # v_-1 := v_1, as T_-1 = T_1
    norms = np.empty((count + 1, rows))     # v_k.v_k, one row per k
    norms[0] = 1.0
    edge = np.zeros(rows)

    def step_views(parity, c):
        """The operands of a step that writes the first c sites of parity."""
        if parity:
            return (ho[:, :c], even[:, 1:c + 1], odd[:, :c],
                    he[:, :c], even[:, :c], odd[:, :c], tmp[:, :c], tmp[:, :c])
        return (he[:, :c], odd[:, :c], even[:, :c],
                ho[:, :c - 1], odd[:, :c - 1], even[:, 1:c], tmp[:, :c],
                tmp[:, :c - 1])

    full = (step_views(0, ne), step_views(1, no))   # once the cone is full
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(count):
            parity = (k + 1) % 2            # v_{k+1} = 2 H v_k - v_{k-1}
            rc, rs, x, lc, ls, lx, tr, tl = (
                step_views(parity, (k + 1) // 2 + 1) if k + 1 < n - 1
                else full[parity])
            np.multiply(rc, rs, out=tr)
            np.subtract(tr, x, out=x)
            np.multiply(lc, ls, out=tl)
            np.add(lx, tl, out=lx)
            np.vecdot(x, x, out=norms[k + 1])
            if k + 1 >= n - 1 and parity == (n - 1) % 2:
                # v_k[n-1] = 0 before the cone reaches it, and off its parity
                np.maximum(edge, np.abs(x[:, -1]), out=edge)
        return 2.0 * norms.T - 1.0, edge


def _causal_cut(b: np.ndarray, horizon: float, factor: float) -> int:
    """Smallest site count n_c with sum_{m=1}^{n_c-1} 1/b_m >= factor*horizon,
    or d when no n_c < d has it.

    sum 1/(2 b_m) is the WKB travel time of the front from site 0 to the
    cut; at factor 2 it is at least the horizon, twice the t/2 that the
    doubling identity needs the front for.
    """
    reach = np.cumsum(1.0 / b)
    return min(int(np.searchsorted(reach, factor * horizon)) + 2, b.size + 1)


def _grid_sites(n: int) -> int:
    """The smallest ceil(2^(j/8)) >= n >= 2 over integers j, the site
    counts a cut is rounded up to: 8 per octave."""
    return math.ceil(2.0 ** ((math.floor(8 * math.log2(n - 1)) + 1) / 8))


def _cut_ladder(b: np.ndarray, horizon: float) -> list[int]:
    """The site counts a chain's expansion tries, in increasing order: the
    cut of each factor in WKB_FACTORS rounded up to the site grid, then d.

    Chains of one design mostly reach one grid count, and so share a
    recursion.  Where b_n grows linearly, the reach sum 1/b_m grows like the
    log of the sites, so the tight rung saves most of them.
    """
    d = b.size + 1
    return sorted({d, *(min(_grid_sites(_causal_cut(b, horizon, f)), d)
                        for f in WKB_FACTORS)})


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


# 2^(j/16 - 1), j = 0..16: the mantissas in [1/2, 1] of the grid 2^(j/16)
# that spectral scales are rounded up to.  A step costs at most 4.4% more
# moments, and the chains of one design then share a few scales
_LAM_GRID = np.exp2(np.arange(17) / 16 - 1.0)


def _quantized(lam: float) -> float:
    """The smallest 2^(j/16) >= lam > 0, for integer j.  Built from lam's
    binary mantissa and exponent, so lam -> 2^p lam maps it exactly onto
    2^p times it, and powers of two map to themselves."""
    mantissa, exponent = np.frexp(lam)
    return float(np.ldexp(_LAM_GRID[np.searchsorted(_LAM_GRID, mantissa)],
                          exponent))


def _continued_coupling(b: np.ndarray) -> float:
    """b_d, the coupling that continues the chain b_1..b_{d-1} past its end:
    b_{d-1} + max(b_{d-1} - b_{d-2}, 0), or b_{d-1} when d = 2.  On an
    affine tail it is the tail's own next coefficient."""
    step = b[-1] - b[-2] if b.size > 1 else 0.0
    return float(b[-1] + max(step, 0.0))


def _prefix_scale(b: np.ndarray, n_c: int) -> float:
    """lam of the prefix b_1..b_{n_c-1}: its Gershgorin bound, rounded up
    to the grid 2^(j/16)."""
    return _quantized(_spectral_bound(b[:n_c - 1]) * (1.0 + 1e-7))


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
    The recurrence is shared by every row.  It stages the terms
    (-1)^k 2 J_2k of _CHUNK_ROWS consecutive k, in row k - k_lo, and each
    row then adds mu_i[k_lo:k_hi+1] @ staged: one BLAS matrix-vector
    product, of the same shape whatever the rows, so a row's bits do not
    depend on the others.  The slice is copied to be contiguous, since a
    strided one takes another summation order.
    """
    out = np.ones((len(mus), z.size))
    first = int(np.searchsorted(z, 0.0, side="right"))
    z = z[first:]
    if z.size == 0:
        return out
    top = _miller_order(z)
    inv2z = 2.0 / z
    # first column whose recurrence is running at order m
    starts = np.searchsorted(top, np.arange(top[-1] + 2)).tolist()
    cur, nxt, tmp = np.zeros(z.size), np.zeros(z.size), np.empty(z.size)
    norm = np.zeros(z.size)
    acc = out[:, first:]
    acc[...] = 0.0
    # zero where J_2k is not running.  The zeroed pages come straight from
    # the OS: a malloc'd buffer of this size, once freed, raises glibc's
    # mmap threshold, and a desk run's peak RSS with it
    staged = np.frombuffer(mmap.mmap(-1, _CHUNK_ROWS * z.nbytes)).reshape(
        _CHUNK_ROWS, z.size)
    k_hi = int(top[-1]) // 2
    for m in range(int(top[-1]), 0, -1):
        s = starts[m]
        c, x = cur[s:], nxt[s:]
        if m % 2 == 0:
            cur[s:starts[m + 1]] = _MILLER_SEED   # columns starting at m
            k, k_lo = m // 2, max(1, k_hi - _CHUNK_ROWS + 1)
            np.multiply(c, -2.0 if k % 2 else 2.0, out=staged[k - k_lo, s:])
            norm[s:] += c
            if k == k_lo:                          # k_lo..k_hi are all staged
                terms = staged[:k_hi - k_lo + 1, s:]
                for mu, row in zip(mus, acc):
                    row[s:] += np.ascontiguousarray(mu[k_lo:k_hi + 1]) @ terms
                terms[...] = 0.0
                k_hi = k_lo - 1
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
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not 0 <= t_max < math.inf:
        raise ValueError("t_max must be nonnegative and finite")
    return int(round(t_max / dt))


def propagate_many(chains: Iterable[LanczosChain], dt: float = 0.01,
                   t_max: float = 10.0
                   ) -> list[CorrelationSeries | PropagationError]:
    """`propagate(chain, dt, t_max)` for every chain, with the "moments"
    engine: each chain's own causal prefix and even moments.

    Each chain is held at the first rung of its `_cut_ladder`.  Chains held
    at equal cuts n_c and equal scales lam (quantized) share one moment
    recursion, up to GROUP_ROWS of them at a time, and one loop over the
    arrays `_even_moments` returns then decides each chain's fate.  The
    guard gives a chain whose moments exceed 1 by more than NORM_TOL, or
    are not finite, a PropagationError in its slot instead of a series.
    Else the certificate refuses a cut whose bound is above CUT_TOL, and
    the chain is held again at its next rung; the last rung, d, is taken
    whatever its bound.  The largest group held is expanded first; once
    every chain is held, the groups of the lowest rung go first, so that
    the chains they refuse meet in one group at their next rung.  Chains
    of one lam share one Bessel sum: one Miller pass, whose J_2k each
    chain's own moments meet in fixed-shape chunks, reading the moments
    in place.  Neither pass mixes its rows, so every
    series equals the one `propagate` gives for its chain alone, to the
    bit, whatever the chains and their order.  At most GROUP_ROWS chains
    are held at once, and after their recursion only their moments are
    kept, so `chains` may be a long generator.
    """
    n_steps = _step_count(dt, t_max)
    horizon = n_steps * dt
    out: list[CorrelationSeries | PropagationError | None] = []
    # (lam, n_c) -> (slot, chain, ladder, rung index) of each held chain
    pending: dict[tuple[float, int],
                  list[tuple[int, LanczosChain, list[int], int]]] = {}
    # lam -> (slot, n_c, moments, drift, cut bound) of each certified chain
    groups: dict[float, list[tuple[int, int, np.ndarray, float, float]]] = {}

    def hold(slot: int, chain: LanczosChain, rungs: list[int],
             rung: int = 0) -> None:
        n_c = rungs[rung]
        key = (_prefix_scale(chain.b, n_c), n_c)
        pending.setdefault(key, []).append((slot, chain, rungs, rung))

    def expand(key: tuple[float, int]) -> None:
        lam, n_c = key
        members = pending.pop(key)
        # the moment count K runs to the Miller start order of lam*T/2, where
        # the Bessel tail is negligible
        z_end = lam * dt * n_steps
        order = max(int(_miller_order(z_end)) // 2,
                    int(_miller_order(z_end / 2)))
        tail = _bessel_tail(order, z_end / 2)
        prefixes = np.array([c.b[:n_c - 1] for _, c, _, _ in members])
        mu, edge = _even_moments(prefixes, lam, order)
        for (slot, chain, rungs, rung), mu_i, edge_i in zip(members, mu,
                                                            edge):
            excess = mu_i - 1.0
            drift = float(excess.max())
            if not drift <= NORM_TOL:            # a NaN is an excess too
                i = int(np.argmax(~(excess <= NORM_TOL)))
                out[slot] = PropagationError(
                    f"Chebyshev moment mu_{2 * i} = {mu_i[i]:.3g} exceeds 1 "
                    f"by more than {NORM_TOL:.0e}: the scale {lam:.6g} does "
                    f"not bound the spectrum; use method='chebyshev'")
                continue
            # The bound compares the prefix with the continued chain:
            # b_1..b_{d-1}, then `_continued_coupling(b)` as b_d, then any
            # couplings at all; the end of the prefix is a cut, at n_c = d
            # too.  With T the horizon, the doubling identity
            # C(t) = 2|cos(Lt/2)e0|^2 - 1 and Duhamel's formula give
            # |C - C_continued| <= 2 b_{n_c} T max_{s <= T/2} |psi_{n_c-1}(s)|
            # for the prefix wavefunction psi.  Jacobi-Anger with
            # H_c = L_c/lam and Cauchy-Schwarz (sum_k J_k^2 <= 1) bound that
            # amplitude by 2 (sqrt(K+1) max_{k<=K} |v_k[n_c-1]|
            # + sum_{k>K} |J_k|) for any K, and any bound on the spectrum
            # works as lam
            b = chain.b
            b_cut = b[n_c - 1] if n_c <= b.size else _continued_coupling(b)
            bound = float(4.0 * b_cut * horizon
                          * (np.sqrt(order + 1) * edge_i + tail))
            if rung + 1 < len(rungs) and not bound <= CUT_TOL:
                hold(slot, chain, rungs, rung + 1)   # the cut is not certified
            else:
                groups.setdefault(lam, []).append(
                    (slot, n_c, mu_i, drift, bound))

    for chain in chains:
        if chain.d == 1:
            out.append(CorrelationSeries(dt, np.ones(n_steps + 1)))
            continue
        hold(len(out), chain, _cut_ladder(chain.b, horizon))
        out.append(None)
        while sum(map(len, pending.values())) >= GROUP_ROWS:
            expand(max(pending, key=lambda k: len(pending[k])))
    # the last chains: every group of the lowest rung held goes first, so
    # that the chains it refuses meet the others refused there, in one
    # group of their next rung
    while pending:
        expand(max(pending, key=lambda k: (-min(m[3] for m in pending[k]),
                                           len(pending[k]))))
    for lam, members in groups.items():
        rows = _cosine_series([mu for _, _, mu, _, _ in members],
                              lam * dt * np.arange(n_steps + 1))
        for (slot, n_c, mu, drift, bound), values in zip(members, rows):
            out[slot] = CorrelationSeries(
                dt, values, norm_drift_max=drift, lam=lam, moments=mu.size,
                sites=n_c, cut_bound=bound)
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
        kernel-polynomial route).  It expands only a causal prefix: the
        first n_c sites, where sum_{m<n_c} 1/b_m first reaches 1.4*t_max
        (the front's WKB travel time to the cut is 0.7*t_max, against the
        t/2 the doubling identity needs), rounded up to the site grid
        ceil(2^(j/8)), with the prefix's own Gershgorin bound rounded up to
        the grid 2^(j/16) as lambda.  A Duhamel bound certifies the cut;
        above CUT_TOL the prefix of factor 2 (travel time t_max) is tried,
        and above it there too, the whole chain (see `propagate_many`).
        The series records lambda, the moment count, the sites
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
        series = propagate_many([chain], dt, t_max)[0]
        if isinstance(series, PropagationError):
            raise series
        return series

    n_steps = _step_count(dt, t_max)
    values = np.empty(n_steps + 1)
    values[0] = 1.0
    phi = np.zeros(chain.d)
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

    return CorrelationSeries(dt, values, norm_drift_max=drift_max)
