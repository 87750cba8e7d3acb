import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import jv

from morilab import chain as chain_module
from morilab.chain import (CUT_TOL, GROUP_ROWS, NORM_TOL,
                           WKB_FACTORS, CorrelationSeries, LanczosChain,
                           PropagationError, _CHUNK_ROWS, _bessel_tail,
                           _bessel_weights, _causal_cut, _cut_ladder,
                           _continued_coupling, _cosine_series, _even_moments,
                           _grid_sites, _miller_order, _prefix_scale,
                           _quantized, _spectral_bound, dense_correlation, dense_generator, propagate,
                           propagate_many, spectral_width_sum)
from morilab.design import exponential_chain, gaussian_chain, oscillating_pair
from morilab.experiment import ScenarioConfig, build_families, trial_seed
from morilab.perturb import apply_draw, draw_noise


# round trips hold bit for bit; the file is rewritten for every example
ROUNDTRIP = settings(max_examples=100, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def antisymmetric_generator(b):
    """Independent oracle: the real antisymmetric matrix driving phi."""
    d = len(b) + 1
    A = np.zeros((d, d))
    idx = np.arange(d - 1)
    A[idx + 1, idx] = b
    A[idx, idx + 1] = -np.asarray(b)
    return A


class TestLanczosChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            LanczosChain(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            LanczosChain(np.array([0.0]))
        with pytest.raises(ValueError):
            LanczosChain(np.array([[1.0]]))
        with pytest.raises(ValueError, match="finite"):
            LanczosChain(np.array([1.0, np.inf]))

    def test_dimension(self):
        assert LanczosChain(np.array([])).d == 1
        assert LanczosChain(np.array([1.0, 2.0])).d == 3

    def test_immutable(self):
        ch = LanczosChain(np.array([1.0]))
        with pytest.raises(ValueError):
            ch.b[0] = 2.0

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        ch = LanczosChain(rng.uniform(0.1, 3.0, 57))
        path = tmp_path / "chain.csv"
        ch.to_csv(path)
        back = LanczosChain.from_csv(path)
        assert np.array_equal(back.b, ch.b)

    @ROUNDTRIP
    @given(b=st.lists(st.floats(min_value=0.0, exclude_min=True,
                                allow_infinity=False), max_size=40))
    def test_csv_roundtrip_property(self, tmp_path, b):
        ch = LanczosChain(np.array(b, dtype=float))
        ch.to_csv(tmp_path / "chain.csv")
        back = LanczosChain.from_csv(tmp_path / "chain.csv")
        assert back.b.tobytes() == ch.b.tobytes()


class TestDenseGenerator:
    def test_single_bond(self):
        L = dense_generator(LanczosChain(np.array([2.0])))
        assert np.array_equal(L, [[0.0, 2.0], [2.0, 0.0]])

    def test_two_bonds(self):
        L = dense_generator(LanczosChain(np.array([1.0, np.sqrt(2)])))
        expected = np.array([[0, 1, 0], [1, 0, np.sqrt(2)], [0, np.sqrt(2), 0]])
        assert np.array_equal(L, expected)

    def test_spectrum_symmetric_pairs(self):
        # zero diagonal -> bipartite chain -> eigenvalues in +/- pairs
        ch = LanczosChain(np.sqrt(np.arange(1, 50)))
        lam = np.linalg.eigvalsh(dense_generator(ch))
        assert np.allclose(np.sort(lam), -np.sort(-lam)[::-1], atol=1e-10)


class TestSpectralWidthSum:
    def test_single(self):
        ch = LanczosChain(np.array([2.0]))
        assert spectral_width_sum(ch) == 4.0
        L = dense_generator(ch)
        assert spectral_width_sum(ch) == 0.5 * np.trace(L @ L)

    def test_ones(self):
        assert spectral_width_sum(LanczosChain(np.ones(3))) == 3.0

    def test_random_matches_dense_trace(self):
        rng = np.random.default_rng(11)
        ch = LanczosChain(rng.uniform(0.2, 4.0, 99))
        L = dense_generator(ch)
        assert abs(spectral_width_sum(ch) - 0.5 * np.trace(L @ L)) < 1e-12


class TestPropagate:
    @pytest.mark.parametrize("method", ["chebyshev", "rk4", "moments"])
    def test_trivial_single_site(self, method):
        series = propagate(LanczosChain(np.array([])), dt=0.1, t_max=5.0,
                           method=method)
        assert np.array_equal(series.values, np.ones(51))
        assert series.norm_drift_max == 0.0

    @pytest.mark.parametrize("method", ["chebyshev", "rk4", "moments"])
    def test_two_site_cosine(self, method):
        b1 = 1.3
        series = propagate(LanczosChain(np.array([b1])), dt=0.05, t_max=50.0,
                           method=method)
        assert np.abs(series.values - np.cos(b1 * series.t)).max() < 1e-8

    def test_sqrt_chain_gaussian(self):
        # sqrt(n) coefficients generate exp(-t^2/2) before any boundary effect
        ch = LanczosChain(np.sqrt(np.arange(1, 600)))
        series = propagate(ch, dt=0.05, t_max=8.0)
        assert np.abs(series.values - np.exp(-series.t**2 / 2)).max() < 1e-6

    @pytest.mark.parametrize("method", ["chebyshev", "rk4", "moments"])
    def test_matches_expm_oracle(self, method):
        rng = np.random.default_rng(21)
        b = rng.uniform(0.5, 2.0, 39)
        A = antisymmetric_generator(b)
        times = np.arange(0, 41) * 0.25
        oracle = np.array([expm(t * A)[0, 0] for t in times])
        series = propagate(LanczosChain(b), dt=0.25, t_max=10.0, method=method)
        assert np.abs(series.values - oracle).max() < 1e-8

    def test_methods_cross_agree(self):
        rng = np.random.default_rng(22)
        b = rng.uniform(0.5, 2.0, 15)
        ch = LanczosChain(b)
        a = propagate(ch, dt=0.1, t_max=12.0, method="chebyshev")
        r = propagate(ch, dt=0.1, t_max=12.0, method="rk4")
        assert np.abs(a.values - r.values).max() < 1e-8

    def test_time_symmetry_dense(self):
        # even correlation function: expm(+tA) and expm(-tA) share the 00 entry
        rng = np.random.default_rng(23)
        b = rng.uniform(0.5, 2.0, 10)
        A = antisymmetric_generator(b)
        for t in (0.3, 1.7, 4.0):
            assert abs(expm(t * A)[0, 0] - expm(-t * A)[0, 0]) < 1e-12
        fwd = propagate(LanczosChain(b), dt=0.5, t_max=4.0)
        times = fwd.t
        dense = dense_correlation(LanczosChain(b), -times)
        assert np.abs(fwd.values - dense).max() < 1e-9

    def test_norm_conserved(self):
        # stepping measures |phi.phi - 1| after every step
        ch = LanczosChain(np.sqrt(np.arange(1, 80)))
        series = propagate(ch, dt=0.1, t_max=6.0, method="chebyshev")
        assert 0.0 < series.norm_drift_max <= NORM_TOL

    def test_bounded_values(self):
        ch = LanczosChain(np.sqrt(np.arange(1, 120)))
        series = propagate(ch, dt=0.05, t_max=10.0)
        assert np.abs(series.values).max() <= 1.0 + 1e-9

    def test_boundary_guard_flags_long_horizon(self):
        # linear tail: the front reaches the end well inside this horizon,
        # and the finite-size bound against the continued chain says so
        ch = LanczosChain(0.5 * np.arange(1, 120) + 1.0)
        longer = LanczosChain(0.5 * np.arange(1, 240) + 1.0)
        flagged = propagate(ch, dt=0.05, t_max=12.0)
        assert flagged.sites == ch.d
        gap = np.abs(dense_correlation(ch, flagged.t)
                     - dense_correlation(longer, flagged.t)).max()
        assert 0.5 <= gap <= flagged.cut_bound    # measured 0.96 and 1.7e4
        clean = propagate(ch, dt=0.05, t_max=0.5)
        assert clean.sites == ch.d
        assert clean.cut_bound <= 1e-30           # measured 4e-37

    def test_rk4_instability_reported(self, monkeypatch):
        # a phase budget this loose leaves only the stability cap on the
        # substep, and dt = 1 is beyond it
        monkeypatch.setattr(chain_module, "RK4_TOL", 1e9)
        ch = LanczosChain(np.sqrt(np.arange(1, 60)))
        with pytest.raises(PropagationError, match="chebyshev"):
            propagate(ch, dt=1.0, t_max=30.0, method="rk4")

    def test_chebyshev_drift_reported(self, monkeypatch):
        # each step is exact to round-off, so only a budget below round-off
        # trips it; the hint halves dt
        monkeypatch.setattr(chain_module, "NORM_TOL", 1e-18)
        ch = LanczosChain(np.sqrt(np.arange(1, 60)))
        with pytest.raises(PropagationError, match="shrink dt below 0.05$"):
            propagate(ch, dt=0.1, t_max=30.0, method="chebyshev")

    def test_input_validation(self):
        ch = LanczosChain(np.array([1.0]))
        with pytest.raises(ValueError):
            propagate(ch, dt=-0.1, t_max=1.0)
        with pytest.raises(ValueError):
            propagate(ch, dt=0.1, t_max=-1.0)
        with pytest.raises(ValueError):
            propagate(ch, dt=0.1, t_max=1.0, method="euler")


def desk_trial_chain(seed: int = 5) -> LanczosChain:
    """A perturbed desk-profile exponential-family chain (d=2000)."""
    base = exponential_chain(1.2, 150, 2000)
    return apply_draw(base, 0.5, draw_noise(2000, 666, seed)).chain


def desk_design(family: str, d: int) -> LanczosChain:
    """The unperturbed desk decay design of family g or e, at d sites."""
    if family == "g":
        return gaussian_chain(150, d)
    return exponential_chain(1.2, 150, d)


class TestMomentsEngine:
    def test_is_the_default(self):
        chain = LanczosChain(np.random.default_rng(4).uniform(0.5, 2.0, 99))
        default = propagate(chain, dt=0.1, t_max=20.0)
        assert np.array_equal(
            default.values,
            propagate(chain, dt=0.1, t_max=20.0, method="moments").values)

    def test_matches_dense_on_oracle_chains(self):
        # the 20 random chains of acceptance criterion 02
        worst = 0.0
        for seed in range(20):
            chain = LanczosChain(np.random.default_rng(seed).uniform(0.5, 2.0, 199))
            series = propagate(chain, dt=0.1, t_max=20.0, method="moments")
            assert len(series) == 201
            worst = max(worst, np.abs(
                series.values - dense_correlation(chain, series.t)).max())
        assert worst <= 1e-10     # measured 1.5e-14

    def test_single_site_is_constant(self):
        series = propagate(LanczosChain(np.array([])), dt=0.1, t_max=5.0,
                           method="moments")
        assert np.array_equal(series.values, np.ones(51))

    def test_horizon_below_dt_gives_one_sample(self):
        series = propagate(LanczosChain(np.array([1.0, 2.0])), dt=0.1,
                           t_max=0.04, method="moments")
        assert np.array_equal(series.values, [1.0])

    def test_matches_stepping_on_perturbed_desk_chain(self):
        chain = desk_trial_chain()
        moments = propagate(chain, dt=0.02, t_max=40.0, method="moments")
        stepping = propagate(chain, dt=0.02, t_max=40.0, method="chebyshev")
        assert np.abs(moments.values - stepping.values).max() <= 1e-12


def loop_moments(b: np.ndarray, lam: float,
                 count: int) -> tuple[np.ndarray, float, float]:
    """Reference for `_even_moments`: one chain, one step of the recursion
    on the whole light cone at a time, the norm a BLAS dot; raises at the
    first moment above 1 + NORM_TOL."""
    bs2 = 2.0 * b / lam
    d = b.size + 1
    mu = np.empty(count + 1)
    mu[0] = 1.0
    prev, cur, tmp = np.zeros(d), np.zeros(d), np.zeros(d - 1)
    cur[0] = 1.0
    drift = edge = 0.0
    for k in range(count):
        n = min(k + 2, d)
        if k == 0:
            prev[1] = 0.5 * bs2[0]
        else:
            h, t = bs2[:n - 1], tmp[:n - 1]
            np.multiply(h, cur[1:n], out=t)
            np.subtract(t, prev[:n - 1], out=prev[:n - 1])
            prev[n - 1] = -prev[n - 1]
            np.multiply(h, cur[:n - 1], out=t)
            prev[1:n] += t
        prev, cur = cur, prev
        mu[k + 1] = 2.0 * float(cur[:n] @ cur[:n]) - 1.0
        if n == d:
            edge = max(edge, abs(cur[d - 1]))
        if mu[k + 1] - 1.0 > drift:
            drift = mu[k + 1] - 1.0
            if drift > NORM_TOL:
                raise PropagationError(
                    f"Chebyshev moment mu_{2 * k + 2} = {mu[k + 1]:.3g} exceeds 1 "
                    f"by more than {NORM_TOL:.0e}: the scale {lam:.6g} does not "
                    f"bound the spectrum; use method='chebyshev'")
    return mu, drift, edge


class TestMomentGuard:
    @pytest.mark.parametrize("d", [2, 3, 60, 61])
    @pytest.mark.parametrize("count", [1, 20, 100])
    def test_rows_match_the_one_chain_loop(self, d, count):
        # each site's update keeps the loop's operations in its order, so
        # the amplitudes, and the edge, are the loop's to the bit; the norm
        # sums the same squares in another order: at most n-1 roundings of
        # a sum below 1 each, and mu doubles it
        rng = np.random.default_rng(d)
        b = rng.uniform(0.5, 2.0, (3, d - 1))
        lam = max(_prefix_scale(row, d) for row in b)
        tol = 2.0 * d * np.finfo(float).eps
        mu, edge = _even_moments(b, lam, count)
        assert mu.shape == (3, count + 1) and edge.shape == (3,)
        for row, mu_i, edge_i in zip(b, mu, edge):
            ref_mu, ref_drift, ref_edge = loop_moments(row, lam, count)
            assert np.abs(mu_i - ref_mu).max() <= tol
            assert abs((mu_i - 1.0).max() - ref_drift) <= tol
            assert edge_i == ref_edge

    def test_trips_when_scale_underestimates_spectrum(self):
        # uniform-ish hopping: site 0 carries weight up to the band edge
        chain = LanczosChain(np.random.default_rng(0).uniform(0.5, 2.0, 199))
        radius = eigh_tridiagonal(np.zeros(chain.d), chain.b,
                                  eigvals_only=True).max()
        # spectrum of L/lam reaches 1/0.9: the moments grow like cosh
        lam, dt, n_steps = 0.9 * radius, 0.5, 80
        [row] = held_at([chain], dt, n_steps, lam=lam)
        assert isinstance(row, PropagationError)
        assert "does not bound" in str(row)
        with pytest.raises(PropagationError) as ref:
            loop_moments(chain.b, lam, moment_count(lam, dt, n_steps))
        assert str(row) == str(ref.value)

    def test_an_overflowing_row_trips_alone(self):
        # a row scaled 1e3 past the scale grows about 2e3-fold per step, so
        # its amplitudes overflow to inf and then NaN by step 100, long
        # before the last of its ~520 moments; it names its first excess,
        # mu_2, and the other rows are their B = 1 expansions to the bit
        b = np.random.default_rng(3).uniform(0.5, 2.0, (3, 59))
        lam = max(_prefix_scale(row, 60) for row in b)
        b[1] *= 1e3
        dt, n_steps = 1.0, 100
        count = moment_count(lam, dt, n_steps)
        mu, edge = _even_moments(b, lam, count)
        assert np.isnan(mu[1, -1])
        for i in (0, 2):
            alone, alone_edge = _even_moments(b[i:i + 1], lam, count)
            assert mu[i].tobytes() == alone[0].tobytes()
            assert edge[i] == alone_edge[0]
        chains = [LanczosChain(row) for row in b]
        many = held_at(chains, dt, n_steps, lam=lam)
        assert isinstance(many[1], PropagationError)
        assert "mu_2 " in str(many[1])
        with pytest.raises(PropagationError) as ref:
            loop_moments(b[1], lam, count)
        assert str(many[1]) == str(ref.value)
        for i in (0, 2):
            assert same_series(many[i],
                               held_at(chains[i:i + 1], dt, n_steps, lam=lam)[0])

    def test_quiet_on_desk_chain(self):
        chain = desk_trial_chain()
        lam = _spectral_bound(chain.b) * (1.0 + 1e-7)
        mu, _ = _even_moments(chain.b[None], lam, 2000)
        assert np.abs(mu).max() <= 1.0 + 1e-12
        assert (mu - 1.0).max() <= 1e-12
        series = propagate(chain, dt=0.02, t_max=40.0, method="moments")
        assert series.norm_drift_max <= 1e-12


def desk_oscillating_chains(seed: int | None = None) -> list[LanczosChain]:
    """The desk gdo and edo chains (d=2000), perturbed by one draw if seeded."""
    pair = oscillating_pair(50, 2000, 2.0, 1.6)
    if seed is None:
        return list(pair)
    return [apply_draw(c, 0.1, draw_noise(2000, 666, seed)).chain for c in pair]


def uncut_engine(chain: LanczosChain, dt: float, t_max: float) -> np.ndarray:
    """The moments engine on the whole chain, as it ran before the cut."""
    lam = _prefix_scale(chain.b, chain.d)
    z = lam * dt * np.arange(int(round(t_max / dt)) + 1)
    mu, _ = _even_moments(chain.b[None], lam, int(_miller_order(z[-1])) // 2)
    return _cosine_series([mu[0]], z)[0]


OSC_DT, OSC_STEPS = 0.02, 1500      # the desk oscillation grid, t_max = 30


def held_at(chains: list[LanczosChain], dt: float, n_steps: int,
            n_c: int | None = None, lam: float | None = None) -> list:
    """`propagate_many` with every chain held at the one rung n_c (its own
    site count when None), whatever its bound, at the scale lam (its
    prefix's when None)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_cut_ladder",
                      lambda b, horizon: [n_c or b.size + 1])
        if lam is not None:
            patch.setattr(chain_module, "_prefix_scale", lambda b, n: lam)
        return propagate_many(chains, dt, n_steps * dt)


def expansion(b: np.ndarray, n_c: int, dt: float,
              n_steps: int) -> CorrelationSeries:
    """The series of the chain b expanded on its first n_c sites alone."""
    [series] = held_at([LanczosChain(b)], dt, n_steps, n_c)
    return series


def moment_count(lam: float, dt: float, n_steps: int) -> int:
    """The highest moment index the engine computes at the scale lam: the
    Miller start order of the horizon's lam*T/2, or half that of lam*T."""
    z_end = lam * dt * n_steps
    return max(int(_miller_order(z_end)) // 2, int(_miller_order(z_end / 2)))


class TestCausalCut:
    def test_cut_rule(self):
        b = np.array([1.0, 2.0, 4.0, 0.5, 1.0])
        # 1/b sums: 1, 1.5, 1.75, 3.75, 4.75
        assert _causal_cut(b, 0.75, 2.0) == 3     # sum over m = 1..2 reaches 1.5
        assert _causal_cut(b, 1.0, 2.0) == 5
        assert _causal_cut(b, 2.5, 2.0) == 6      # 5 is never reached: d
        assert _causal_cut(b, 0.0, 2.0) == 2

    @pytest.mark.parametrize("x", [0.5, 10.0, 555.6])
    def test_bessel_tail_bounds_the_sum(self, x):
        ys = np.linspace(0.0, x, 201)
        for order in (int(np.ceil(x)) + 2, int(_miller_order(x))):
            k = np.arange(order + 1, order + 2000)
            tail = np.abs(jv(k[:, None], ys[None, :])).sum(axis=0).max()
            assert tail <= _bessel_tail(order, x)
        assert _bessel_tail(order, x) <= 1e3 * tail     # measured 17-300x
        assert _bessel_tail(5, 0.0) == 0.0

    @pytest.mark.parametrize("z", [0.0, *np.geomspace(1e-12, 100.0, 29),
                                   2.404825557695773, 30.0])
    def test_bessel_weights_match_jv(self, z):
        # the chebyshev stepper's weights, by Miller's recurrence; the
        # orders cut off are below 1e-17
        weights = _bessel_weights(z)
        reference = jv(np.arange(weights.size + 50), z)
        assert np.abs(weights - reference[:weights.size]).max() <= 1e-14
        assert np.abs(reference[weights.size:]).max() <= 1e-17

    def test_tail_alone_bounds_a_cut_beyond_the_cone(self):
        # the recursion stops before v_k reaches site n_c - 1: only the
        # Bessel tail is left in the bound, and it must still be there
        b = np.ones(399)
        ex = expansion(b, 300, 0.1, 50)
        assert ex.moments - 1 < 299
        tail = _bessel_tail(ex.moments - 1, ex.lam * 0.1 * 50 / 2)
        assert ex.cut_bound == 4.0 * 1.0 * (50 * 0.1) * tail > 0.0

    def test_short_cut_is_refused_and_propagate_falls_back(self, monkeypatch):
        gdo, _ = desk_oscillating_chains()
        horizon = OSC_STEPS * OSC_DT
        n_c = _causal_cut(gdo.b, horizon, 1.0)
        assert 100 <= n_c <= 140          # measured 118
        ex = expansion(gdo.b, n_c, OSC_DT, OSC_STEPS)
        err = np.abs(ex.values - dense_correlation(gdo, ex.t)).max()
        assert err >= 0.05                # measured 0.069: the cut is wrong
        assert ex.cut_bound >= 1e3        # measured 6.2e3: and not certified
        monkeypatch.setattr(chain_module, "WKB_FACTORS", (1.0,))
        series = propagate(gdo, dt=OSC_DT, t_max=horizon, method="moments")
        assert series.sites == gdo.d
        assert 0.0 < series.cut_bound <= 1e-15   # the chain's end: Kapteyn tail
        assert np.array_equal(series.values, uncut_engine(gdo, OSC_DT, horizon))

    @pytest.mark.parametrize("seed", [3, 8])
    def test_rule_cut_is_certified_and_exact(self, seed):
        for chain in desk_oscillating_chains(seed):
            series = propagate(chain, dt=OSC_DT, t_max=30.0, method="moments")
            assert series.sites in (470, 512)     # the rung of factor 2
            # Kapteyn's Bessel tail dominates; the edge term is below 1e-39
            assert 0.0 < series.cut_bound <= 1e-18    # measured 3e-22..2e-21
            assert series.lam < 0.5 * _spectral_bound(chain.b)
            err = np.abs(series.values - dense_correlation(chain, series.t)).max()
            assert err <= 1e-13                       # measured 6e-15

    def test_weak_bond_inside_the_reach_falls_back(self):
        # a floor-clamped hopping makes sum 1/b jump: both rungs cut right
        # behind it, where the front arrives early and the bound refuses
        gdo, _ = desk_oscillating_chains()
        b = gdo.b.copy()
        b[50] = 1e-6
        weak = LanczosChain(b)
        assert [_causal_cut(b, 30.0, f) for f in WKB_FACTORS] == [52, 52]
        assert _cut_ladder(b, 30.0) == [54, weak.d]
        assert expansion(b, 54, OSC_DT, OSC_STEPS).cut_bound > CUT_TOL
        series = propagate(weak, dt=OSC_DT, t_max=30.0, method="moments")
        assert series.sites == weak.d
        assert 0.0 < series.cut_bound <= 1e-15
        assert np.array_equal(series.values, uncut_engine(weak, OSC_DT, 30.0))

    @pytest.mark.parametrize("family, sites", [("g", 1024), ("e", 1328)])
    def test_desk_decay_chains_are_cut_at_the_tight_rung(self, family, sites):
        base = desk_design(family, 2000)
        for chain in (base, apply_draw(base, 0.5, draw_noise(2000, 666, 4)).chain):
            # the whole chain's WKB travel time, 33-36, is below t_max = 40,
            # so the rung of factor 2 is d; that of factor 1.4 certifies
            assert _causal_cut(chain.b, 40.0, 2.0) == chain.d
            assert _cut_ladder(chain.b, 40.0) == [sites, chain.d]
            series = propagate(chain, dt=0.02, t_max=40.0, method="moments")
            assert series.sites == sites
            assert 0.0 < series.cut_bound <= CUT_TOL  # measured 6e-18..3e-17
            assert series.lam == _prefix_scale(chain.b, sites)
            assert series.moments == moment_count(series.lam, 0.02, 2000) + 1
            err = np.abs(series.values - dense_correlation(chain, series.t)).max()
            assert err <= 1e-13

    @pytest.mark.parametrize("index, rungs", [(0, [216, 470, 2000]),
                                              (1, [256, 512, 2000])])
    def test_desk_oscillating_chains_refuse_the_tight_rung(self, index,
                                                           rungs):
        chain = desk_oscillating_chains()[index]
        assert _cut_ladder(chain.b, 30.0) == rungs
        # measured 1.1e3 (gdo) and 4.8 (edo)
        assert expansion(chain.b, rungs[0], OSC_DT, OSC_STEPS).cut_bound >= 1.0
        series = propagate(chain, dt=OSC_DT, t_max=30.0)
        assert series.sites == rungs[1]
        assert 0.0 < series.cut_bound <= 1e-18      # measured 5e-22, 1.5e-21

    def test_site_grid(self):
        grid = np.ceil(np.exp2(np.arange(8 * 16) / 8)).astype(int)
        for n in range(2, 2**15):
            assert _grid_sites(n) == grid[np.searchsorted(grid, n)]

    def test_paper_decay_draws_share_few_first_rungs(self):
        # 40 paper-profile draws per decay family fall on at most 3 (lam_q,
        # n_c) keys at their first rung, so their recursions batch; the
        # exact cuts of the factor 2 gave 39 and 37 keys
        config = ScenarioConfig("decay", profile="paper")
        for index, family in enumerate(build_families(config)):
            keys = set()
            for trial in range(40):
                draw = draw_noise(config.d, config.n_f,
                                  trial_seed(config.base_seed, index, trial))
                b = apply_draw(family.chain, config.strength, draw,
                               floor=config.floor).chain.b
                n_c = _cut_ladder(b, config.t_max)[0]
                keys.add((_prefix_scale(b, n_c), n_c))
            assert len(keys) <= 3, family.name      # measured 3 and 3


class TestFiniteSizeBound:
    @pytest.mark.parametrize("d", [250, 400, 600, 1200, 2000])
    @pytest.mark.parametrize("family", ["g", "e"])
    def test_two_sided_against_the_design_at_2d(self, family, d):
        # the designs end in an affine tail, so the design at 2d is the
        # chain continued past d; at T = 40 the front reaches site 600
        # but not site 1200
        chain = desk_design(family, d)
        short = propagate(chain, dt=0.02, t_max=40.0)
        long = propagate(desk_design(family, 2 * d), dt=0.02, t_max=40.0)
        # the first rung, 1024 (g) or 1328 (e), certifies where it is
        # below d; at d <= 600 every rung is refused
        assert short.sites == (d if d <= 600 else _cut_ladder(chain.b, 40.0)[0])
        gap = np.abs(short.values - long.values).max()
        assert gap <= short.cut_bound + 1e-13
        if d <= 600:
            assert short.cut_bound >= 1e3         # measured 2e4-4e4
            if (family, d) != ("g", 600):         # that one is 7.6e-12
                assert gap >= 0.2                 # measured 0.24-1.0
        else:
            assert short.cut_bound <= 1e-15       # measured 6.3e-18-3.3e-17
            assert gap <= 1e-14                   # measured 2e-15-4e-15


def random_chain(seed: int, d: int, growing: bool) -> LanczosChain:
    """Flat hopping in [0.5, 2], or hopping growing like n^0.75 up to ~4."""
    rng = np.random.default_rng(seed)
    if growing:
        n = np.arange(1, d)
        return LanczosChain(0.3 + 3.5 * (n / d) ** 0.75 * rng.uniform(0.8, 1.2, d - 1))
    return LanczosChain(rng.uniform(0.5, 2.0, d - 1))


def continued(chain: LanczosChain, d: int) -> LanczosChain:
    """The chain extended to d sites by the engine's continuation rule."""
    b = list(chain.b)
    while len(b) < d - 1:
        b.append(_continued_coupling(np.array(b[-2:])))
    return LanczosChain(np.array(b))


class TestCutProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(20, 300),
           growing=st.booleans(), t_max=st.floats(1.0, 15.0),
           n_steps=st.integers(5, 150),
           factor=st.just(np.inf) | st.floats(0.25, 3.0))
    def test_certificate_is_sound(self, seed, d, growing, t_max, n_steps,
                                  factor):
        # factor = inf never cuts: the bound is then the finite-size one,
        # and the chain at 2d is an extension past the cut either way
        chain = random_chain(seed, d, growing)
        dt = t_max / n_steps
        n_c = _causal_cut(chain.b, n_steps * dt, factor)
        ex = expansion(chain.b, n_c, dt, n_steps)
        for extension in (chain, continued(chain, 2 * d)):
            err = np.abs(ex.values - dense_correlation(extension, ex.t)).max()
            assert err <= ex.cut_bound + 1e-13

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(20, 300),
           growing=st.booleans(), t_max=st.floats(1.0, 15.0),
           n_steps=st.integers(5, 150), power=st.integers(-3, 3))
    def test_scale_covariance(self, seed, d, growing, t_max, n_steps, power):
        # b -> s b with s a power of two scales every product exactly
        chain = random_chain(seed, d, growing)
        s, dt = 2.0**power, t_max / n_steps
        one = propagate(chain, dt=dt, t_max=t_max, method="moments")
        two = propagate(LanczosChain(chain.b * s), dt=dt / s, t_max=t_max / s,
                        method="moments")
        assert np.array_equal(one.values, two.values)
        assert (one.sites, one.moments, one.cut_bound) == \
            (two.sites, two.moments, two.cut_bound)
        assert two.lam == s * one.lam


class TestSteppingProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 150),
           growing=st.booleans(), t_max=st.floats(0.5, 4.0),
           n_steps=st.integers(2, 40),
           method=st.sampled_from(["chebyshev", "rk4"]))
    def test_norm_is_kept_and_values_match_dense(self, seed, d, growing,
                                                 t_max, n_steps, method):
        # the norm guard is the one the stepping references keep
        chain = random_chain(seed, d, growing)
        dt = t_max / n_steps
        series = propagate(chain, dt=dt, t_max=t_max, method=method)
        assert 0.0 <= series.norm_drift_max <= NORM_TOL
        err = np.abs(series.values - dense_correlation(chain, series.t)).max()
        assert err <= 1e-8


class TestQuantizedScale:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lam=st.floats(1e-300, 1e300))
    def test_rounds_up_by_less_than_one_step(self, lam):
        q = _quantized(lam)
        assert lam <= q < 2 ** (1 / 16) * lam * (1 + 1e-15)
        j = 16 * np.log2(q)
        assert abs(j - round(j)) < 1e-9

    def test_powers_of_two_are_fixed(self):
        for p in range(-1000, 1001):
            assert _quantized(2.0**p) == 2.0**p

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lam=st.floats(1e-100, 1e100), power=st.integers(-100, 100))
    def test_scales_exactly_under_powers_of_two(self, lam, power):
        assert _quantized(lam * 2.0**power) == _quantized(lam) * 2.0**power


def same_series(a: CorrelationSeries, b: CorrelationSeries) -> bool:
    """Equal to the bit in values and in what the engine reports."""
    return (a.values.tobytes() == b.values.tobytes()
            and (a.lam, a.moments, a.sites, a.cut_bound, a.norm_drift_max)
            == (b.lam, b.moments, b.sites, b.cut_bound, b.norm_drift_max))


def nearly_flat_chain(seed: int, d: int) -> LanczosChain:
    """Hopping in [1 - 1e-4, 1): every prefix of three or more sites has
    the scale 2, and the cut of a horizon T falls at one site for all of
    them unless 2T is within 1e-4 * 2T of an integer."""
    return LanczosChain(np.random.default_rng(seed).uniform(1 - 1e-4, 1.0, d - 1))


ROW_COUNTS = [1, 2, GROUP_ROWS - 1, GROUP_ROWS, GROUP_ROWS + 1]


def poisoned_moments(target: LanczosChain, value, k: int = 0):
    """`_even_moments`, but where a row is a prefix of target's couplings,
    of n sites, its moments from mu_2k on are set to value(n), unless that
    is None."""
    def even_moments(b, lam, count):
        mu, edge = _even_moments(b, lam, count)
        for r, row in enumerate(b):
            if row.tobytes() == target.b[:row.size].tobytes():
                poison = value(row.size + 1)
                if poison is not None:
                    mu[r, k:] = poison
        return mu, edge
    return even_moments


class TestPropagateMany:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(specs=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                    st.integers(1, 250), st.booleans(),
                                    st.sampled_from([1.0, 1.004, 1.5])),
                          min_size=1, max_size=7),
           group=st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 250),
                           st.sampled_from(ROW_COUNTS)),
           t_max=st.floats(1.0, 15.0), n_steps=st.integers(5, 150),
           shuffle=st.randoms(use_true_random=False))
    @example(specs=[(1, 40, True, 1.0)], group=(7, 2, GROUP_ROWS + 1),
             t_max=4.0, n_steps=40, shuffle=random.Random(0))
    @example(specs=[(2, 41, False, 1.5)], group=(8, 3, GROUP_ROWS),
             t_max=4.0, n_steps=40, shuffle=random.Random(1))
    @example(specs=[(3, 9, False, 1.0)], group=(9, 120, GROUP_ROWS - 1),
             t_max=10.2, n_steps=51, shuffle=random.Random(2))
    @example(specs=[(4, 9, True, 1.0)], group=(10, 121, 2),
             t_max=10.7, n_steps=53, shuffle=random.Random(3))
    def test_each_series_is_its_single_propagation(self, specs, group, t_max,
                                                   n_steps, shuffle):
        # flat chains of one scale share a Bessel sum; growing ones are cut
        # at short horizons and carry their prefix's scale.  The nearly
        # flat chains share one (lam, n_c): alone, they are expanded in
        # recursions of B = 1, 2, GROUP_ROWS - 1, GROUP_ROWS, or GROUP_ROWS
        # and 1 rows; shuffled among the others, in groups of any size.
        # Their n_c is about 2T + 1 when cut and d when not, of either
        # parity; the moment count, about T + 30 + 12 T^(1/3), is above
        # n_c - 2 when cut or d is small, below it when d is large.
        flat_seed, flat_d, rows = group
        flat = [nearly_flat_chain(flat_seed + i, flat_d) for i in range(rows)]
        chains = flat + [LanczosChain(scale * random_chain(seed, d, growing).b)
                         for seed, d, growing, scale in specs]
        dt = t_max / n_steps
        alone = propagate_many(flat, dt=dt, t_max=t_max)
        shuffle.shuffle(chains)
        many = propagate_many(chains, dt=dt, t_max=t_max)
        assert len(alone) == len(flat) and len(many) == len(chains)
        for chain, series in zip(flat + chains, alone + many):
            assert same_series(series, propagate(chain, dt=dt, t_max=t_max))

    def test_a_batch_mixes_first_rungs_and_refused_ones(self):
        # at t_max = 30 on 1000 sites the e design is certified at its
        # first rung, gdo and edo at their second, and g only at d; each
        # design shares the batch with a perturbed copy
        designs = [exponential_chain(1.2, 150, 1000), gaussian_chain(150, 1000),
                   *oscillating_pair(50, 1000, 2.0, 1.6)]
        chains = designs + [apply_draw(c, 0.1, draw_noise(1000, 333, seed)).chain
                            for seed, c in enumerate(designs)]
        many = propagate_many(chains, dt=0.06, t_max=30.0)
        rungs = [_cut_ladder(c.b, 30.0) for c in designs]
        assert [r.index(s.sites) for r, s in zip(rungs, many)] == [0, 1, 1, 1]
        assert [s.sites for s in many[:2]] == [664, 1000]
        for chain, series in zip(chains, many):
            assert same_series(series, propagate(chain, dt=0.06, t_max=30.0))

    def test_one_bessel_sum_per_scale(self, monkeypatch):
        # Gershgorin bounds in [1.98, 2), of the whole chain or of a prefix:
        # all round up to 2
        def flat(seed, d):
            rng = np.random.default_rng(seed)
            return LanczosChain(rng.uniform(0.99, 1.0, d - 1))

        chains = [flat(seed, 400) for seed in range(4)] + [flat(4, 50)]
        chains += [LanczosChain(chains[0].b * 2.0), LanczosChain(np.array([]))]
        passes = []

        def counted(mus, z):
            passes.append(len(mus))
            return _cosine_series(mus, z)

        monkeypatch.setattr(chain_module, "_cosine_series", counted)
        many = propagate_many((c for c in chains), dt=2.0, t_max=100.0)
        assert [s.sites < 400 for s in many[:4]] == [True] * 4   # cut
        assert many[4].sites == 50                                # uncut
        assert [s.lam for s in many[:5]] == [2.0] * 5
        assert many[5].lam == 4.0
        assert sorted(passes) == [1, 5]     # the single site needs none
        assert np.array_equal(many[6].values, np.ones(51))

    def test_empty_list(self):
        assert propagate_many([], dt=0.1, t_max=1.0) == []

    def test_a_real_trip_leaves_the_other_rows_unchanged(self):
        # five chains expanded together at one scale, which one of them,
        # scaled by 1.5, exceeds: that row alone trips, with the message of
        # the one-chain loop, and every other row is its B = 1 expansion
        rows = [random_chain(seed, 200, False) for seed in range(5)]
        lam = max(_prefix_scale(c.b, 200) for c in rows)
        rows[3] = LanczosChain(rows[3].b * 1.5)
        dt, n_steps = 0.1, 80
        batch = held_at(rows, dt, n_steps, lam=lam)
        with pytest.raises(PropagationError, match="does not bound") as ref:
            loop_moments(rows[3].b, lam, moment_count(lam, dt, n_steps))
        assert isinstance(batch[3], PropagationError)
        assert str(batch[3]) == str(ref.value)
        for i in (0, 1, 2, 4):
            [alone] = held_at(rows[i:i + 1], dt, n_steps, lam=lam)
            assert same_series(batch[i], alone)

    def test_a_failing_chain_keeps_its_slot(self, monkeypatch):
        # the moment guard trips for the middle chain only, whose moments
        # are not finite: its slot holds the error, and the chains around
        # it, of the same scale, are propagated as if alone
        good = [random_chain(seed, 120, False) for seed in (1, 5)]
        bad = random_chain(2, 120, False)
        monkeypatch.setattr(chain_module, "_even_moments",
                            poisoned_moments(bad, lambda n: np.nan))
        many = propagate_many([good[0], bad, good[1]], dt=0.1, t_max=8.0)
        assert isinstance(many[1], PropagationError)
        assert str(many[1]).startswith("Chebyshev moment mu_0 = nan exceeds 1")
        assert many[0].lam == many[2].lam
        for chain, series in zip(good, many[::2]):
            assert same_series(series, propagate(chain, dt=0.1, t_max=8.0))
        with pytest.raises(PropagationError) as alone:
            propagate(bad, dt=0.1, t_max=8.0)
        assert str(alone.value) == str(many[1])

    def test_a_chain_refused_at_its_first_rung_can_trip_at_its_next(
            self, monkeypatch):
        # at t_max = 30 on 1000 sites the gdo design and its perturbed
        # copies share each rung and its scale: the first is refused, the
        # second certified.  A NaN moment at the second, in the design's
        # row alone, gives its slot the guard's error; the copies, expanded
        # with it at both rungs, keep their series to the bit
        gdo = oscillating_pair(50, 1000, 2.0, 1.6)[0]
        copies = [apply_draw(gdo, 0.1, draw_noise(1000, 333, seed)).chain
                  for seed in (2, 4)]
        rungs = _cut_ladder(gdo.b, 30.0)
        for chain in copies:
            assert _cut_ladder(chain.b, 30.0) == rungs
            assert [_prefix_scale(chain.b, n) for n in rungs[:2]] == \
                [_prefix_scale(gdo.b, n) for n in rungs[:2]]
        expanded = []

        def poison(n):
            expanded.append(n)
            return np.nan if n == rungs[1] else None

        monkeypatch.setattr(chain_module, "_even_moments",
                            poisoned_moments(gdo, poison, k=7))
        many = propagate_many([copies[0], gdo, copies[1]], dt=0.06, t_max=30.0)
        assert expanded == rungs[:2]
        assert isinstance(many[1], PropagationError)
        assert str(many[1]).startswith("Chebyshev moment mu_14 = nan exceeds 1")
        monkeypatch.undo()
        for chain, series in zip(copies, many[::2]):
            assert series.sites == rungs[1]
            assert same_series(series, propagate(chain, dt=0.06, t_max=30.0))


def terms_at(count: int) -> float:
    """The smallest z on a grid of 1/64 whose Bessel sum runs over
    k = 1..count: its Miller start order is 2*count."""
    z = np.arange(1, 64 * 400) / 64
    return float(z[np.argmax(_miller_order(z) == 2 * count)])


def term_by_term_series(mu: np.ndarray, z: np.ndarray) -> np.ndarray:
    """J_0 + 2 sum_k (-1)^k mu_2k J_2k, one z at a time: Miller's recurrence
    from that z's own start order, normalised, then added term by term."""
    out = np.ones(z.size)
    for n, zn in enumerate(z):
        if zn == 0.0:
            continue
        top = int(_miller_order(np.array([zn]))[0])
        J = np.zeros(top + 2)
        J[top] = 1e-300
        for m in range(top, 0, -1):
            J[m - 1] = 2.0 * m / zn * J[m] - J[m + 1]
        J /= J[0] + 2.0 * J[2::2].sum()
        c = J[0]
        for k in range(1, top // 2 + 1):
            c += (-1.0) ** k * 2.0 * mu[k] * J[2 * k]
        out[n] = c
    return out


class TestChunkedBesselSum:
    @pytest.mark.parametrize("count", [_CHUNK_ROWS - 9, _CHUNK_ROWS,
                                       _CHUNK_ROWS + 1, 4 * _CHUNK_ROWS + 6])
    def test_rows_of_a_transposed_stack(self, count):
        # the sum runs over count terms, in chunks of _CHUNK_ROWS from the
        # top: one partial chunk, one full one, a full one and a last
        # single term, or four full ones and a last partial one.  Each
        # moment row is a strided view, as `_even_moments` returns them;
        # a strided operand of 4j + 2 or 4j + 3 rows would take another
        # summation order in BLAS than the contiguous one of a B = 1 call
        rng = np.random.default_rng(count)
        bs = rng.uniform(0.5, 1.5, (3, 39))
        lam = max(_prefix_scale(b, 40) for b in bs)
        z = np.linspace(0.0, terms_at(count), 151)
        assert int(_miller_order(z[-1])) == 2 * count
        stacked = np.ascontiguousarray(_even_moments(bs, lam, count)[0])
        strided = np.ascontiguousarray(stacked.T).T
        assert not strided[0].flags.c_contiguous
        series = _cosine_series(list(strided), z)
        for b, mu, row in zip(bs, stacked, series):
            assert row.tobytes() == _cosine_series([mu], z)[0].tobytes()
            assert np.abs(row - term_by_term_series(mu, z)).max() <= 1e-14
            dense = dense_correlation(LanczosChain(b), z / lam)
            assert np.abs(row - dense).max() <= 1e-8


class TestDenseCorrelation:
    def test_matches_expm(self):
        rng = np.random.default_rng(31)
        b = rng.uniform(0.3, 2.5, 25)
        A = antisymmetric_generator(b)
        times = np.array([0.0, 0.7, 2.2, 5.1])
        oracle = np.array([expm(t * A)[0, 0] for t in times])
        got = dense_correlation(LanczosChain(b), times)
        assert np.abs(got - oracle).max() < 1e-11

    def test_single_site(self):
        got = dense_correlation(LanczosChain(np.array([])), np.array([0.0, 3.0]))
        assert np.array_equal(got, [1.0, 1.0])


class TestZeroMode:
    """A dimer chain b_odd = r, b_even = 1 of d = 2J + 1 sites has the exact
    zero mode psi_2j = (-r)^j, zero on odd sites, of site-0 weight
    w0 = (1 - r^2) / (1 - r^(2(J+1))); it is the long-time mean of C."""

    @pytest.mark.parametrize("r, d", [(0.3, 21), (0.5, 41), (0.7, 61),
                                      (1.5, 41), (2.0, 21)])
    def test_site_zero_weight_is_the_plateau(self, r, d):
        J = (d - 1) // 2
        w0 = (1 - r**2) / (1 - r**(2 * (J + 1)))
        chain = LanczosChain(np.where(np.arange(d - 1) % 2 == 0, r, 1.0))
        lam, V = np.linalg.eigh(dense_generator(chain))
        assert abs(V[0, np.argmin(np.abs(lam))]**2 - w0) <= 1e-12
        series = propagate(chain, dt=0.05, t_max=400.0)
        assert abs(series.values[series.t >= 200.0].mean() - w0) <= 2e-3


class TestCorrelationSeries:
    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            CorrelationSeries(dt, np.ones(3))

    def test_csv_roundtrip(self, tmp_path):
        ch = LanczosChain(np.sqrt(np.arange(1, 40)))
        series = propagate(ch, dt=0.04, t_max=3.0)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        back = CorrelationSeries.from_csv(path)
        assert back.dt == series.dt
        assert np.array_equal(back.values, series.values)

    @ROUNDTRIP
    @given(dt=st.floats(1e-3, 10.0),
           values=st.lists(FINITE, min_size=2, max_size=61))
    def test_csv_roundtrip_property(self, tmp_path, dt, values):
        series = CorrelationSeries(dt, np.array(values))
        series.to_csv(tmp_path / "series.csv")
        back = CorrelationSeries.from_csv(tmp_path / "series.csv")
        assert np.float64(back.dt).tobytes() == np.float64(dt).tobytes()
        assert back.values.tobytes() == series.values.tobytes()

    @pytest.mark.parametrize("start, refused", [
        (0.0, False), (-9e-10, False), (9e-10, False), (1.1e-9, True),
        (-1.1e-9, True), (5.0, True)])
    def test_grid_starts_at_zero_within_the_uniformity_tolerance(
            self, tmp_path, start, refused):
        # the grid's tolerance is 1e-9 * max(dt, 1): 1e-9 at dt = 0.1
        path = tmp_path / "series.csv"
        path.write_text("t,C\n" + "".join(
            f"{start + 0.1 * n!r},{0.5 ** n}\n" for n in range(4)))
        if refused:
            with pytest.raises(ValueError, match="series.csv: series starts"):
                CorrelationSeries.from_csv(path)
        else:
            assert CorrelationSeries.from_csv(path).values[3] == 0.125

    @pytest.mark.parametrize("cell", ["1.7e308", "-4.9e-324", "-0.0"])
    def test_extreme_finite_cells_parse(self, tmp_path, cell):
        path = tmp_path / "series.csv"
        path.write_text(f"t,C\n0,1\n0.1,{cell}\n0.2,0.5\n")
        assert CorrelationSeries.from_csv(path).values[1] == float(cell)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("reader, text", [
        (CorrelationSeries.from_csv, "t,C\n0,1\n0.1,{}\n0.2,0.5\n"),
        (CorrelationSeries.from_csv, "t,C\n0,1\n{},0.8\n0.2,0.5\n"),
        (LanczosChain.from_csv, "n,b\n1,1.5\n2,{}\n3,1.5\n")])
    def test_non_finite_cell_names_its_line(self, tmp_path, cell, reader,
                                            text):
        path = tmp_path / "in.csv"
        path.write_text(text.format(cell))
        with pytest.raises(ValueError, match="in.csv: line 3: non-finite"):
            reader(path)
