"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The desk-scale ensembles are session fixtures shared across criteria; run
with `pytest -s tests/test_acceptance.py` to watch the per-criterion lines.
"""

import time

import numpy as np
import pytest

from morilab.chain import (LanczosChain, dense_correlation, dense_generator,
                           propagate, spectral_width_sum)
from morilab.design import exponential_chain, gaussian_chain, q_ratio
from morilab.experiment import Scenario, ScenarioConfig, run_scenario
from morilab.perturb import apply_draw, draw_noise
from morilab.reverse import AnalyticCorrelation, fourier_of_correlation, \
    lanczos_from_spectrum


def check(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} — {description}: {detail}")
    assert ok, f"criterion {num} ({description}): {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale ensembles
# ---------------------------------------------------------------------------

def _timed_run(config):
    t0 = time.time()
    records, summary = run_scenario(config)
    elapsed = time.time() - t0
    means = {k: v.mean_epsilon for k, v in summary.families.items()}
    print(f"    [{config.scenario.value}] d={config.d} trials={config.n_trials} "
          f"lambda={config.strength} -> eps_bar={means} in {elapsed:.0f}s")
    return records, summary, elapsed


@pytest.fixture(scope="session")
def desk_decay():
    return _timed_run(ScenarioConfig.preset(Scenario.DECAY))


@pytest.fixture(scope="session")
def desk_oscillation():
    return _timed_run(ScenarioConfig.preset(Scenario.OSCILLATION))


@pytest.fixture(scope="session")
def desk_pathological_decay():
    return _timed_run(ScenarioConfig.preset(Scenario.PATHOLOGICAL_DECAY))


@pytest.fixture(scope="session")
def small_pathological_oscillation():
    return _timed_run(ScenarioConfig.preset(
        Scenario.PATHOLOGICAL_OSCILLATION, d=800, n_trials=40, t_max=25.0))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_analytic_two_site():
    b1 = 1.3
    t0 = time.time()
    series = propagate(LanczosChain(np.array([b1])), dt=0.05, t_max=50.0)
    elapsed = time.time() - t0
    err = np.abs(series.values - np.cos(b1 * series.t)).max()
    check(1, "two-site chain matches cos(b1 t) on [0, 50]",
          err <= 1e-8 and elapsed < 1.0,
          f"max err {err:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_oracle_equivalence():
    worst_err = 0.0
    worst_drift = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.5, 2.0, 199)
        chain = LanczosChain(b)
        times = np.arange(0, 201) * 0.1
        oracle = dense_correlation(chain, times)
        for method in ("chebyshev", "rk4"):
            series = propagate(chain, dt=0.1, t_max=20.0, method=method)
            worst_err = max(worst_err, np.abs(series.values - oracle).max())
            worst_drift = max(worst_drift, series.norm_drift_max)
    check(2, "both propagators match dense diagonalization at d=200",
          worst_err <= 1e-8 and worst_drift <= 1e-9,
          f"max err {worst_err:.2e}, max drift {worst_drift:.2e} over 20 chains")


def test_criterion_03_gaussian_identity():
    chain = gaussian_chain(10, 400)
    series = propagate(chain, dt=0.02, t_max=6.0)
    err = np.abs(series.values - np.exp(-series.t**2 / 2)).max()
    check(3, "gaussian design reproduces exp(-t^2/2) on [0, 6]",
          err <= 1e-3, f"max err {err:.2e}")


def test_criterion_04_reverse_engineering():
    t0 = time.time()
    density = fourier_of_correlation(AnalyticCorrelation(gauss_rate=-0.5),
                                     n_max=50)
    result = lanczos_from_spectrum(density, 50)
    elapsed = time.time() - t0
    n = np.arange(1, 31)
    rel = (np.abs(result.b[:30] - np.sqrt(n)) / np.sqrt(n)).max()
    check(4, "spectral recursion recovers sqrt(n) coefficients",
          rel <= 1e-3 and result.achieved >= 40 and elapsed < 30.0,
          f"rel err {rel:.2e} (n<=30), achieved {result.achieved}, "
          f"{elapsed:.1f}s")


def test_criterion_05_q_ratio_paper_scale():
    cfg = ScenarioConfig.preset(Scenario.DECAY, "paper")
    q = q_ratio(gaussian_chain(cfg.n_star, cfg.d),
                exponential_chain(cfg.a, cfg.n_star, cfg.d))
    check(5, "paper-scale designs have matched spectral width",
          abs(q - 1.0) <= 1e-4, f"|q-1| = {abs(q - 1.0):.2e}")


def test_criterion_06_spectral_width_identity():
    worst = 0.0
    for seed, d in ((0, 7), (1, 200), (2, 500)):
        rng = np.random.default_rng(seed)
        chain = LanczosChain(rng.uniform(0.2, 4.0, d - 1))
        L = dense_generator(chain)
        total = spectral_width_sum(chain)
        worst = max(worst, abs(total - 0.5 * np.trace(L @ L)) / total)
    check(6, "sum b^2 equals Tr[L^2]/2 up to d=500",
          worst <= 1e-12, f"max relative deviation {worst:.2e}")


def test_criterion_07_perturbation_scaling():
    # Per-draw |sum v^2 - d/2| <= 2 cannot hold for every draw: the exact
    # trigonometric value is d/2 - v0^2 with v0^2 ~ chi^2_1/2, which exceeds
    # 2 for 4.55% of draws at any seed (see the decisions ledger).  The test
    # asserts the exact identity per draw plus the +-2 band in distribution,
    # along with the criterion's ensemble-mean scaling law, verbatim.
    d, n_f, lam, n_draws = 2000, 2000 // 3, 0.5, 200
    chain = exponential_chain(1.2, 150, d)
    sum_b2 = spectral_width_sum(chain)
    diffs = []
    norm_errs = []
    ident_errs = []
    band_devs = []
    for i in range(n_draws):
        draw = draw_noise(d, n_f, i)
        pert = apply_draw(chain, lam, draw)
        diffs.append(np.sum(pert.chain.b**2) - sum_b2 - lam**2 * draw.sum_v2)
        norm_errs.append(abs(draw.amplitude_norm - 1.0))
        ident_errs.append(abs(draw.sum_v2 - (d / 2 - draw.v0**2)))
        band_devs.append(abs(draw.sum_v2 - d / 2))
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(n_draws)
    mean_ok = abs(diffs.mean()) <= 3 * se
    norm_ok = max(norm_errs) <= 1e-12
    ident_ok = max(ident_errs) <= 1e-8 * d
    band_frac = np.mean(np.array(band_devs) <= 2.0)
    band_ok = band_frac >= 0.85 and np.mean(band_devs) <= 2.0
    check(7, "additive noise scaling law over 200 draws",
          mean_ok and norm_ok and ident_ok and band_ok,
          f"mean diff {diffs.mean():.3g} vs 3SE {3 * se:.3g}; "
          f"max norm err {max(norm_errs):.1e}; "
          f"max trig-identity err {max(ident_errs):.1e}; "
          f"band fraction {band_frac:.2f}")


def test_criterion_08_decay_separation(desk_decay):
    records, summary, elapsed = desk_decay
    eps_e = summary.families["e"].mean_epsilon
    eps_g = summary.families["g"].mean_epsilon
    check(8, "desk decay: exponential stays fittable, Gaussian does not",
          eps_e < 0.01 and eps_g / eps_e >= 5.0 and elapsed <= 1200.0,
          f"eps_e {eps_e:.4g}, eps_g {eps_g:.4g}, ratio {eps_g / eps_e:.1f}, "
          f"{elapsed:.0f}s")


def test_criterion_09_oscillation_separation(desk_oscillation):
    records, summary, _ = desk_oscillation
    eps_edo = summary.families["edo"].mean_epsilon
    eps_gdo = summary.families["gdo"].mean_epsilon
    check(9, "desk oscillation: exponential damping more stable",
          eps_edo < eps_gdo and eps_gdo / eps_edo >= 2.0,
          f"eps_edo {eps_edo:.4g}, eps_gdo {eps_gdo:.4g}, "
          f"ratio {eps_gdo / eps_edo:.1f}")


def test_criterion_10_pathological_amplification(desk_decay,
                                                 desk_pathological_decay):
    _, decay_summary, _ = desk_decay
    path_records, path_summary, _ = desk_pathological_decay
    eps_decay = decay_summary.families["e"].mean_epsilon
    eps_path = path_summary.families["e"].mean_epsilon
    non_eq = np.mean([not r.equilibrated for r in path_records])
    check(10, "white-noise cutoff destroys the exponential decay",
          eps_path >= 10.0 * eps_decay and non_eq >= 0.5,
          f"eps_e {eps_decay:.4g} -> {eps_path:.4g} "
          f"(x{eps_path / eps_decay:.0f}), non-equilibrated {non_eq:.0%}")


def test_criterion_11_diagonal_edge(desk_decay, desk_oscillation,
                                    desk_pathological_decay,
                                    small_pathological_oscillation):
    worst = -np.inf
    total = 0
    for records, _, _ in (desk_decay, desk_oscillation,
                          desk_pathological_decay,
                          small_pathological_oscillation):
        for r in records:
            worst = max(worst, r.epsilon - r.sigma - r.eps0)
            total += 1
    check(11, "no fit lands farther than the unperturbed curve",
          worst <= 1e-9, f"max(eps - sigma - eps0) = {worst:.2e} "
          f"over {total} trials in 4 scenarios")


def test_criterion_12_determinism(tmp_path):
    from morilab.cli import records_to_csv
    config = dict(scenario=Scenario.DECAY, d=400, n_trials=12, dt=0.05,
                  t_max=12.0, n_star=10, base_seed=7)
    paths = []
    for name in ("a", "b"):
        records, _ = run_scenario(ScenarioConfig(**config))
        path = tmp_path / f"records_{name}.csv"
        records_to_csv(records, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    check(12, "identical configs yield byte-identical records.csv",
          identical, f"{paths[0].stat().st_size} bytes compared")
