"""Checks of one `morilab run` output directory, computed apart from morilab.

Every quantity is recomputed here from the written CSV/JSON files with this
module's own code for the documented formulas:

- C(t) of a chain from a dense tridiagonal eigendecomposition,
  C(t) = sum_k V[0,k]^2 cos(lambda_k t), applied to each baseline and to
  each exemplar trial (whose perturbed chain is rebuilt with the public
  `draw_noise`/`apply_draw` from the record's seed);
- the equilibration index, epsilon and sigma;
- each per-trial seed, from SeedSequence(base_seed, spawn_key=(family, trial));
- the diagonal edge epsilon <= sigma + eps0 (acceptance criterion 11).

`verify` returns {check name: [problems]}; a check passed when its list is
empty.  The scenario-level physics predicates live beside it.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy.linalg import eigh_tridiagonal

C_TOL = 1e-8       # |C_program - C_oracle|, the bound of acceptance criterion 02
REL_TOL = 1e-9     # recomputed epsilon, sigma, eps0 against the recorded values
EDGE_TOL = 1e-9    # epsilon <= sigma + eps0 + EDGE_TOL (criterion 11)
EXEMPLARS = 3      # curves.csv holds this many trials per family

CHECKS = ("files", "config", "records.count", "records.seed", "records.eps0",
          "records.edge", "summary.means", "unperturbed.C", "unperturbed.fit",
          "exemplar.count", "exemplar.C", "exemplar.quantifiers")


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-15


def oracle_correlation(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """C(t) of the chain with hoppings b by dense tridiagonal diagonalization."""
    lam, vec = eigh_tridiagonal(np.zeros(b.size + 1), b)
    return np.cos(np.outer(t, lam)) @ (vec[0] ** 2)


def equilibration(c: np.ndarray, dt: float, threshold: float,
                  window: float) -> tuple[int, bool]:
    """End index of the first window of length `window` with |C| < threshold.

    Series that never settle get the last index and False.
    """
    span = int(round(window / dt)) + 1
    if c.size >= span:
        clean = np.lib.stride_tricks.sliding_window_view(
            np.abs(c) < threshold, span).all(axis=1)
        if clean.any():
            return int(np.argmax(clean)) + span - 1, True
    return c.size - 1, False


def model_curve(kind: str, params, t: np.ndarray) -> np.ndarray:
    """A exp(-mu t) or A exp(-mu t^2), times cos(omega t - phi) if oscillating."""
    a, mu = params[0], params[1]
    envelope = np.exp(-mu * t ** 2) if kind.startswith("gauss") else np.exp(-mu * t)
    out = a * envelope
    if kind.endswith("_cos"):
        out = out * np.cos(params[2] * t - params[3])
    return out


def rms(diff: np.ndarray, n_eq: int) -> float:
    """sqrt(sum_{n=0}^{n_eq} diff_n^2 / n_eq), the epsilon/sigma normalization."""
    return float(np.sqrt(np.sum(diff[: n_eq + 1] ** 2) / n_eq))


def trial_seed(base_seed: int, family_index: int, trial: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(family_index, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def _params(rec: dict) -> tuple:
    keys = ("A", "mu", "omega", "phi") if rec["omega"] != "" else ("A", "mu")
    return tuple(float(rec[k]) for k in keys)


def _fit_params(info: dict) -> tuple:
    if info["omega"] is None:
        return info["A"], info["mu"]
    return info["A"], info["mu"], info["omega"], info["phi"]


def _rebuild_chain(base_b: np.ndarray, spec: dict, seed: int) -> np.ndarray:
    from morilab.chain import LanczosChain
    from morilab.perturb import apply_draw, draw_noise
    draw = draw_noise(spec["d"], spec["n_f"], seed)
    return apply_draw(LanczosChain(base_b), spec["strength"], draw,
                      floor=spec["floor"]).chain.b


def verify(out_dir: str, spec: dict) -> dict[str, list[str]]:
    """Check a run directory against the workload `spec`; {check: problems}.

    `spec` holds the requested configuration: families (in family-index
    order), n_trials, base_seed, d, n_f, strength, floor, dt, t_max,
    eq_threshold and eq_window.
    """
    problems: dict[str, list[str]] = {name: [] for name in CHECKS}
    path = lambda name: os.path.join(out_dir, name)
    families = spec["families"]
    needed = ["records.csv", "summary.json", "curves.csv"] + [
        f"{kind}_{fam}.csv" for fam in families for kind in ("chain", "unperturbed")]
    missing = [name for name in needed if not os.path.exists(path(name))]
    if missing:
        problems["files"].append(f"missing {', '.join(missing)}")
        return problems

    with open(path("summary.json")) as fh:
        summary = json.load(fh)
    for key in ("n_trials", "base_seed", "d", "n_f", "strength", "floor", "dt",
                "t_max", "eq_threshold", "eq_window"):
        if summary["config"].get(key) != spec[key]:
            problems["config"].append(
                f"{key} = {summary['config'].get(key)!r}, requested {spec[key]!r}")

    dt, n_trials = spec["dt"], spec["n_trials"]
    eq_args = (dt, spec["eq_threshold"], spec["eq_window"])
    t = np.arange(int(round(spec["t_max"] / dt)) + 1) * dt
    records = _rows(path("records.csv"))

    base_b, c0, f0 = {}, {}, {}
    for fam in families:
        base_b[fam] = np.array([float(r["b"]) for r in _rows(path(f"chain_{fam}.csv"))])
        rows = _rows(path(f"unperturbed_{fam}.csv"))
        c0[fam] = np.array([float(r["C"]) for r in rows])
        info = summary["unperturbed"][fam]
        f0[fam] = (info["model"], _fit_params(info))
        if c0[fam].size != t.size or base_b[fam].size != spec["d"] - 1:
            problems["unperturbed.C"].append(
                f"{fam}: {c0[fam].size} samples and {base_b[fam].size} "
                f"coefficients, expected {t.size} and {spec['d'] - 1}")
            continue
        err = np.abs(oracle_correlation(base_b[fam], t) - c0[fam]).max()
        if not err <= C_TOL:
            problems["unperturbed.C"].append(f"{fam}: max |dC| = {err:.3g}")
        n_eq, eq = equilibration(c0[fam], *eq_args)
        if (n_eq, eq) != (info["n_eq"], info["equilibrated"]):
            problems["unperturbed.fit"].append(
                f"{fam}: n_eq {info['n_eq']}/{info['equilibrated']}, "
                f"recomputed {n_eq}/{eq}")
        eps = rms(c0[fam] - model_curve(*f0[fam], t), n_eq)
        if not _close(eps, info["epsilon"]):
            problems["unperturbed.fit"].append(
                f"{fam}: epsilon {info['epsilon']!r}, recomputed {eps!r}")
    if problems["unperturbed.C"]:
        return problems

    by_key = {}
    for rec in records:
        by_key[(rec["family"], int(rec["trial"]))] = rec
    for index, fam in enumerate(families):
        trials = sorted(int(r["trial"]) for r in records if r["family"] == fam)
        if trials != list(range(n_trials)):
            problems["records.count"].append(
                f"{fam}: {len(trials)} records, expected trials 0..{n_trials - 1}")
        for trial in trials:
            rec = by_key[(fam, trial)]
            expected = trial_seed(spec["base_seed"], index, trial)
            if int(rec["seed"]) != expected:
                problems["records.seed"].append(
                    f"{fam} trial {trial}: seed {rec['seed']}, expected {expected}")
    if len(by_key) != len(records) or {r["family"] for r in records} - set(families):
        problems["records.count"].append("duplicate or foreign records")

    for rec in records:
        fam, n_eq = rec["family"], int(rec["n_eq"])
        tag = f"{fam} trial {rec['trial']}"
        if fam not in families:
            continue
        if not 1 <= n_eq < t.size:
            problems["records.eps0"].append(f"{tag}: n_eq {n_eq} outside the series")
            continue
        eps, sig, eps0 = (float(rec[k]) for k in ("epsilon", "sigma", "eps0"))
        want = rms(c0[fam] - model_curve(*f0[fam], t), n_eq)
        if not _close(eps0, want):
            problems["records.eps0"].append(f"{tag}: eps0 {eps0!r}, recomputed {want!r}")
        if not eps <= sig + eps0 + EDGE_TOL:
            problems["records.edge"].append(
                f"{tag}: epsilon {eps:.6g} > sigma {sig:.6g} + eps0 {eps0:.6g}")

    for fam in families:
        fam_recs = [r for r in records if r["family"] == fam]
        valid = [float(r["epsilon"]) for r in fam_recs if r["valid"] == "1"]
        got = summary["families"].get(fam)
        if got is None or not valid:
            problems["summary.means"].append(f"{fam}: no summary or no valid trial")
            continue
        noneq = sum(r["equilibrated"] == "0" for r in fam_recs)
        if not _close(got["mean_epsilon"], float(np.mean(valid)), 1e-12) \
                or got["n_valid"] != len(valid) or got["n_nonequilibrated"] != noneq:
            problems["summary.means"].append(
                f"{fam}: summary {got['mean_epsilon']!r}/{got['n_valid']}/"
                f"{got['n_nonequilibrated']}, records {np.mean(valid)!r}/"
                f"{len(valid)}/{noneq}")

    curves: dict[tuple[str, int], list] = {}
    for row in _rows(path("curves.csv")):
        curves.setdefault((row["family"], int(row["trial"])), []).append(
            (float(row["t"]), float(row["C"]), float(row["fit"])))
    for fam in families:
        count = sum(1 for key in curves if key[0] == fam)
        if count != min(EXEMPLARS, n_trials):
            problems["exemplar.count"].append(f"{fam}: {count} exemplar trials")
    for (fam, trial), samples in curves.items():
        rec = by_key.get((fam, trial))
        tag = f"{fam} trial {trial}"
        data = np.array(samples)
        if rec is None or data.shape[0] != t.size or np.abs(data[:, 0] - t).max() > 1e-9:
            problems["exemplar.count"].append(f"{tag}: no record or wrong time grid")
            continue
        c = data[:, 1]
        b = _rebuild_chain(base_b[fam], spec, int(rec["seed"]))
        err = np.abs(oracle_correlation(b, t) - c).max()
        if not err <= C_TOL:
            problems["exemplar.C"].append(f"{tag}: max |dC| = {err:.3g}")
        n_eq, eq = equilibration(c, *eq_args)
        fit_vals = model_curve(rec["model"], _params(rec), t)
        bad = problems["exemplar.quantifiers"]
        if (int(rec["n_eq"]), rec["equilibrated"] == "1") != (n_eq, eq):
            bad.append(f"{tag}: n_eq {rec['n_eq']}/{rec['equilibrated']}, "
                       f"recomputed {n_eq}/{eq}")
            continue
        for key, mine in (("epsilon", rms(c - fit_vals, n_eq)),
                          ("sigma", rms(c - c0[fam], n_eq))):
            if not _close(float(rec[key]), mine):
                bad.append(f"{tag}: {key} {rec[key]}, recomputed {mine!r}")
        fit_err = np.abs(data[:, 2] - fit_vals).max()
        if not fit_err <= 1e-12:
            bad.append(f"{tag}: fit column off by {fit_err:.3g}")
    return problems


def family_means(records_csv: str) -> dict[str, float]:
    """Mean epsilon of the valid trials per family."""
    records = _rows(records_csv)
    means = {}
    for fam in dict.fromkeys(r["family"] for r in records):
        valid = [float(r["epsilon"]) for r in records
                 if r["family"] == fam and r["valid"] == "1"]
        means[fam] = float(np.mean(valid)) if valid else float("nan")
    return means


def decay_physics(means: dict) -> list[str]:
    """Acceptance criterion 08: exponential decay stays fittable, Gaussian not."""
    e, g = means["e"], means["g"]
    if e < 0.01 and g / e >= 5.0:
        return []
    return [f"mean eps_e {e:.4g} (need < 0.01), eps_g/eps_e {g / e:.3g} (need >= 5)"]


def oscillation_physics(means: dict) -> list[str]:
    """Acceptance criterion 09: exponential damping is the more stable one."""
    ratio = means["gdo"] / means["edo"]
    return [] if ratio >= 2.0 else [f"eps_gdo/eps_edo {ratio:.3g} (need >= 2)"]
