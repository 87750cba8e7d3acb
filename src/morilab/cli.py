"""Command-line front end: design, propagate, reverse, perturb, fit, run, plot.

`run` composes the others into a full scenario and emits CSV + SVG + a
manifest with file digests; `plot` re-renders the SVGs from the run's
summary.json and CSVs, byte-identically for a given tool version.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import re
import sys
import time
from dataclasses import fields as dataclass_fields

import numpy as np
import scipy

from . import __version__
from .chain import (CUT_TOL, CorrelationSeries, LanczosChain, PropagationError,
                    propagate)
from .design import (exponential_chain, gaussian_chain, linear_continuation,
                     oscillating_pair)
from .experiment import (Scenario, ScenarioConfig, TrialRecord,
                         histogram_to_csv, records_from_csv, records_to_csv,
                         run_scenario, scatter_to_csv, worker_count)
from .fitting import (EQ_THRESHOLD, EQ_WINDOW, ModelClass,
                      detect_equilibration, fit)
from .perturb import apply_draw, draw_noise
from .reverse import (AnalyticCorrelation, QuadratureError,
                      fourier_of_correlation, lanczos_from_spectrum)
from .svgplot import COLORS, Figure, family_color

RNG_NOTE = ("numpy PCG64 via default_rng; per-trial seeds from "
            "SeedSequence(base_seed, spawn_key=(family_index, trial))")

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
CHAIN_POINTS = 1200  # at most about this many coefficients drawn per chain
CURVE_POINTS = 1500  # at most about this many samples per C(t), written or drawn

log = logging.getLogger("morilab")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# analytic target grammar: products of exp(a t), exp(a t^2), cos(b t)
# ---------------------------------------------------------------------------

_EXP_INNER = re.compile(
    r"^(?P<coef>[+-]?(?:\d+\.?\d*|\.\d+)?)\*?t(?P<sq>\^2)?(?:/(?P<den>\d+\.?\d*))?$")
_COS_INNER = re.compile(r"^(?P<coef>[+-]?(?:\d+\.?\d*|\.\d+)?)\*?t$")


def _split_factors(expr: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p for p in parts if p]


def _coef(text: str) -> float:
    if text in ("", "+"):
        return 1.0
    if text == "-":
        return -1.0
    return float(text)


def parse_target(expr: str) -> AnalyticCorrelation:
    """Parse a closed-grammar correlation target like exp(-t^2/8)*cos(2t)."""
    cleaned = expr.replace(" ", "")
    gauss = exp_r = 0.0
    cos_f = None
    for factor in _split_factors(cleaned):
        if factor.startswith("exp(") and factor.endswith(")"):
            m = _EXP_INNER.match(factor[4:-1])
            if not m:
                raise ConfigError(f"cannot parse exponential factor {factor!r}")
            rate = _coef(m.group("coef"))
            if m.group("den"):
                rate /= float(m.group("den"))
            if m.group("sq"):
                gauss += rate
            else:
                exp_r += rate
        elif factor.startswith("cos(") and factor.endswith(")"):
            m = _COS_INNER.match(factor[4:-1])
            if not m:
                raise ConfigError(f"cannot parse cosine factor {factor!r}")
            if cos_f is not None:
                raise ConfigError("at most one cosine factor is supported")
            cos_f = abs(_coef(m.group("coef")))
        else:
            raise ConfigError(
                f"unsupported factor {factor!r}; grammar: exp(a t), exp(a t^2), cos(b t)")
    try:
        return AnalyticCorrelation(gauss_rate=gauss, exp_rate=exp_r,
                                   cos_freq=cos_f or 0.0)
    except ValueError as err:
        raise ConfigError(str(err)) from err


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {f.name for f in dataclass_fields(ScenarioConfig)}


def parse_config(path: str | None, overrides: dict) -> ScenarioConfig:
    """Structured JSON config (or a manifest) merged with flag overrides."""
    data: dict = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"malformed config {path}: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object, not "
                              f"{type(data).__name__}")
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if "scenario" not in merged:
        raise ConfigError("missing required key: scenario")
    try:
        return ScenarioConfig(**merged)
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err


# ---------------------------------------------------------------------------
# rendering from flat files (shared by `run` and `plot`)
# ---------------------------------------------------------------------------

def _read_csv_rows(path) -> list[list[str]]:
    """A CSV file's rows below its header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def render_histogram_svg(families: dict, out_path) -> None:
    """summary.json's "families": each one's histogram and mean epsilon."""
    bins = [(right, count) for info in families.values() for right, count
            in zip(info["histogram"]["edges"][1:], info["histogram"]["counts"])]
    xmax = max((right for right, count in bins if count > 0), default=1.0)
    ymax = max((count for _, count in bins), default=1)
    fig = Figure(title="deviation histogram", xlabel="epsilon",
                 ylabel="count per bin")
    fig.set_limits((0.0, xmax * 1.05), (0.0, ymax * 1.1))
    for i, (fam, info) in enumerate(families.items()):
        h = info["histogram"]
        fig.bars(h["edges"][:-1], h["edges"][1:], h["counts"],
                 family_color(fam, i), label=fam)
        mean = info["mean_epsilon"]
        if math.isfinite(mean):
            fig.vline(mean, family_color(fam, i),
                      label=f"mean {fam} = {mean:.4g}")
    fig.save(out_path)


def render_scatter_svg(records: list[TrialRecord], out_path) -> None:
    """Failed trials (NaN sigma or epsilon) keep their rows but are not drawn."""
    pts = [r for r in records
           if math.isfinite(r.sigma) and math.isfinite(r.epsilon)]
    fams = list(dict.fromkeys(r.family for r in pts))
    lim = max([r.sigma for r in pts] + [r.epsilon for r in pts] + [1e-4]) * 1.08
    fig = Figure(title="alteration vs deviation", xlabel="sigma",
                 ylabel="epsilon")
    fig.set_limits((0.0, lim), (0.0, lim))
    fig.polyline([0.0, lim], [0.0, lim], COLORS["ref"], dash="4,4",
                 label="diagonal")
    for i, fam in enumerate(fams):
        sel = [r for r in pts if r.family == fam]
        fig.scatter([r.sigma for r in sel], [r.epsilon for r in sel],
                    family_color(fam, i), label=fam)
    fig.save(out_path)


def render_chains_svg(chains: dict[str, LanczosChain], out_path) -> None:
    fig = Figure(title="chain coefficients", xlabel="n", ylabel="b_n")
    xmax = ymax = 1.0
    for chain in chains.values():
        xmax = max(xmax, chain.d - 1)
        ymax = max(ymax, chain.b.max())
    fig.set_limits((0.0, xmax * 1.02), (0.0, ymax * 1.05))
    for i, (fam, chain) in enumerate(chains.items()):
        stride = max(1, chain.b.size // CHAIN_POINTS)
        fig.polyline(np.arange(1, chain.d)[::stride], chain.b[::stride],
                     family_color(fam, i), label=fam)
    fig.save(out_path)


def render_curves_svg(rows, family: str, out_path) -> None:
    """One family's rows of curves.csv."""
    trials = list(dict.fromkeys(r[1] for r in rows))
    fig = Figure(title=f"exemplary perturbed dynamics ({family})",
                 xlabel="t", ylabel="C(t)")
    tmax = max((float(r[2]) for r in rows), default=1.0)
    cvals = [float(r[3]) for r in rows] + [float(r[4]) for r in rows]
    lo, hi = min(cvals + [0.0]), max(cvals + [1.0])
    fig.set_limits((0.0, tmax), (lo * 1.05, hi * 1.05))
    shades = ("#c02020", "#2040c0", "#208040")
    for i, trial in enumerate(trials):
        sel = [r for r in rows if r[1] == trial]
        t = [float(r[2]) for r in sel]
        fig.polyline(t, [float(r[3]) for r in sel], shades[i % 3],
                     label=f"trial {trial}")
        fig.polyline(t, [float(r[4]) for r in sel], COLORS["fit"], width=1.0,
                     dash="5,3")
    fig.save(out_path)


def render_unperturbed_svg(series: dict[str, CorrelationSeries], fits: dict,
                           out_path) -> None:
    """Each baseline C(t) with its fit from `fits`, summary.json's
    "unperturbed"."""
    fig = Figure(title="unperturbed dynamics", xlabel="t", ylabel="C(t)")
    tmax, lo = 1.0, 0.0
    for c in series.values():
        tmax = max(tmax, float(c.t[-1]))
        lo = min(lo, float(c.values.min()))
    fig.set_limits((0.0, tmax), (lo * 1.1 - 0.02, 1.05))
    for i, (fam, c) in enumerate(series.items()):
        stride = max(1, len(c) // CURVE_POINTS)
        t = c.t[::stride]
        fig.polyline(t, c.values[::stride], family_color(fam, i), label=fam)
        info = fits[fam]
        params = (info["A"], info["mu"], info["omega"], info["phi"])
        fig.polyline(t, ModelClass(info["model"]).curve(params, t),
                     COLORS["fit"], width=1.0, dash="5,3", label=f"{fam} fit")
    fig.save(out_path)


# ---------------------------------------------------------------------------
# run outputs
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_curves_csv(config: ScenarioConfig, summary, path) -> None:
    """Dump the exemplary trials' C(t), as the ensemble propagated it, + fit."""
    with open(path, "w", newline="") as fh:
        fh.write("family,trial,t,C,fit\n")
        for name, exemplars in summary.exemplars.items():
            for rec, values in exemplars:
                fit_vals = ModelClass(rec.model).curve(
                    (rec.a, rec.mu, rec.omega, rec.phi),
                    np.arange(values.size) * config.dt)
                stride = max(1, values.size // CURVE_POINTS)
                for n in range(0, values.size, stride):
                    fh.write(f"{name},{rec.trial},{n * config.dt:.17g},"
                             f"{values[n]:.17g},{fit_vals[n]:.17g}\n")


def emit_run_outputs(config: ScenarioConfig, records, summary, out_dir,
                     duration: float) -> dict:
    """Write every CSV/SVG/manifest artifact for a finished scenario run.

    Writes only what `run_scenario` handed over: the records and the
    summary with its family baselines and exemplar trials.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    emitted = []

    records_to_csv(records, path("records.csv"))
    emitted.append("records.csv")
    histogram_to_csv(summary, path("histogram.csv"))
    emitted.append("histogram.csv")
    scatter_to_csv(records, path("scatter.csv"))
    emitted.append("scatter.csv")

    unperturbed = {}
    for name, run in summary.runs.items():
        run.chain.to_csv(path(f"chain_{name}.csv"))
        emitted.append(f"chain_{name}.csv")
        run.baseline.to_csv(path(f"unperturbed_{name}.csv"))
        emitted.append(f"unperturbed_{name}.csv")
        c0 = run.baseline
        unperturbed[name] = {**run.baseline_fit.to_json_dict(),
                             "equilibrated": run.equilibrated,
                             "lam": c0.lam, "moments": c0.moments,
                             "sites": c0.sites, "cut_bound": c0.cut_bound}

    summary_doc = {**summary.to_json_dict(), "config": config.to_json_dict(),
                   "unperturbed": unperturbed}
    with open(path("summary.json"), "w") as fh:
        json.dump(summary_doc, fh, indent=1, sort_keys=True)
    emitted.append("summary.json")

    _write_curves_csv(config, summary, path("curves.csv"))
    emitted.append("curves.csv")

    emitted.extend(render_all(out_dir))

    manifest = {
        "tool": "morilab",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "engine": "/".join(sorted({run.baseline.method
                                   for run in summary.runs.values()})),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": worker_count(config),
        "rng": RNG_NOTE,
        "config": config.to_json_dict(),
        "duration_seconds": round(duration, 3),
        "outputs": {name: _sha256(path(name)) for name in sorted(set(emitted))},
    }
    with open(path("manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def render_all(out_dir) -> list[str]:
    """(Re)draw the SVGs of the run whose summary.json is in out_dir, for
    the families it names, reading each input once; returns their names."""
    path = lambda name: os.path.join(out_dir, name)
    with open(path("summary.json")) as fh:
        summary = json.load(fh)
    fams = sorted(summary["unperturbed"])
    curves: dict[str, list] = {}
    for row in _read_csv_rows(path("curves.csv")):
        curves.setdefault(row[0], []).append(row)
    figures = {
        "histogram.svg": (render_histogram_svg, summary["families"]),
        "scatter.svg": (render_scatter_svg,
                        records_from_csv(path("records.csv"))),
        "chains.svg": (render_chains_svg, {
            f: LanczosChain.from_csv(path(f"chain_{f}.csv")) for f in fams}),
        "unperturbed.svg": (render_unperturbed_svg, {
            f: CorrelationSeries.from_csv(path(f"unperturbed_{f}.csv"))
            for f in fams}, summary["unperturbed"]),
        **{f"exemplar_{f}.svg": (render_curves_svg, rows, f)
           for f, rows in curves.items()},
    }
    for name, (render, *data) in figures.items():
        render(*data, path(name))
    return list(figures)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_design(args) -> int:
    d = args.d
    if args.family == "gaussian":
        chain = gaussian_chain(args.nstar, d)
    elif args.family == "exponential":
        chain = exponential_chain(args.a, args.nstar, d)
    else:
        gdo, edo = oscillating_pair(args.nmax, d, args.b1, args.b2)
        chain = gdo if args.family == "gdo" else edo
    chain.to_csv(args.out)
    if args.json:
        chain.to_json(args.json)
    print(f"wrote {args.out} ({chain.d - 1} coefficients, family {args.family})")
    return 0


def _cmd_propagate(args) -> int:
    chain = LanczosChain.from_csv(args.chain)
    series = propagate(chain, dt=args.dt, t_max=args.tmax)
    series.to_csv(args.out)
    print(f"wrote {args.out} ({len(series)} samples, drift "
          f"{series.norm_drift_max:.2e}, {series.sites} sites, cut bound "
          f"{series.cut_bound:.1e})")
    return 0


def _cmd_reverse(args) -> int:
    if args.target:
        density = fourier_of_correlation(parse_target(args.target), n_max=args.nmax)
    else:
        density = fourier_of_correlation(CorrelationSeries.from_csv(args.series),
                                         n_max=args.nmax)
    result = lanczos_from_spectrum(density, args.nmax)
    LanczosChain(result.b).to_csv(args.out)
    result.sidecar(args.out + ".meta.json")
    print(f"wrote {args.out} ({result.achieved}/{result.requested} coefficients; "
          f"{result.stop_reason})")
    if args.continue_to:
        cont = linear_continuation(result.b, args.continue_to, label="continued")
        cont.chain.to_csv(args.chain_out)
        print(f"wrote {args.chain_out} (d={args.continue_to}, tail slope "
              f"{cont.slope:.5g})")
    return 0


def _cmd_perturb(args) -> int:
    chain = LanczosChain.from_csv(args.chain)
    n_f = args.nf if args.nf is not None else chain.d // 3
    draw = draw_noise(chain.d, n_f, args.seed)
    pert = apply_draw(chain, args.lam, draw)
    pert.chain.to_csv(args.out)
    if args.draw_json:
        draw.to_json(args.draw_json)
    print(f"wrote {args.out} (clamped {pert.clamp_count} entries"
          f"{', INVALID draw' if pert.invalid else ''})")
    return 0


def _cmd_fit(args) -> int:
    series = CorrelationSeries.from_csv(args.series)
    n_eq, equilibrated = detect_equilibration(series, args.threshold, args.window)
    result = fit(series, ModelClass(args.model), n_eq)
    result.to_json(args.out)
    print(f"wrote {args.out} (epsilon={result.epsilon:.5g}, n_eq={n_eq}, "
          f"equilibrated={equilibrated})")
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config, {k: v for k, v in vars(args).items()
                                        if k in _CONFIG_KEYS})
    t0 = time.time()

    def progress(done, total):
        log.info("trials %d/%d", done, total)

    records, summary = run_scenario(config, progress=progress)
    for name, run in summary.runs.items():
        if not run.baseline.cut_bound <= CUT_TOL:
            log.warning("baseline %s: cut bound %.3g exceeds %.0e, so C(t) is "
                        "not certified on [0, t_max]; the chain may be too "
                        "short for the horizon", name, run.baseline.cut_bound,
                        CUT_TOL)
    manifest = emit_run_outputs(config, records, summary, args.out,
                                time.time() - t0)
    for name, fam in summary.families.items():
        print(f"{name}: mean epsilon = {fam.mean_epsilon:.5g}, "
              f"mean sigma = {fam.mean_sigma:.5g}, valid {fam.n_valid}, "
              f"non-equilibrated {fam.n_nonequilibrated}")
    print(f"wrote {len(manifest['outputs'])} files to {args.out}")
    for failure in summary.failures:
        print(f"numerical failure: {failure['family']} trial "
              f"{failure['trial']}: {failure['error']}", file=sys.stderr)
    return EXIT_NUMERIC if summary.failures else 0


def _cmd_plot(args) -> int:
    made = render_all(args.src)
    print(f"re-rendered {', '.join(made)} in {args.src}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morilab",
        description="Mori-chain relaxation-stability laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit a designed coefficient chain")
    p.add_argument("--family", required=True,
                   choices=["gaussian", "exponential", "gdo", "edo"])
    p.add_argument("--nstar", type=int, default=10)
    p.add_argument("--a", type=float, default=1.2)
    p.add_argument("--b1", type=float, default=2.0)
    p.add_argument("--b2", type=float, default=1.6)
    p.add_argument("--nmax", type=int, default=50)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("propagate", help="chain -> correlation series")
    p.add_argument("--chain", required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("reverse", help="correlation target -> coefficients")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--target", help="e.g. \"exp(-t^2/8)*cos(2t)\"")
    src.add_argument("--series", help="sampled C(t) CSV")
    p.add_argument("--nmax", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--continue-to", type=int, default=None, dest="continue_to")
    p.add_argument("--chain-out", default="chain_continued.csv")
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("perturb", help="apply one seeded draw to a chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--nf", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--draw-json", default=None)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("fit", help="series -> best within-class fit")
    p.add_argument("--series", required=True)
    p.add_argument("--model", required=True,
                   choices=[m.value for m in ModelClass])
    p.add_argument("--threshold", type=float, default=EQ_THRESHOLD)
    p.add_argument("--window", type=float, default=EQ_WINDOW)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("run", help="full scenario ensemble")
    p.add_argument("--scenario", choices=[s.value for s in Scenario])
    p.add_argument("--profile", choices=["desk", "paper"], default=None)
    p.add_argument("--config", default=None, help="JSON config or manifest")
    # each flag's dest is the config key it overrides
    p.add_argument("--d", type=int)
    p.add_argument("--nf", type=int, dest="n_f")
    p.add_argument("--trials", type=int, dest="n_trials")
    p.add_argument("--lambda", type=float, dest="strength")
    p.add_argument("--dt", type=float)
    p.add_argument("--tmax", type=float, dest="t_max")
    p.add_argument("--seed", type=int, dest="base_seed")
    p.add_argument("--nstar", type=int, dest="n_star")
    p.add_argument("--workers", type=int)
    p.add_argument("--out", default="morilab-run")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("plot", help="re-render SVGs from emitted CSV")
    p.add_argument("--from", required=True, dest="src")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # progress goes to stderr unless the caller set the logger's level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("  %(message)s"))
    log.addHandler(handler)
    level = log.level
    if level == logging.NOTSET:
        log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (PropagationError, QuadratureError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
