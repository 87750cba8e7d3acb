"""Command-line front end: design, propagate, reverse, perturb, fit, run, plot.

`run` composes the others into a full scenario and emits CSV + SVG + a
manifest with file digests, drawing the SVGs from the values it holds;
`plot` reads the run's summary.json and CSVs back, checks them, and
redraws the SVGs, byte-identically for a given tool version.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
import time
from array import array
from dataclasses import asdict, fields as dataclass_fields
from itertools import repeat

import numpy as np

from . import __version__
from .chain import (CUT_TOL, CorrelationSeries, LanczosChain, finite,
                    propagate, read_csv, write_csv)
from .experiment import (MAX_BINS, Scenario, ScenarioConfig, TrialRecord,
                         build_families, run_scenario, usable_cpus,
                         worker_count)
from .fitting import (EQ_THRESHOLD, EQ_WINDOW, ModelClass,
                      detect_equilibration, fit)
from .perturb import apply_draw, draw_noise
from .reverse import (AnalyticCorrelation, fourier_of_correlation,
                      lanczos_from_spectrum)
from .svgplot import COLORS, PALETTE, Figure, family_color

RNG_NOTE = ("numpy PCG64 via default_rng; per-trial seeds from "
            "SeedSequence(base_seed, spawn_key=(family_index, trial))")

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# the stride max(1, size // N) keeps N to 2N - 1 points of an array of N or
# more, and all of a shorter one
CHAIN_POINTS = 1200  # N for the coefficients drawn per chain
CURVE_POINTS = 1500  # N for the samples per C(t), written or drawn
CURVES_HEADER = ["family", "trial", "t", "C", "fit"]

log = logging.getLogger("morilab")


# ---------------------------------------------------------------------------
# analytic target grammar: products of exp(a t^2) and one cos(b t)
# ---------------------------------------------------------------------------

# one factor: exp(a t^2), optionally over a divisor, or cos(b t); an omitted
# coefficient a or b is 1 and keeps its sign, and a given one may carry an
# exponent, as in 1e-7
_FACTOR = re.compile(
    r"(?:(?P<exp>exp)|cos)\((?P<sign>[+-]?)"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\*?t"
    r"(?(exp)\^2(?:/(?P<den>\d+\.?\d*))?)\)")


def parse_target(expr: str) -> AnalyticCorrelation:
    """Parse a closed-grammar correlation target like exp(-t^2/8)*cos(2t):
    `_FACTOR`s joined by single `*`s, at most one of them a cosine; spaces
    are ignored."""
    cleaned = expr.replace(" ", "")
    factors = list(_FACTOR.finditer(cleaned))
    if not factors or "*".join(m[0] for m in factors) != cleaned:
        raise ValueError(f"cannot parse target {expr!r}; grammar: factors "
                         "exp(a t^2), optionally over /n, and one cos(b t), "
                         "joined by single *s")
    gauss = 0.0
    cos_f = None
    for m in factors:
        den = float(m["den"] or 1)
        if den == 0:
            raise ValueError(f"zero divisor in {m[0]!r}")
        rate = float(m["sign"] + (m["num"] or "1")) / den
        if m["exp"] is None:
            if cos_f is not None:
                raise ValueError("at most one cosine factor is supported")
            cos_f = abs(rate)
        else:
            gauss += rate
    return AnalyticCorrelation(gauss_rate=gauss, cos_freq=cos_f or 0.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {f.name for f in dataclass_fields(ScenarioConfig)}


def parse_config(path: str | None, overrides: dict) -> ScenarioConfig:
    """Structured JSON config (or a manifest) merged with flag overrides."""
    data: dict = {}
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"malformed config {path}: {err}") from err
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must be a JSON object, not "
                             f"{type(data).__name__}")
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if "scenario" not in merged:
        raise ValueError("missing required key: scenario")
    try:
        return ScenarioConfig(**merged)
    except TypeError as err:  # e.g. an unhashable profile
        raise ValueError(str(err)) from err


# ---------------------------------------------------------------------------
# figures, drawn from plain values: `run` passes what it holds, `plot`
# what `read_run` read back from a run directory and checked
# ---------------------------------------------------------------------------

def render_histogram_svg(families: dict) -> str:
    """Each family's histogram bins (left, right, count) and mean epsilon."""
    bins = [row for rows, _ in families.values() for row in rows]
    xmax = max((right for _, right, count in bins if count > 0), default=1.0)
    ymax = max((count for *_, count in bins), default=1)
    fig = Figure((0.0, xmax * 1.05), (0.0, ymax * 1.1),
                 title="deviation histogram", xlabel="epsilon",
                 ylabel="count per bin")
    for i, (fam, (rows, mean)) in enumerate(families.items()):
        fig.bars(*zip(*rows), family_color(fam, i), label=fam)
        if math.isfinite(mean):
            fig.vline(mean, family_color(fam, i),
                      label=f"mean {fam} = {mean:.4g}")
    return fig.render()


def render_scatter_svg(records: list[TrialRecord]) -> str:
    """Failed trials (NaN sigma or epsilon) keep their rows but are not drawn."""
    pts: dict[str, list] = {}
    for r in records:
        if math.isfinite(r.sigma) and math.isfinite(r.epsilon):
            pts.setdefault(r.family, []).append((r.sigma, r.epsilon))
    lim = max([1e-4, *(max(p) for pairs in pts.values() for p in pairs)]) * 1.08
    fig = Figure((0.0, lim), (0.0, lim), title="alteration vs deviation",
                 xlabel="sigma", ylabel="epsilon")
    fig.polyline([0.0, lim], [0.0, lim], COLORS["ref"], dash="4,4",
                 label="diagonal")
    for i, (fam, pairs) in enumerate(pts.items()):
        fig.scatter(*zip(*pairs), family_color(fam, i), label=fam)
    return fig.render()


def render_chains_svg(chains: dict[str, LanczosChain]) -> str:
    xmax = max([1.0, *(chain.d - 1 for chain in chains.values())])
    ymax = max([1.0, *(chain.b.max() for chain in chains.values())])
    fig = Figure((0.0, xmax * 1.02), (0.0, ymax * 1.05),
                 title="chain coefficients", xlabel="n", ylabel="b_n")
    for i, (fam, chain) in enumerate(chains.items()):
        stride = max(1, chain.b.size // CHAIN_POINTS)
        fig.polyline(np.arange(1, chain.d)[::stride], chain.b[::stride],
                     family_color(fam, i), label=fam)
    return fig.render()


def render_curves_svg(trials: dict, family: str) -> str:
    """One family's exemplary trials, each as the (t, C, fit) rows of one
    array, as curves.csv holds them."""
    tmax = max(cols[0].max() for cols in trials.values())
    lo = min([*(cols[1:].min() for cols in trials.values()), 0.0])
    hi = max([*(cols[1:].max() for cols in trials.values()), 1.0])
    fig = Figure((0.0, tmax), (lo * 1.05, hi * 1.05),
                 title=f"exemplary perturbed dynamics ({family})",
                 xlabel="t", ylabel="C(t)")
    for i, (trial, (t, c, fit_vals)) in enumerate(trials.items()):
        fig.polyline(t, c, PALETTE[i % len(PALETTE)], label=f"trial {trial}")
        fig.polyline(t, fit_vals, COLORS["fit"], width=1.0, dash="5,3")
    return fig.render()


def render_unperturbed_svg(series: dict[str, CorrelationSeries],
                           fits: dict) -> str:
    """Each baseline C(t) with its fit from `fits`: (model class, params)."""
    tmax = max([1.0, *(float(c.t[-1]) for c in series.values())])
    lo = min([0.0, *(float(c.values.min()) for c in series.values())])
    fig = Figure((0.0, tmax), (lo * 1.1 - 0.02, 1.05),
                 title="unperturbed dynamics", xlabel="t", ylabel="C(t)")
    for i, (fam, c) in enumerate(series.items()):
        stride = max(1, len(c) // CURVE_POINTS)
        t = c.t[::stride]
        fig.polyline(t, c.values[::stride], family_color(fam, i), label=fam)
        kind, params = fits[fam]
        fig.polyline(t, kind.curve(params, t),
                     COLORS["fit"], width=1.0, dash="5,3", label=f"{fam} fit")
    return fig.render()


# ---------------------------------------------------------------------------
# run outputs
# ---------------------------------------------------------------------------

def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"flag cell {cell!r} is not 0 or 1")
    return cell == "1"


# TrialRecord's fields, in order, are the records.csv columns; a field's
# annotation picks how its cells are read
_CELLS = {
    "int": int,
    "str": str,
    "bool": _flag,
    "float": float,
    "float | None": lambda cell: None if cell == "" else float(cell),
}


def records_to_csv(records, path) -> None:
    """A flag is written as 0 or 1, every other field as csv writes it."""
    cols = dataclass_fields(TrialRecord)
    write_csv(path, [f.name for f in cols],
              ([int(getattr(r, f.name)) if f.type == "bool"
                else getattr(r, f.name) for f in cols] for r in records))


def records_from_csv(path) -> list[TrialRecord]:
    cols = dataclass_fields(TrialRecord)
    return [TrialRecord(*row) for row in read_csv(
        path, [f.name for f in cols], [_CELLS[f.type] for f in cols])]


def histogram_rows(records, bin_width: float) -> list[tuple]:
    """(bin_left, bin_right, family, count) rows: each family's epsilon of
    its valid trials in left-closed bins anchored at zero, families in the
    order of their first record.  A family with no valid trial gets one
    empty bin, and one that needs more than MAX_BINS bins is refused."""
    if not 0 < bin_width < math.inf:
        raise ValueError("bin_width must be positive and finite")
    rows = []
    for name in dict.fromkeys(r.family for r in records):
        eps = np.array([r.epsilon for r in records
                        if r.family == name and r.valid])
        if eps.size and eps.min() < 0:
            raise ValueError("histogram values must be nonnegative")
        if eps.size and not eps.max() / bin_width < MAX_BINS:
            raise ValueError(f"{name}: epsilon {eps.max():g} in bins of "
                             f"{bin_width:g} needs more than {MAX_BINS} bins")
        counts = np.bincount(np.floor(eps / bin_width).astype(int),
                             minlength=1)
        edges = (np.arange(counts.size + 1) * bin_width).tolist()
        rows += zip(edges[:-1], edges[1:], repeat(name), counts.tolist())
    return rows


def _sha256(path) -> str:
    # the interpreter's own SHA-256 (_sha2 from 3.12, _sha256 before),
    # imported here, once every file of a run is written: hashlib, the
    # fallback, maps OpenSSL, which no step of a run needs
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    h = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _exemplar_curves(rec: TrialRecord, values: np.ndarray,
                     dt: float) -> np.ndarray:
    """A trial's C(t), as the ensemble propagated it, and its fit: the
    (t, C, fit) rows that curves.csv holds, every stride-th sample."""
    t = np.arange(values.size) * dt
    fit_vals = ModelClass(rec.model).curve((rec.A, rec.mu, rec.omega, rec.phi),
                                           t)
    stride = max(1, values.size // CURVE_POINTS)
    return np.stack([col[::stride] for col in (t, values, fit_vals)])


def _curves_rows(exemplars: dict):
    """curves.csv's rows, one at a time, from each family's exemplars."""
    for name, trials in exemplars.items():
        for trial, cols in trials.items():
            for cells in zip(*cols.tolist()):
                yield name, trial, *cells


def emit_run_outputs(config: ScenarioConfig, records, summary, out_dir,
                     duration: float) -> dict:
    """Write every CSV/SVG/manifest artifact for a finished scenario run.

    Writes only what `run_scenario` handed over: the records and the
    summary with its family baselines and exemplar trials.  The figures
    are drawn from those values, not from the files; the digests are taken
    once every file is written.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    emitted = ["records.csv", "histogram.csv", "scatter.csv", "summary.json",
               "curves.csv"]

    records_to_csv(records, path("records.csv"))
    hist_rows = histogram_rows(records, config.bin_width)
    write_csv(path("histogram.csv"),
              ["bin_left", "bin_right", "family", "count"], hist_rows)
    write_csv(path("scatter.csv"), ["family", "sigma", "epsilon"],
              ((r.family, r.sigma, r.epsilon) for r in records))

    runs = dict(sorted(summary.runs.items()))   # the order `plot` reads
    unperturbed = {}
    for name, run in runs.items():
        run.chain.to_csv(path(f"chain_{name}.csv"))
        run.baseline.to_csv(path(f"unperturbed_{name}.csv"))
        emitted += [f"chain_{name}.csv", f"unperturbed_{name}.csv"]
        c0 = run.baseline
        unperturbed[name] = {**run.baseline_fit.to_json_dict(),
                             "equilibrated": run.equilibrated,
                             "lam": c0.lam, "moments": c0.moments,
                             "sites": c0.sites, "cut_bound": c0.cut_bound}

    doc = {"config": config.to_json_dict(),
           "families": {name: asdict(fam)
                        for name, fam in summary.families.items()},
           "failures": summary.failures,
           "unperturbed": unperturbed}
    _write_json(path("summary.json"), doc)
    # a family with no valid trial has no exemplar, and no exemplar figure
    exemplars = {name: {rec.trial: _exemplar_curves(rec, values, config.dt)
                        for rec, values in pairs}
                 for name, pairs in summary.exemplars.items() if pairs}
    write_csv(path("curves.csv"), CURVES_HEADER, _curves_rows(exemplars))
    emitted += render_all(
        out_dir, _histograms(hist_rows, {name: fam.mean_epsilon for name, fam
                                         in sorted(summary.families.items())}),
        records, {f: run.chain for f, run in runs.items()},
        {f: run.baseline for f, run in runs.items()},
        {f: _baseline_fit(entry) for f, entry in unperturbed.items()},
        exemplars)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "tool": "morilab",
        "version": __version__,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "engine": "moments",
        "nproc": usable_cpus(),
        "workers": worker_count(config),
        "rng": RNG_NOTE,
        "config": config.to_json_dict(),
        "duration_seconds": round(duration, 3),
        "outputs": {name: _sha256(path(name)) for name in sorted(set(emitted))},
    }
    _write_json(path("manifest.json"), manifest)
    return manifest


def _number(value):
    """A number that summary.json holds for a figure, or a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return value


def _baseline_fit(info: dict) -> tuple:
    """An `unperturbed` entry's fit: its model class, and its (A, mu, omega,
    phi), of which the class draws the first n_params."""
    return (ModelClass(info["model"]),
            tuple(info[k] for k in ("A", "mu", "omega", "phi")))


def _histograms(rows, means: dict) -> dict:
    """{family: (bins, mean epsilon)} for each family of `means`, in its
    order: the (left, right, count) bins of histogram_rows' rows."""
    bins: dict[str, list] = {}
    for lo, hi, fam, count in rows:
        bins.setdefault(fam, []).append((lo, hi, count))
    return {fam: (bins[fam], mean) for fam, mean in means.items()}


def read_run(out_dir) -> dict:
    """`render_all`'s keyword arguments, read back from the run directory
    out_dir, each input once, for the families summary.json's `unperturbed`
    names.  The one check of a run directory: a summary.json that misses a
    key or holds a wrongly typed entry, a family it names that records.csv
    has no row of, and a family in records.csv or curves.csv that it does
    not name, are refused as a ValueError."""
    path = lambda name: os.path.join(out_dir, name)
    if os.path.exists(path("summary.json")) \
            and not os.path.isfile(path("summary.json")):
        raise ValueError(f"{path('summary.json')}: not a file")
    with open(path("summary.json")) as fh:
        summary = json.load(fh)
    if not isinstance(summary, dict):
        raise ValueError(f"{path('summary.json')}: not a JSON object")
    # raw doubles, not a list per row: the rows are most of what it holds
    curves: dict[str, dict[int, array]] = {}
    for fam, trial, *cells in read_csv(path("curves.csv"), CURVES_HEADER,
                                       [str, int, finite, finite, finite]):
        curves.setdefault(fam, {}).setdefault(trial, array("d")).extend(cells)
    records = records_from_csv(path("records.csv"))
    try:
        fits = {f: _baseline_fit(info)                  # refuses a list
                for f, info in sorted(summary["unperturbed"].items())}
        for kind, params in fits.values():
            for value in params[:kind.n_params]:
                _number(value)
        means = {f: _number(info["mean_epsilon"])
                 for f, info in sorted(summary["families"].items())}
        bin_width = _number(summary["config"]["bin_width"])
    except KeyError as err:
        raise ValueError(f"{path('summary.json')}: no key {err}") from err
    except (TypeError, AttributeError) as err:  # e.g. a number for a family
        raise ValueError(f"{path('summary.json')}: wrongly typed entry "
                         f"({err})") from err
    recorded = dict.fromkeys(r.family for r in records)
    if missing := [fam for fam in means if fam not in recorded]:
        raise ValueError(f"{path('records.csv')}: no row of family "
                         f"{missing[0]!r}, which summary.json names")
    for name, named in (("records.csv", recorded), ("curves.csv", curves)):
        for fam in named:
            if fam not in fits:
                raise ValueError(f"{path(name)}: family {fam!r} is not "
                                 "named in summary.json")
    return dict(
        histograms=_histograms(histogram_rows(records, bin_width), means),
        records=records, fits=fits,
        chains={f: LanczosChain.from_csv(path(f"chain_{f}.csv")) for f in fits},
        baselines={f: CorrelationSeries.from_csv(path(f"unperturbed_{f}.csv"))
                   for f in fits},
        exemplars={f: {trial: np.frombuffer(cells).reshape(-1, 3).T
                       for trial, cells in trials.items()}
                   for f, trials in curves.items()})


def render_all(out_dir, histograms: dict, records: list[TrialRecord],
               chains: dict[str, LanczosChain],
               baselines: dict[str, CorrelationSeries], fits: dict,
               exemplars: dict[str, dict]) -> list[str]:
    """Draw a run's SVGs into out_dir from the values it is handed, and
    check none of them; returns their names.

    `histograms` holds each family's (left, right, count) bins and mean
    epsilon; `chains`, `baselines` and `fits` each family's chain, its
    unperturbed C(t) and that C(t)'s fit, as (model class, (A, mu, omega,
    phi)); `exemplars` each family's exemplary trials, by trial, as the
    (t, C, fit) rows of one array.  Each figure is drawn whole before its
    file is opened.
    """
    figures = {
        "histogram.svg": (render_histogram_svg, histograms),
        "scatter.svg": (render_scatter_svg, records),
        "chains.svg": (render_chains_svg, chains),
        "unperturbed.svg": (render_unperturbed_svg, baselines, fits),
        **{f"exemplar_{f}.svg": (render_curves_svg, trials, f)
           for f, trials in exemplars.items()},
    }
    for name, (render, *data) in figures.items():
        svg = render(*data)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(svg)
    return list(figures)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_design(args) -> int:
    """One family's chain as `run` builds it, from the config of its kind."""
    kind = "oscillation" if args.family in ("gdo", "edo") else "decay"
    config = parse_config(None, {"scenario": kind, **{
        k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}})
    chain = next(fam.chain for fam in build_families(config)
                 if fam.name == args.family)
    chain.to_csv(args.out)
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
    density = fourier_of_correlation(parse_target(args.target),
                                     n_max=args.nmax)
    result = lanczos_from_spectrum(density, args.nmax)
    LanczosChain(result.b).to_csv(args.out)
    print(f"wrote {args.out} ({result.achieved} coefficients, equal at "
          f"{result.digits[0]} and {result.digits[1]} digits)")
    return 0


def _cmd_perturb(args) -> int:
    chain = LanczosChain.from_csv(args.chain)
    n_f = args.nf if args.nf is not None else chain.d // 3
    pert = apply_draw(chain, args.lam, draw_noise(chain.d, n_f, args.seed))
    pert.chain.to_csv(args.out)
    print(f"wrote {args.out} (clamped {pert.clamp_count} entries"
          f"{', INVALID draw' if pert.invalid else ''})")
    return 0


def _cmd_fit(args) -> int:
    series = CorrelationSeries.from_csv(args.series)
    n_eq, equilibrated = detect_equilibration(series, args.threshold, args.window)
    result = fit(series, ModelClass(args.model), n_eq)
    _write_json(args.out, result.to_json_dict())
    print(f"wrote {args.out} (epsilon={result.epsilon:.5g}, n_eq={n_eq}, "
          f"equilibrated={equilibrated})")
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config, {k: v for k, v in vars(args).items()
                                        if k in _CONFIG_KEYS})
    # refused before any work, and not made until the outputs are written
    parent = os.path.abspath(args.out)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ValueError(f"--out {args.out}: {parent} is not a directory")
    t0 = time.time()
    records, summary = run_scenario(config)
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
    made = render_all(args.src, **read_run(args.src))
    print(f"re-rendered {', '.join(made)} in {args.src}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morilab",
        description="Mori-chain relaxation-stability laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="one family's chain, as `run` builds it")
    p.add_argument("--family", required=True, choices=["g", "e", "gdo", "edo"])
    # each flag's dest is the config key it overrides
    p.add_argument("--nstar", type=int, dest="n_star")
    p.add_argument("--a", type=float)
    p.add_argument("--b1", type=float)
    p.add_argument("--b2", type=float)
    p.add_argument("--nmax", type=int, dest="reverse_n_max")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("propagate", help="chain -> correlation series")
    p.add_argument("--chain", required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("reverse", help="correlation target -> coefficients")
    p.add_argument("--target", required=True,
                   help="e.g. \"exp(-t^2/8)*cos(2t)\"")
    p.add_argument("--nmax", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("perturb", help="apply one seeded draw to a chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--nf", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
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
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
