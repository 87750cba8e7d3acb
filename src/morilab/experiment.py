"""Scenario orchestration: N-trial perturbation ensembles and their statistics.

A scenario pairs two chain families (one per decay class), perturbs each
with independent seeded draws, fits every perturbed trajectory with the
family's model class, and aggregates the deviation/alteration quantifiers
into means.
"""

from __future__ import annotations

import enum
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, asdict, fields
from typing import NamedTuple, Sequence

import numpy as np

from .chain import (GROUP_ROWS, CorrelationSeries, LanczosChain,
                    PropagationError, propagate, propagate_many)
from .design import exponential_chain, gaussian_chain, oscillating_pair
from .fitting import (EQ_THRESHOLD, EQ_WINDOW, FitResult, ModelClass,
                      detect_equilibration, epsilon, fit, sigma)
from .perturb import POSITIVITY_FLOOR, apply_draw, draw_noise

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "TrialRecord",
    "FamilySummary",
    "EnsembleSummary",
    "FamilyRun",
    "run_scenario",
    "exemplary_trials",
    "summarize",
    "build_families",
    "worker_count",
]

N_EXEMPLARS = 3  # perturbed trials per family kept for the curves figure

log = logging.getLogger("morilab")

# |C| <= 1 and |model| <= A_BOUNDS[1] = 1.5 at every sample, and epsilon
# divides the n_eq + 1 squares by n_eq >= 8: every epsilon is at most
# 2.5 sqrt(9/8) < EPSILON_MAX, so a bin_width of EPSILON_MAX / MAX_BINS or
# more keeps each family's histogram within MAX_BINS bins
EPSILON_MAX = 2.66
MAX_BINS = 10**6


class Scenario(enum.Enum):
    DECAY = "decay"
    OSCILLATION = "oscillation"
    PATHOLOGICAL_DECAY = "pathological_decay"
    PATHOLOGICAL_OSCILLATION = "pathological_oscillation"

    @property
    def pathological(self) -> bool:
        return self in (Scenario.PATHOLOGICAL_DECAY,
                        Scenario.PATHOLOGICAL_OSCILLATION)

    @property
    def oscillating(self) -> bool:
        return self in (Scenario.OSCILLATION,
                        Scenario.PATHOLOGICAL_OSCILLATION)


# what each profile supplies where the config leaves it None
_PROFILES = {"desk": dict(d=2000, n_trials=200, dt=0.02),
             "paper": dict(d=10000, n_trials=1000, dt=0.01)}


@dataclass
class ScenarioConfig:
    """Complete, reproducible description of one ensemble run."""

    scenario: Scenario
    d: int | None = None            # None: d, n_trials and dt of the profile
    n_f: int | None = None          # None: d//3, or d for pathological runs
    n_trials: int | None = None
    strength: float | None = None   # None: 0.5 decay-type, 0.1 oscillation-type
    dt: float | None = None
    t_max: float | None = None      # None: 40 decay-type, 30 oscillation-type
    base_seed: int = 0
    n_star: int = 150
    a: float = 1.2
    b1: float = 2.0
    b2: float = 1.6
    bin_width: float | None = None  # None: 5e-4, or 5e-3 for pathological runs
    eq_threshold: float = EQ_THRESHOLD
    eq_window: float = EQ_WINDOW
    floor: float = POSITIVITY_FLOOR
    reverse_n_max: int = 50
    workers: int | None = None
    profile: str = "desk"

    def __post_init__(self):
        if isinstance(self.scenario, str):
            self.scenario = Scenario(self.scenario)
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown profile {self.profile!r} (desk or paper)")
        for key, value in _PROFILES[self.profile].items():
            if getattr(self, key) is None:
                setattr(self, key, value)
        # an int field holds an int, a float field a finite int or float;
        # neither holds a bool, nor None unless None is its default
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            if kind == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if kind == "float" and not (type(value) in (int, float)
                                        and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.n_f is None:
            self.n_f = self.d if self.scenario.pathological else self.d // 3
        if self.strength is None:
            self.strength = 0.1 if self.scenario.oscillating else 0.5
        if self.t_max is None:
            self.t_max = 30.0 if self.scenario.oscillating else 40.0
        if self.bin_width is None:
            self.bin_width = 5e-3 if self.scenario.pathological else 5e-4
        if self.d < 4:
            raise ValueError("d must be >= 4")
        if not 1 <= self.n_f <= self.d:
            raise ValueError("require 1 <= n_f <= d")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.strength < 0:
            raise ValueError("strength must be nonnegative")
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if self.bin_width * MAX_BINS < EPSILON_MAX:
            raise ValueError(f"bin_width must be at least "
                             f"{EPSILON_MAX / MAX_BINS:g}, or a histogram may "
                             f"need more than {MAX_BINS} bins")
        if self.floor <= 0:
            raise ValueError("floor must be positive")
        if not 0 < self.eq_threshold < 1:
            raise ValueError("eq_threshold must lie in (0, 1)")
        if self.eq_window < 0:
            raise ValueError("eq_window must be nonnegative")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def preset(cls, scenario, profile: str = "desk", **overrides) -> "ScenarioConfig":
        return cls(scenario, profile=profile, **overrides)

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["scenario"] = self.scenario.value
        return out


@dataclass(frozen=True)
class TrialRecord:
    """One trial's row of records.csv.  A trial that raised keeps the fields
    it reached; every later one holds its default: NaN, None, 0 or False."""

    trial: int
    family: str
    seed: int
    model: str
    A: float = math.nan
    mu: float = math.nan
    omega: float | None = None
    phi: float | None = None
    epsilon: float = math.nan
    sigma: float = math.nan
    eps0: float = math.nan
    n_eq: int = 0
    equilibrated: bool = False
    clamp_count: int = 0
    converged: bool = False
    valid: bool = False


@dataclass(frozen=True)
class FamilySummary:
    mean_epsilon: float
    mean_sigma: float
    n_valid: int
    n_invalid: int
    n_nonequilibrated: int


@dataclass(frozen=True)
class EnsembleSummary:
    # per-family means, baselines, (record, C(t_n)) of the exemplar trials,
    # failed trials
    families: dict[str, FamilySummary]
    runs: dict[str, FamilyRun]
    exemplars: dict[str, list[tuple[TrialRecord, np.ndarray]]]
    failures: list[dict]


def summarize(records: Sequence[TrialRecord]) -> dict[str, FamilySummary]:
    """Per-family means; invalid trials counted but excluded.  A family with
    no valid trial keeps its counts, with NaN means."""
    families: dict[str, FamilySummary] = {}
    for name in dict.fromkeys(r.family for r in records):
        fam = [r for r in records if r.family == name]
        valid = [r for r in fam if r.valid]
        mean = lambda values: float(np.mean(values)) if valid else math.nan
        families[name] = FamilySummary(
            mean_epsilon=mean([r.epsilon for r in valid]),
            mean_sigma=mean([r.sigma for r in valid]),
            n_valid=len(valid),
            n_invalid=len(fam) - len(valid),
            n_nonequilibrated=sum(not r.equilibrated for r in fam),
        )
    return families


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

class Family(NamedTuple):
    name: str
    chain: LanczosChain
    model_class: ModelClass


def build_families(config: ScenarioConfig) -> list[Family]:
    """The two competing chain designs for the configured scenario: the one
    place a family gets its builder, its parameters and its model class."""
    if config.scenario.oscillating:
        gdo, edo = oscillating_pair(config.reverse_n_max, config.d,
                                    config.b1, config.b2)
        return [Family("gdo", gdo, ModelClass.GAUSS_COS),
                Family("edo", edo, ModelClass.EXP_COS)]
    return [Family("g", gaussian_chain(config.n_star, config.d), ModelClass.GAUSS),
            Family("e", exponential_chain(config.a, config.n_star, config.d),
                   ModelClass.EXP)]


def trial_seed(base_seed: int, family_index: int, trial: int) -> int:
    """Deterministic per-(family, trial) RNG seed, order-independent."""
    ss = np.random.SeedSequence(entropy=base_seed,
                                spawn_key=(family_index, trial))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class FamilyRun:
    """A family's chain, its unperturbed C0(t) and the fit to it.

    A worker's job is (run, family index, config, trials), cheap to pickle.
    """

    name: str
    chain: LanczosChain
    model_class: ModelClass
    baseline: CorrelationSeries
    baseline_fit: FitResult
    equilibrated: bool


def _run_block(args) -> list[tuple[TrialRecord, np.ndarray | None, dict | None]]:
    """Perturb a block of one family's trials, propagate them in one call,
    then fit each.  Each trial is drawn once, as the call reads its chain,
    and its row is filled in as the trial runs.  A trial whose propagation
    or fit raises (a RuntimeError or ArithmeticError, or the ValueError of
    n_eq < 8) keeps the row it reached, invalid, and is reported."""
    ctx, index, cfg, trials = args
    f0 = ctx.baseline_fit.model
    seeds = [trial_seed(cfg.base_seed, index, t) for t in trials]
    draws = []         # (clamp_count, invalid) of each trial's draw

    def chains():
        for seed in seeds:
            pert = apply_draw(ctx.chain, cfg.strength,
                              draw_noise(cfg.d, cfg.n_f, seed), floor=cfg.floor)
            draws.append((pert.clamp_count, pert.invalid))
            yield pert.chain

    batch = propagate_many(chains(), cfg.dt, cfg.t_max)
    out = []
    for trial, seed, (clamps, invalid), series in zip(trials, seeds, draws,
                                                      batch):
        row = dict(trial=trial, family=ctx.name, seed=seed,
                   model=ctx.model_class.value, clamp_count=clamps)
        try:
            if isinstance(series, PropagationError):
                raise series
            n_eq, row["equilibrated"] = detect_equilibration(
                series, cfg.eq_threshold, cfg.eq_window)
            row["n_eq"] = n_eq
            result = fit(series, ctx.model_class, n_eq, warm_start=f0)
            m = result.model
            row.update(A=m.a, mu=m.mu, omega=m.omega, phi=m.phi,
                       epsilon=result.epsilon, converged=result.converged)
            row["sigma"] = sigma(series, ctx.baseline, n_eq)
            row["eps0"] = epsilon(ctx.baseline, f0, n_eq)
            row["valid"] = not invalid and result.converged
            out.append((TrialRecord(**row), series.values, None))
        except (ArithmeticError, RuntimeError, ValueError) as err:
            out.append((TrialRecord(**row), None, {
                "family": ctx.name, "trial": trial,
                "error": f"{type(err).__name__}: {err}"}))
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    has one (Linux), else the host's count (macOS, Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def worker_count(config: ScenarioConfig) -> int:
    """config.workers, else `usable_cpus()`."""
    if config.workers is not None:
        return config.workers
    return usable_cpus()


def run_scenario(config: ScenarioConfig) -> tuple[list[TrialRecord],
                                                 EnsembleSummary]:
    """Run the configured ensemble; deterministic for a fixed config.

    Each family is perturbed by its own independent seeded draws (seeds
    derived from (base_seed, family index, trial index), so the record set
    is invariant under execution order and worker count).  Trials whose
    draw overwhelms the chain (clamp overflow) or whose fit never converged
    are recorded with valid = False and excluded from the means, and so are
    trials whose propagation or fit raised (listed in `failures`).

    Each family's trials are split into `parts` blocks of ceil(n_trials /
    parts) trials, run by at most `usable_cpus()` processes, and each
    finished block is logged at INFO on the "morilab" logger.  Where the
    families alone give every process a job (no fewer families than
    min(workers, usable_cpus())), parts = min(workers, n_trials //
    GROUP_ROWS), at least one: every block pays again for the step loops
    and Bessel sums of its moment recursions, so a family is split only
    into blocks that each fill a recursion of GROUP_ROWS chains, but into
    as many as the workers allow: a smaller block keeps less of the run in
    one process at once.
    Otherwise parts = workers, so that no process waits for a job.  The
    summary also carries each family's baseline (`runs`) and the C(t) of
    its exemplary trials (`exemplars`); every other trial's series is
    dropped here.
    """
    runs = []
    for fam in build_families(config):
        c0 = propagate(fam.chain, dt=config.dt, t_max=config.t_max)
        n_eq0, eq0 = detect_equilibration(c0, config.eq_threshold,
                                          config.eq_window)
        try:
            fit0 = fit(c0, fam.model_class, n_eq0)
        except ValueError as err:
            raise ValueError(f"baseline {fam.name}: {err}") from err
        runs.append(FamilyRun(fam.name, fam.chain, fam.model_class, c0, fit0,
                              eq0))

    n_workers = worker_count(config)
    parts = n_workers
    if len(runs) >= min(n_workers, usable_cpus()):
        parts = max(1, min(n_workers, config.n_trials // GROUP_ROWS))
    block = math.ceil(config.n_trials / parts)
    jobs = [(run, index, config, range(lo, min(lo + block, config.n_trials)))
            for index, run in enumerate(runs)
            for lo in range(0, config.n_trials, block)]

    # the pool forks all its processes at the first submit: no more than
    # jobs, nor than the CPUs this process may run on
    n_procs = min(n_workers, len(jobs), usable_cpus())
    results = []
    with ProcessPoolExecutor(n_procs) if n_procs > 1 else nullcontext() as pool:
        for part in (pool.map if pool else map)(_run_block, jobs):
            results.extend(part)
            log.info("trials %d/%d", len(results), config.n_trials * len(runs))

    records = sorted((rec for rec, _, _ in results),
                     key=lambda r: (r.trial, r.family))
    series = {(rec.family, rec.trial): values for rec, values, _ in results}
    families = summarize(records)
    return records, EnsembleSummary(
        families=families,
        runs={run.name: run for run in runs},
        exemplars={run.name: [
            (rec, series[rec.family, rec.trial])
            for rec in exemplary_trials(records, families, run.name)]
            for run in runs},
        failures=[f for _, _, f in results if f is not None])


def exemplary_trials(records: Sequence[TrialRecord],
                     families: dict[str, FamilySummary],
                     family: str) -> list[TrialRecord]:
    """Valid trials closest to the family mean deviation, ties by trial."""
    fam = families[family]
    pool = [r for r in records if r.family == family and r.valid]
    pool.sort(key=lambda r: (abs(r.epsilon - fam.mean_epsilon), r.trial))
    return pool[:N_EXEMPLARS]
