"""Scenario-run benchmark of morilab: reduced desk ensembles through the CLI.

    python3 benchmarks/run.py --workload decay-desk --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout; it uses the sources under `src/` and
stops with exit code 2 when they are missing.  Each timed run is one
`morilab run` in a fresh process (N_TRIALS trials per family, WORKERS
workers, BLAS pinned to one thread), repeated as whole runs until
`--seconds` have passed and at least MIN_RUNS runs are done.  Every run's outputs are checked by `checks.py`
against computations made apart from morilab; a run that exits non-zero or
fails a check counts all its trials as failed.

--trace 0 reports the end-to-end metrics (run_s, setup_s, peak_rss_mb);
--trace 1 runs `trace_run.py` in-process with one worker and reports the
per-layer split.  A results file with host facts goes to
benchmarks/results/; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

N_TRIALS = 16       # per family: keeps every physics predicate far from its edge
WORKERS = 2
SETUP_REPEATS = 7
MIN_RUNS = 2        # untraced: single runs on a shared 2-vCPU host varied 10-20%
RUN_TIMEOUT = 120.0

_DESK = dict(d=2000, dt=0.02, floor=1e-6, eq_threshold=0.01, eq_window=5.0)
WORKLOADS = {
    "decay-desk": dict(
        _DESK, scenario="decay", families=("g", "e"), n_f=666, strength=0.5,
        t_max=40.0, physics=checks.decay_physics),
    "oscillation-desk": dict(
        _DESK, scenario="oscillation", families=("gdo", "edo"), n_f=666,
        strength=0.1, t_max=30.0, physics=checks.oscillation_physics),
}
LAYERS = ("chain", "design", "reverse", "perturb", "fitting", "experiment",
          "cli", "svgplot")

# Times one command from launch to exit.  The peak RSS comes from this small
# process's RUSAGE_CHILDREN: a child forked straight from the benchmark would
# inherit the benchmark's own high-water mark across exec.
LAUNCHER = """\
import json, resource, subprocess, sys, time
start = time.perf_counter()
code = subprocess.call(sys.argv[2:])
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1], "w") as fh:
    json.dump({"run_s": wall, "exit_code": code,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "cpu_s": usage.ru_utime + usage.ru_stime}, fh)
"""

SETUP_CODE = """\
import sys, time
import morilab
from morilab.experiment import ScenarioConfig, build_families
build_families(ScenarioConfig.preset(sys.argv[1], n_trials=int(sys.argv[2]),
                                     base_seed=int(sys.argv[3]),
                                     workers=int(sys.argv[4])))
print(time.monotonic(), morilab.__file__)
"""


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env.pop("MORILAB_THREADS", None)
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=tmp)
    return env


def launch(cmd: list[str], env: dict, log_path: str) -> dict:
    """Run cmd to its end under LAUNCHER; its wall time, exit code, peak RSS
    and CPU time, or only the exit code if it was killed at RUN_TIMEOUT."""
    stats = log_path + ".stats.json"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, stats, *cmd],
                                cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        with open(stats) as fh:
            return json.load(fh)
    except OSError:
        return {"exit_code": proc.returncode}


def setup_time(spec: dict, seed: int, env: dict) -> float:
    """Fresh interpreter launch until `import morilab` and build_families are done."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, spec["scenario"], str(N_TRIALS),
         str(seed), str(WORKERS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
    done, origin = out.stdout.split()
    if not os.path.abspath(origin).startswith(SRC + os.sep):
        raise RuntimeError(f"morilab imported from {origin}, not from {SRC}")
    return float(done) - start


def run_args(spec: dict, seed: int, workers: int, out_dir: str) -> list[str]:
    return ["run", "--scenario", spec["scenario"], "--profile", "desk",
            "--trials", str(N_TRIALS), "--seed", str(seed),
            "--workers", str(workers), "--out", out_dir]


def check_outputs(out_dir: str, spec: dict, seed: int) -> dict[str, list[str]]:
    want = dict(spec, n_trials=N_TRIALS, base_seed=seed)
    try:
        problems = checks.verify(out_dir, want)
        if os.path.exists(os.path.join(out_dir, "records.csv")):
            problems["physics"] = spec["physics"](
                checks.family_means(os.path.join(out_dir, "records.csv")))
    except Exception as err:  # a malformed output is a failed check, not a crash
        problems = {"exception": [f"{type(err).__name__}: {err}"]}
    return {name: found for name, found in problems.items() if found}


def layer_metrics(trace: dict, wall: float, n_families: int) -> dict:
    """Per-layer counts and times of one traced run (see README)."""
    spans = trace["spans"]
    dur = [s[3] - s[2] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]] += dur[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_s[s[1]] += dur[i] - children[i]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def busy(*names):
        return sum(dur[i] for i in named(*names))

    def measured(name):
        return sum(spans[i][5] for i in named(name))

    (rs,) = [spans[i] for i in named("experiment.run_scenario")]
    inside = [s for s in spans if rs[2] <= s[2] and s[3] <= rs[3] and s is not rs]
    draws = sorted(s[2] for s in inside if s[0] == "perturb.draw_noise")
    trial_end = max(s[3] for s in inside if s[2] >= draws[-1])
    bounds = draws + [trial_end]
    calls = len(named("chain.propagate"))
    return {
        "import_s": (trace["import_s"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.uncovered_s": (wall - trace["import_s"] - sum(self_s.values()), "s"),
        **{f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS},
        "chain.propagate.calls": (calls, "count"),
        "chain.propagate.useful_ratio": (n_families * (N_TRIALS + 1) / calls, "ratio"),
        "chain.propagate.s": (busy("chain.propagate"), "s"),
        "chain.propagate.ns_per_site_step": (
            1e9 * busy("chain.propagate") / measured("chain.propagate"), "ns"),
        "experiment.build_families.calls": (len(named("experiment.build_families")), "count"),
        "experiment.build_families.s": (busy("experiment.build_families"), "s"),
        "reverse.s": (self_s["reverse"], "s"),
        "design.s": (self_s["design"], "s"),
        "perturb.draw_noise.s": (busy("perturb.draw_noise"), "s"),
        "perturb.apply_draw.s": (busy("perturb.apply_draw"), "s"),
        "fitting.fit.calls": (len(named("fitting.fit")), "count"),
        "fitting.fit.s": (busy("fitting.fit"), "s"),
        "fitting.fit.restarts": (measured("fitting.fit"), "count"),
        "fitting.least_squares.nfev": (measured("fitting.least_squares"), "count"),
        "fitting.quantifiers.s": (busy("fitting.detect_equilibration",
                                       "fitting.epsilon", "fitting.sigma"), "s"),
        "experiment.run_scenario.s": (rs[3] - rs[2], "s"),
        "experiment.pre_trial_s": (draws[0] - rs[2], "s"),
        "experiment.trial_s": (statistics.median(
            b - a for a, b in zip(bounds, bounds[1:])), "s"),
        "cli.emit_run_outputs.s": (busy("cli.emit_run_outputs"), "s"),
        "svgplot.render_all.s": (busy("svgplot.render_all"), "s"),
    }


def host_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "morilab", "__init__.py")):
        print(f"benchmark: no morilab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, SRC)
    spec = WORKLOADS[args.workload]
    workers = 1 if args.trace else WORKERS

    os.makedirs(RESULTS, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    env = child_env(work)
    runs, failed, correct = [], 0, True
    setups = []
    try:
        if not args.trace:
            setup_time(spec, args.seed, env)   # warm-up: byte-compile, page cache
            setups = [setup_time(spec, args.seed, env) for _ in range(SETUP_REPEATS)]
        start = time.perf_counter()
        min_runs = 1 if args.trace else MIN_RUNS
        while len(runs) < min_runs or time.perf_counter() - start < args.seconds:
            out_dir = os.path.join(work, f"run{len(runs)}")
            spans_path = out_dir + ".spans.json"
            prefix = [sys.executable, os.path.join(HERE, "trace_run.py"), spans_path] \
                if args.trace else [sys.executable, "-m", "morilab.cli"]
            run = launch(prefix + run_args(spec, args.seed, workers, out_dir),
                         env, out_dir + ".log")
            ok = run["exit_code"] == 0
            run["problems"] = check_outputs(out_dir, spec, args.seed) if ok \
                else {"exit": [f"exit code {run['exit_code']}"]}
            if ok and args.trace:
                with open(spans_path) as fh:
                    run["layers"] = layer_metrics(json.load(fh), run["run_s"],
                                                  len(spec["families"]))
            runs.append(run)
            if run["problems"]:   # stop at the first failure: a hung run costs RUN_TIMEOUT
                failed += N_TRIALS * len(spec["families"])
                correct = False
                print(f"run {len(runs) - 1} failed: {json.dumps(run['problems'])[:2000]}",
                      file=sys.stderr)
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in runs if not r["problems"]]
    metrics = {}
    if args.trace and good:
        metrics = {name: {"value": statistics.median(r["layers"][name][0] for r in good),
                          "unit": unit}
                   for name, (_, unit) in good[0]["layers"].items()}
    elif good:
        metrics = {"run_s": {"value": statistics.median(r["run_s"] for r in good),
                             "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in good),
                                   "unit": "MB"}}
    attempted = N_TRIALS * len(spec["families"]) * len(runs)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "n_trials": N_TRIALS, "workers": workers,
              "commit": git_commit(), "host": host_facts(), "setup_s": setups,
              "runs": runs, "metrics": metrics}
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}-{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
