"""What a run needs, the names the trace harness binds, and where each
name is imported from.

Each check runs in a fresh interpreter: this suite's own modules import
scipy, and the trace harness rebinds the package's functions.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import morilab

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(morilab.__file__).resolve().parent.parent)
# a finder that refuses scipy and every submodule of it, as on an install
# of the runtime dependencies alone
NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'scipy':\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
    "try:\n"
    "    import scipy\n"
    "except ModuleNotFoundError:\n"
    "    pass\n"
    "else:\n"
    "    raise AssertionError('scipy was imported')\n")


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_every_command_runs_without_scipy(tmp_path):
    # one worker, so that every trial and every fit runs in this interpreter
    runs = {
        "decay": ["--d", "150", "--trials", "2", "--dt", "0.05", "--tmax",
                  "10", "--nstar", "8"],
        "oscillation": ["--d", "400", "--trials", "2", "--dt", "0.05",
                        "--tmax", "12", "--seed", "7"]}
    commands = []
    for scenario, flags in runs.items():
        out = str(tmp_path / scenario)
        commands += [["run", "--scenario", scenario, *flags, "--workers", "1",
                      "--out", out], ["plot", "--from", out]]
    chain, series = str(tmp_path / "chain.csv"), str(tmp_path / "C.csv")
    commands += [
        ["design", "--family", "gdo", "--d", "300", "--out", chain],
        ["propagate", "--chain", chain, "--dt", "0.05", "--tmax", "12",
         "--out", series],
        ["fit", "--series", series, "--model", "gauss_cos", "--out",
         str(tmp_path / "fit.json")],
        ["reverse", "--target", "exp(-t^2/8)*cos(2t)", "--nmax", "20",
         "--out", str(tmp_path / "b.csv")]]
    printed = run_python(
        NO_SCIPY
        + "from morilab.cli import main\n"
        "hashlib_at_import = '_hashlib' in sys.modules\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "from morilab.chain import (LanczosChain, dense_correlation,\n"
        "                           propagate)\n"
        f"chain = LanczosChain.from_csv({chain!r})\n"
        "for method in ('chebyshev', 'rk4'):\n"
        "    propagate(chain, dt=0.05, t_max=2.0, method=method)\n"
        "dense_correlation(chain, [0.0, 1.0])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print('numpy.ma' in sys.modules)\n"
        "print(hashlib_at_import)\n")
    # numpy.ma costs about 10 ms and 0.5 MB to import, and no command needs
    # it; hashlib maps OpenSSL, which only the manifest's digests need, so
    # that it stays out of every forked worker
    assert printed.splitlines()[-3:] == ["[]", "False", "False"]


def test_trace_harness_binds_every_name():
    # benchmarks/trace_run.py looks its targets up by name, the (mu, omega)
    # search `least_squares` and `cli.render_all` among them; a name that is
    # gone fails its install with an AttributeError
    wrapped = run_python(
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location(\n"
        "    'trace_run', 'benchmarks/trace_run.py')\n"
        "trace_run = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(trace_run)\n"
        "modules = {name: importlib.import_module(f'morilab.{name}')\n"
        "           for name in trace_run.MODULES}\n"
        "trace_run.install(trace_run.Tracer(), modules)\n"
        "names = [(layer, name) for layer, names in trace_run.TARGETS.items()\n"
        "         for name in names]\n"
        "names += [('fitting', 'least_squares'), ('cli', 'render_all')]\n"
        "for layer, name in names:\n"
        "    fn = getattr(modules[layer], name)\n"
        "    print(f'{layer}.{name}', hasattr(fn, '__wrapped__'))")
    bound = dict(line.split() for line in wrapped.splitlines())
    assert {"fitting.least_squares", "cli.render_all", "fitting.fit",
            "chain.propagate"} <= set(bound)
    assert set(bound.values()) == {"True"}


def test_trace_harness_output_feeds_the_layer_metrics(tmp_path):
    # benchmarks/run.py --trace 1 turns the spans of one traced run into
    # its per-layer metrics; a run that never calls `chain.propagate`
    # breaks them (the useful ratio divides by its call count)
    spans = tmp_path / "spans.json"
    argv = ["run", "--scenario", "decay", "--d", "400", "--trials", "2",
            "--dt", "0.05", "--tmax", "12", "--nstar", "10", "--seed", "7",
            "--workers", "1", "--out", str(tmp_path / "run")]
    calls = run_python(
        "import json, subprocess, sys, time\n"
        "start = time.perf_counter()\n"
        "subprocess.run([sys.executable, 'benchmarks/trace_run.py',\n"
        f"                {str(spans)!r}, *{argv!r}], check=True)\n"
        "wall = time.perf_counter() - start\n"
        "sys.path.insert(0, 'benchmarks')\n"
        "import run\n"
        f"with open({str(spans)!r}) as fh:\n"
        "    metrics = run.layer_metrics(json.load(fh), wall, 2)\n"
        "print(metrics['chain.propagate.calls'][0])")
    assert int(calls.split()[-1]) >= 1


def test_trace_measures_the_search_evaluations():
    # the harness's measure of `fitting.least_squares` is the `nfev` of the
    # search result: an oscillating fit's residual evaluations
    counts = run_python(
        "import importlib.util\n"
        "import numpy as np\n"
        "from morilab.chain import CorrelationSeries\n"
        "from morilab.fitting import ModelClass\n"
        "spec = importlib.util.spec_from_file_location(\n"
        "    'trace_run', 'benchmarks/trace_run.py')\n"
        "trace_run = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(trace_run)\n"
        "modules = {name: importlib.import_module(f'morilab.{name}')\n"
        "           for name in trace_run.MODULES}\n"
        "tracer = trace_run.Tracer()\n"
        "trace_run.install(tracer, modules)\n"
        "t = np.arange(901) * 0.02\n"
        "series = CorrelationSeries(0.02, np.exp(-0.2 * t)\n"
        "                           * np.cos(2.0 * t - 0.5))\n"
        "modules['fitting'].fit(series, ModelClass.EXP_COS, 900)\n"
        "print(*[measure for name, *_, measure in tracer.spans\n"
        "        if name == 'fitting.least_squares'])")
    assert [int(n) > 0 for n in counts.split()] == [True]


# the public names, each under the module that defines it
PUBLIC = {
    "chain": ["CorrelationSeries", "LanczosChain", "PropagationError",
              "dense_correlation", "dense_generator", "propagate",
              "propagate_many", "spectral_width_sum"],
    "cli": ["histogram_rows", "main", "records_from_csv", "records_to_csv"],
    "design": ["ContinuationResult", "edo_chain", "exponential_chain",
               "gaussian_chain", "linear_continuation", "oscillating_pair",
               "q_ratio"],
    "experiment": ["EnsembleSummary", "Scenario", "ScenarioConfig",
                   "TrialRecord", "run_scenario", "summarize"],
    "fitting": ["FitModel", "FitResult", "ModelClass", "detect_equilibration",
                "epsilon", "fit", "sigma"],
    "perturb": ["PerturbationDraw", "PerturbedChain", "apply_draw",
                "draw_noise"],
    "reverse": ["AnalyticCorrelation", "QuadratureError", "ReverseResult",
                "SpectralDensityInput", "fourier_of_correlation",
                "lanczos_from_spectrum"],
}


def test_the_package_imports_nothing():
    # the package holds only __version__: importing it loads no submodule
    # and not numpy, and every public name imports from its own module
    loaded = run_python(
        "import sys, morilab\n"
        "print(morilab.__version__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('morilab.')))\n"
        "print('numpy' in sys.modules)\n"
        + "".join(f"from morilab.{module} import {', '.join(names)}\n"
                  for module, names in PUBLIC.items()))
    assert loaded.splitlines()[1:] == ["[]", "False"]


def test_no_module_imports_a_private_name_of_another():
    # a name that starts with "_" stays in its module; dunders such as
    # __version__ are public
    private = []
    for path in sorted((Path(SRC) / "morilab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [(path.name, alias.name) for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert private == []


def test_only_cli_reads_and_writes_csv():
    # chain defines the csv codec; cli alone writes and reads the run
    # directory, so no other module imports it
    users = set()
    for path in sorted((Path(SRC) / "morilab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                users |= {(path.stem, alias.name) for alias in node.names
                          if alias.name in ("read_csv", "write_csv")}
    assert users == {("cli", "read_csv"), ("cli", "write_csv")}
