"""What a run imports, and the names the trace harness binds.

Each check runs in a fresh interpreter: this suite's own modules import
scipy's solvers, and the trace harness rebinds the package's functions.
"""

import os
import subprocess
import sys
from pathlib import Path

import morilab

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(morilab.__file__).resolve().parent.parent)
SOLVERS = ("scipy.optimize", "scipy.special", "scipy.linalg")


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy_solver():
    # scipy's solvers serve the oracles, the chebyshev stepper and the
    # rare fit fallback; each imports its own where it is used
    loaded = run_python(
        "import sys, morilab, morilab.cli\n"
        f"print(*[m for m in {SOLVERS!r} if m in sys.modules])")
    assert loaded.split() == []


def test_run_scenario_stays_off_scipy_optimize():
    # one worker, so every fit, the baselines' and the trials', runs here
    loaded = run_python(
        "import sys\n"
        "from morilab.experiment import Scenario, ScenarioConfig, "
        "run_scenario\n"
        "for config in (\n"
        "        ScenarioConfig.preset(Scenario.DECAY, d=150, n_trials=2,\n"
        "                              dt=0.05, t_max=10.0, n_star=8,\n"
        "                              workers=1),\n"
        "        ScenarioConfig.preset(Scenario.OSCILLATION, d=400,\n"
        "                              n_trials=2, dt=0.05, t_max=12.0,\n"
        "                              base_seed=7, workers=1)):\n"
        "    records, summary = run_scenario(config)\n"
        "    assert all(r.converged for r in records), records\n"
        "print('scipy.optimize' in sys.modules)")
    assert loaded.split() == ["False"]


def test_trace_harness_binds_every_name():
    # benchmarks/trace_run.py looks its targets up by name, the fit
    # fallback's `least_squares` and `cli.render_all` among them; a name
    # that is gone fails its install with an AttributeError
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
