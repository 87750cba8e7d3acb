"""Two-sided tests of checks.py on a tiny `morilab run`.

    python3 -m pytest benchmarks/test_checks.py

A healthy run passes every check; each corrupted copy fails the check
aimed at it.
"""

import csv
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402

SPEC = dict(families=("g", "e"), n_trials=4, base_seed=5, d=120, n_f=40,
            strength=0.5, floor=1e-6, dt=0.05, t_max=8.0, eq_threshold=0.01,
            eq_window=5.0)


@pytest.fixture(scope="module")
def healthy(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-m", "morilab.cli", "run", "--scenario", "decay",
         "--d", "120", "--nstar", "20", "--trials", "4", "--tmax", "8",
         "--dt", "0.05", "--seed", "5", "--workers", "1", "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=120)
    return out


@pytest.fixture
def copy(healthy, tmp_path):
    return shutil.copytree(healthy, tmp_path / "copy")


def failing(out_dir) -> set:
    return {name for name, found in checks.verify(str(out_dir), SPEC).items() if found}


def edit_csv(path, edit) -> None:
    """Rewrite a CSV with edit(rows) applied to its data rows (header kept)."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + edit(header, rows))


def test_healthy_run_passes(healthy):
    assert failing(healthy) == set()


@pytest.mark.parametrize("name, check", [("unperturbed_e.csv", "unperturbed.C"),
                                         ("curves.csv", "exemplar.C")])
def test_shifted_correlation_value_fails(copy, name, check):
    def shift(header, rows):
        col = header.index("C")
        rows[40][col] = repr(float(rows[40][col]) + 1e-6)
        return rows
    edit_csv(copy / name, shift)
    assert check in failing(copy)


def test_dropped_record_fails(copy):
    edit_csv(copy / "records.csv", lambda header, rows: rows[:-1])
    assert "records.count" in failing(copy)


def test_wrong_seed_fails(copy):
    def reseed(header, rows):
        col = header.index("seed")
        rows[-1][col] = str(int(rows[-1][col]) + 1)
        return rows
    edit_csv(copy / "records.csv", reseed)
    assert "records.seed" in failing(copy)


def test_epsilon_above_edge_fails(copy):
    def raise_eps(header, rows):
        eps, sig, eps0 = (header.index(k) for k in ("epsilon", "sigma", "eps0"))
        rows[0][eps] = repr(float(rows[0][sig]) + float(rows[0][eps0]) + 1e-6)
        return rows
    edit_csv(copy / "records.csv", raise_eps)
    assert "records.edge" in failing(copy)


@pytest.mark.parametrize("physics, means, ok", [
    (checks.decay_physics, {"e": 0.004, "g": 0.04}, True),
    (checks.decay_physics, {"e": 0.004, "g": 0.015}, False),
    (checks.decay_physics, {"e": 0.012, "g": 0.2}, False),
    (checks.oscillation_physics, {"edo": 0.006, "gdo": 0.027}, True),
    (checks.oscillation_physics, {"edo": 0.006, "gdo": 0.011}, False),
])
def test_physics_predicates(physics, means, ok):
    assert (physics(means) == []) is ok
