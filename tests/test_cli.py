import hashlib
import json
import logging
import math
import os
import shutil
import sys
from collections.abc import Iterator

import numpy as np
import pytest

from morilab import chain, cli, experiment
from morilab.chain import (CorrelationSeries, LanczosChain, PropagationError,
                           read_csv)
from morilab.cli import (histogram_rows, main, parse_config, parse_target,
                         records_from_csv)
from morilab.experiment import (Scenario, ScenarioConfig, TrialRecord,
                                build_families, exemplary_trials, summarize)
from morilab.perturb import apply_draw, draw_noise


class TestParseTarget:
    # every target the tests and README use, and corners of the coefficient
    # and divisor spellings: (gauss_rate, cos_freq)
    @pytest.mark.parametrize("target, rates", [
        ("exp(-t^2/8)*cos(2t)", (-0.125, 2.0)),
        ("exp(-0.5*t^2)", (-0.5, 0.0)),
        ("exp(-t^2 / 8) * cos(2 t)", (-0.125, 2.0)),
        ("exp(-.5t^2)", (-0.5, 0.0)),
        ("exp(+t^2)*exp(-2t^2)", (-1.0, 0.0)),
        ("exp(-2*t^2/8)", (-0.25, 0.0)),
        ("cos(-3t)*exp(-t^2)", (-1.0, 3.0)),
        ("exp(-1.t^2)", (-1.0, 0.0)),
        ("exp(-1e-7t^2)", (-1e-7, 0.0)),
        ("cos(2.5E+1t)*exp(-t^2)", (-1.0, 25.0))])
    def test_accepted_target(self, target, rates):
        c = parse_target(target)
        assert (c.gauss_rate, c.cos_freq) == rates

    @pytest.mark.parametrize("target, error", [
        ("sinh(t)", "cannot parse target"),
        ("exp(-t^3)", "cannot parse target"),
        ("exp(-t)cos(2t)", "cannot parse target"),
        ("", "cannot parse target"),
        ("exp(-t)**cos(2t)", "cannot parse target"),
        ("exp(-t)*", "cannot parse target"),
        ("*exp(-t)", "cannot parse target"),
        ("cos(2t^2)", "cannot parse target"),
        # an exponent needs digits, and a mantissa before it
        ("exp(-1et^2)", "cannot parse target"),
        ("exp(-1e-t^2)", "cannot parse target"),
        ("exp(-e5t^2)", "cannot parse target"),
        ("exp(-t^2/0)", "zero divisor in 'exp(-t^2/0)'"),
        ("exp(-t^2/0.0)", "zero divisor in 'exp(-t^2/0.0)'"),
        # exp(a t) has a kink at t = 0, so its b_1 is infinite
        ("exp(-0.24*t)", "cannot parse target"),
        ("exp(-t)", "cannot parse target"),
        ("exp(-t)*exp(-0.5*t^2)", "cannot parse target"),
        ("exp(-t^2)*exp(-t)", "cannot parse target"),
        ("cos(-3t)*exp(-t)", "cannot parse target"),
        ("exp(t)", "cannot parse target"),
        ("exp(-t/8)", "cannot parse target"),
        ("exp(t^2)", "non-decaying"),
        ("exp(t^2)*exp(-t^2)", "non-decaying"),
        ("cos(2t)", "non-decaying"),
        pytest.param("exp(-" + "9" * 400 + "t^2)", "must be finite",
                     id="exp(-huge t^2)"),
        ("cos(t)*cos(2t)", "at most one cosine factor")])
    def test_rejected_target_exit_2(self, tmp_path, capsys, target, error):
        out = tmp_path / "b.csv"
        assert main(["reverse", "--target", target, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


class TestParseConfig:
    def test_flags_only_desk_default(self):
        cfg = parse_config(None, {"scenario": "decay"})
        assert cfg.d == 2000 and cfg.n_trials == 200
        assert cfg.strength == 0.5

    def test_paper_profile(self):
        cfg = parse_config(None, {"scenario": "decay", "profile": "paper"})
        assert (cfg.d, cfg.n_f, cfg.n_trials) == (10000, 3333, 1000)
        assert cfg.strength == 0.5

    def test_unknown_profile_in_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "decay", "profile": "bogus"}))
        with pytest.raises(ValueError, match="bogus"):
            parse_config(str(path), {})

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            parse_config(None, {"scenario": "decay", "strength": -1.0})

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "decay", "bogus_key": 1}))
        with pytest.raises(ValueError, match="bogus_key"):
            parse_config(str(path), {})

    def test_missing_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            parse_config(None, {})

    def test_manifest_accepted(self, tmp_path):
        manifest = {"tool": "morilab",
                    "config": {"scenario": "decay", "d": 256, "n_star": 5,
                               "n_trials": 2}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        cfg = parse_config(str(path), {})
        assert cfg.d == 256 and cfg.n_trials == 2

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "decay", "d": 256,
                                    "n_star": 5}))
        cfg = parse_config(str(path), {"d": 512})
        assert cfg.d == 512


class TestSubcommands:
    def test_design_propagate_fit_loop(self, tmp_path):
        chain_csv = tmp_path / "chain.csv"
        assert main(["design", "--family", "e", "--nstar", "10",
                     "--d", "300", "--out", str(chain_csv)]) == 0
        chain = LanczosChain.from_csv(chain_csv)
        assert chain.d == 300
        series_csv = tmp_path / "series.csv"
        assert main(["propagate", "--chain", str(chain_csv), "--dt", "0.05",
                     "--tmax", "15", "--out", str(series_csv)]) == 0
        fit_json = tmp_path / "fit.json"
        assert main(["fit", "--series", str(series_csv), "--model", "exp",
                     "--out", str(fit_json)]) == 0
        result = json.loads(fit_json.read_text())
        assert result["model"] == "exp"
        assert result["mu"] > 0

    def test_design_gaussian_values(self, tmp_path):
        out = tmp_path / "g.csv"
        main(["design", "--family", "g", "--nstar", "4", "--d", "10",
              "--out", str(out)])
        chain = LanczosChain.from_csv(out)
        assert chain.b[3] == 2.0
        assert chain.b[4] == 2.25

    @pytest.mark.parametrize("index, family", [(0, "g"), (1, "e"),
                                               (0, "gdo"), (1, "edo")])
    def test_design_oscillating_matches_build_families(self, tmp_path, index,
                                                       family):
        # `design` takes the run's defaults: no flag but --d
        out, ref = tmp_path / "design.csv", tmp_path / "families.csv"
        assert main(["design", "--family", family, "--d", "300",
                     "--out", str(out)]) == 0
        scenario = (Scenario.OSCILLATION if family in ("gdo", "edo")
                    else Scenario.DECAY)
        built = build_families(ScenarioConfig(scenario, d=300))[index]
        assert built.name == family
        built.chain.to_csv(ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("family", ["gaussian", "exponential"])
    def test_design_takes_only_the_family_names_of_a_run(self, tmp_path,
                                                         family):
        with pytest.raises(SystemExit) as exit_:
            main(["design", "--family", family, "--d", "300",
                  "--out", str(tmp_path / "design.csv")])
        assert exit_.value.code == 2

    def test_design_decay_chain_shorter_than_n_star_exit_2(self, tmp_path,
                                                           capsys):
        out = tmp_path / "design.csv"
        assert main(["design", "--family", "g", "--d", "150",
                     "--out", str(out)]) == 2
        assert "require 1 <= n_star < d" in capsys.readouterr().err
        assert not out.exists()
        assert main(["design", "--family", "g", "--d", "151",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("family, flags, error", [
        ("e", ["--nstar", "0"], "require 1 <= n_star < d"),
        ("g", ["--nstar", "300"], "require 1 <= n_star < d"),
        ("e", ["--a", "0"], "a must be positive"),
        ("edo", ["--b1", "-1"], "head coefficients must be positive"),
        ("gdo", ["--nmax", "1"], "a tail needs at least two coefficients, "
         "got 1"),
        ("gdo", ["--d", "40"], "d too small for the given prefix: d = 40, "
         "and 50 coefficients need d >= 51")])
    def test_design_parameter_out_of_range_exit_2(self, tmp_path, capsys,
                                                  family, flags, error):
        # the flags come after --d 300, so that a --d among them wins
        out = tmp_path / "design.csv"
        assert main(["design", "--family", family, "--d", "300", *flags,
                     "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_design_gdo_continues_the_reverse_coefficients(self, tmp_path,
                                                           capsys):
        # `design` is the one builder of the gdo chain: its first 50
        # coefficients are the bytes `reverse` writes, its only output, for
        # the target, and `reverse` continues no chain
        coeffs = tmp_path / "b.csv"
        reverse = ["reverse", "--target", "exp(-t^2/8)*cos(2t)",
                   "--nmax", "50", "--out", str(coeffs)]
        for flag in ("--continue-to", "--chain-out"):
            with pytest.raises(SystemExit) as exit_:
                main(reverse + [flag, "400"])
            assert exit_.value.code == 2
        assert os.listdir(tmp_path) == []
        assert main(reverse) == 0
        assert "(50 coefficients, equal at 61 and 122 digits)" in \
            capsys.readouterr().out
        assert os.listdir(tmp_path) == ["b.csv"]
        rows = coeffs.read_bytes().splitlines(keepends=True)
        assert rows[0] == b"n,b\r\n" and len(rows) == 51
        for d in ("51", "400"):
            design = tmp_path / f"design_{d}.csv"
            assert main(["design", "--family", "gdo", "--d", d,
                         "--out", str(design)]) == 0
            built = design.read_bytes().splitlines(keepends=True)
            assert len(built) == int(d) and built[:51] == rows

    @pytest.mark.parametrize("nmax", ["0", "-10"])
    def test_reverse_nmax_below_one_exit_2(self, tmp_path, capsys, nmax):
        code = main(["reverse", "--target", "exp(-t^2/8)*cos(2t)",
                     "--nmax", nmax, "--out", str(tmp_path / "b.csv")])
        assert code == 2
        assert "config error: n_max must be >= 1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["design", "--family", "g", "--d", "300", "--out", "{dir}"],
        ["propagate", "--chain", "{chain}", "--tmax", "1", "--out", "{dir}"],
        ["propagate", "--chain", "{dir}", "--tmax", "1", "--out", "{out}"],
        ["perturb", "--chain", "{chain}", "--lambda", "0.5", "--seed", "1",
         "--out", "{dir}"],
        ["fit", "--series", "{dir}", "--model", "exp", "--out", "{out}"],
        ["reverse", "--target", "exp(-t^2/8)*cos(2t)", "--nmax", "20",
         "--out", "{dir}"],
        ["run", "--config", "{dir}", "--out", "{out}"]],
        ids=lambda argv: f"{argv[0]} {argv[argv.index('{dir}') - 1]}")
    def test_path_that_is_a_directory_exit_2(self, tmp_path, capsys, argv):
        paths = {"dir": tmp_path / "adir", "chain": tmp_path / "chain.csv",
                 "out": tmp_path / "out"}
        paths["dir"].mkdir()
        LanczosChain(np.ones(5)).to_csv(paths["chain"])
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert f"config error: [Errno 21] Is a directory: '{paths['dir']}'" \
            in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["adir", "chain.csv"]
        assert os.listdir(paths["dir"]) == []

    def test_reverse_output_feeds_propagate(self, tmp_path):
        coeffs, series = tmp_path / "b.csv", tmp_path / "C.csv"
        assert main(["reverse", "--target", "exp(-t^2/8)*cos(2t)",
                     "--nmax", "20", "--out", str(coeffs)]) == 0
        assert main(["propagate", "--chain", str(coeffs), "--dt", "0.05",
                     "--tmax", "2", "--out", str(series)]) == 0
        assert len(CorrelationSeries.from_csv(series)) == 41

    def test_perturb_deterministic(self, tmp_path):
        chain_csv = tmp_path / "chain.csv"
        main(["design", "--family", "g", "--nstar", "5", "--d", "120",
              "--out", str(chain_csv)])
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for out in (out1, out2):
            assert main(["perturb", "--chain", str(chain_csv), "--lambda",
                         "0.5", "--seed", "9", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        pert = LanczosChain.from_csv(out1)
        base = LanczosChain.from_csv(chain_csv)
        assert not np.array_equal(pert.b, base.b)

    @pytest.mark.parametrize("rows, flags, error", [
        ("", [], "d must be >= 2"),
        ("1,1.0\n2,1.5\n", ["--nf", "0"], "require 1 <= n_f <= d"),
        ("1,1.0\n2,1.5\n", ["--lambda", "-1"],
         "perturbation strength must be nonnegative")],
        ids=["header-only", "nf-0", "lambda-negative"])
    def test_perturb_refusal_exit_2(self, tmp_path, capsys, rows, flags,
                                    error):
        chain_csv = tmp_path / "chain.csv"
        chain_csv.write_text("n,b\n" + rows)
        out = tmp_path / "p.csv"
        assert main(["perturb", "--chain", str(chain_csv), "--lambda", "0.5",
                     "--seed", "1", *flags, "--out", str(out)]) == 2
        assert f"config error: {error}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["chain.csv"]

    def test_missing_chain_file_exit_2(self, tmp_path):
        code = main(["propagate", "--chain", str(tmp_path / "nope.csv"),
                     "--tmax", "5", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.fixture
    def csv_input(self, request, tmp_path):
        """A CSV file and the arguments of a command that reads it: a series
        for `fit`, or a file of a copy of a finished run for `plot`."""
        if request.param == "series":
            series = tmp_path / "C.csv"
            CorrelationSeries(0.1, np.exp(-0.1 * np.arange(20))).to_csv(series)
            return series, ["fit", "--series", str(series), "--model", "exp",
                            "--out", str(tmp_path / "fit.json")]
        run = tmp_path / "run"
        shutil.copytree(request.getfixturevalue("tiny_run"), run)
        return run / request.param, ["plot", "--from", str(run)]

    @pytest.mark.parametrize("csv_input", ["series", "records.csv",
                                           "curves.csv"], indirect=True)
    def test_blank_last_row_exit_2(self, csv_input, capsys):
        path, argv = csv_input
        text = path.read_text()
        path.write_text(text + "\n")
        assert main(argv) == 2
        blank = text.count("\n") + 1
        assert f"{path}: line {blank}: 0 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("csv_input, line, column, cell, error", [
        ("records.csv", 3, 0, "xyz", "line 3: invalid literal for int()"),
        ("records.csv", 2, 8, "abc", "line 2: could not convert"),
        ("curves.csv", 4, 1, "xyz", "line 4: invalid literal for int()"),
        ("curves.csv", 2, 3, "abc", "line 2: could not convert"),
        ("curves.csv", 1, 0, "fam", "expected header 'family,trial,t,C,fit'"),
        ("records.csv", 2, 12, "7", "line 2: flag cell '7' is not 0 or 1"),
        ("curves.csv", 3, 3, "nan", "line 3: non-finite cell 'nan'"),
    ], indirect=["csv_input"])
    def test_bad_run_file_cell_exit_2(self, csv_input, capsys, line, column,
                                      cell, error):
        path, argv = csv_input
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[column] = cell
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(argv) == 2
        assert f"{path}: {error}" in capsys.readouterr().err

    def test_short_chain_row_exit_2(self, tmp_path, capsys):
        chain_csv = tmp_path / "chain.csv"
        chain_csv.write_text("n,b\n1,1.5\n2\n3,1.5\n")
        assert main(["propagate", "--chain", str(chain_csv), "--tmax", "5",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{chain_csv}: line 3: 1 cells" in capsys.readouterr().err

    SERIES_COMMANDS = [["fit", "--model", "gauss"],
                       ["fit", "--model", "gauss_cos"]]

    @pytest.fixture
    def gdo_series(self, tmp_path):
        t = np.arange(400) * 0.05
        series = tmp_path / "C.csv"
        CorrelationSeries(0.05, np.exp(-t**2 / 8) * np.cos(2 * t)).to_csv(series)
        return series

    @pytest.mark.parametrize("command", SERIES_COMMANDS,
                             ids=lambda command: command[0] + "-" + command[-1])
    def test_finite_series_runs(self, gdo_series, tmp_path, command):
        assert main([command[0], "--series", str(gdo_series), *command[1:],
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("times, error", [
        pytest.param(lambda n: 5.0 + n * 0.05,
                     "series starts at t = 5, not 0", id="start-5"),
        pytest.param(lambda n: 1e-6 + n * 0.05,
                     "series starts at t = 1e-06, not 0", id="start-1e-06"),
        pytest.param(lambda n: n * 0.0,
                     "time column does not increase", id="dt-0"),
        pytest.param(lambda n: n * -0.05,
                     "time column does not increase", id="dt-negative"),
        pytest.param(lambda n: n * 0.05 + (n == 7) * 0.01,
                     "time grid is not uniform", id="non-uniform"),
        pytest.param(lambda n: n[:1] * 0.05,
                     "series needs at least two samples", id="one-row")])
    @pytest.mark.parametrize("command", SERIES_COMMANDS,
                             ids=lambda command: command[0] + "-" + command[-1])
    def test_series_off_the_grid_exit_2(self, gdo_series, tmp_path, capsys,
                                        command, times, error):
        # the readers take t_n = n*dt with dt > 0 and at least two samples: a
        # later start would shift every time, and times that do not increase
        # evenly have no such dt; `times` maps the sample numbers to times
        rows = [line.split(",") for line in gdo_series.read_text().split()][1:]
        gdo_series.write_text("t,C\n" + "".join(
            f"{t!r},{c}\n"
            for t, (_, c) in zip(times(np.arange(len(rows))).tolist(), rows)))
        out = tmp_path / "out"
        assert main([command[0], "--series", str(gdo_series), *command[1:],
                     "--out", str(out)]) == 2
        assert f"{gdo_series}: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", SERIES_COMMANDS,
                             ids=lambda command: command[0] + "-" + command[-1])
    def test_non_finite_series_cell_exit_2(self, gdo_series, tmp_path, capsys,
                                           command, cell):
        # every series reader refuses it alike, before any fit or recursion
        lines = gdo_series.read_text().splitlines()
        lines[101] = lines[101].split(",")[0] + "," + cell     # line 102
        gdo_series.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main([command[0], "--series", str(gdo_series), *command[1:],
                     "--out", str(out)]) == 2
        assert (f"{gdo_series}: line 102: non-finite cell"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("n, b, error", [
        ("2", "nan", "non-finite cell"), ("2", "inf", "non-finite cell"),
        ("2", "-inf", "non-finite cell"), ("3", "1.5", "n = 3 in row 2"),
        ("1.5", "1.5", "invalid literal for int()")])
    def test_bad_chain_cell_exit_2(self, tmp_path, capsys, n, b, error):
        chain_csv = tmp_path / "chain.csv"
        chain_csv.write_text(f"n,b\n1,1.5\n{n},{b}\n3,1.5\n")
        assert main(["propagate", "--chain", str(chain_csv), "--tmax", "5",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{chain_csv}: line 3: {error}" in capsys.readouterr().err

    @pytest.fixture
    def exp_series(self, tmp_path):
        series = tmp_path / "C.csv"
        CorrelationSeries(0.05, np.exp(-0.3 * np.arange(600) * 0.05)).to_csv(
            series)
        return series

    @pytest.mark.parametrize("threshold", ["0", "-0.01", "1.0", "1.5"])
    def test_fit_threshold_outside_unit_interval_exit_2(
            self, exp_series, tmp_path, capsys, threshold):
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(exp_series), "--model", "exp",
                     "--threshold", threshold, "--out", str(out)]) == 2
        assert "threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, error", [
        ("propagate", "--tmax", "inf", "t_max must be nonnegative and finite"),
        ("propagate", "--dt", "inf", "dt must be positive and finite"),
        ("propagate", "--dt", "nan", "dt must be positive and finite"),
        ("fit", "--window", "inf",
         "equilibration window must be nonnegative and finite"),
        ("fit", "--window", "nan",
         "equilibration window must be nonnegative and finite")])
    def test_non_finite_step_or_window_exit_2(self, exp_series, tmp_path,
                                              capsys, command, flag, value,
                                              error):
        chain_csv, out = tmp_path / "chain.csv", tmp_path / "out"
        LanczosChain(np.sqrt(np.arange(1, 40))).to_csv(chain_csv)
        argv = {"propagate": ["propagate", "--chain", str(chain_csv),
                              "--tmax", "5"],
                "fit": ["fit", "--series", str(exp_series), "--model", "exp"]}
        assert main(argv[command] + [flag, value, "--out", str(out)]) == 2
        assert f"config error: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_threshold_inside_unit_interval_runs(self, exp_series,
                                                     tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(exp_series), "--model", "exp",
                     "--threshold", "0.01", "--out", str(out)]) == 0
        # |C| < 0.01 from t = ln(100)/0.3 = 15.35, plus the 5-unit window
        assert json.loads(out.read_text())["n_eq"] == 408
        assert "equilibrated=True" in capsys.readouterr().out

    def test_numeric_failure_exit_3(self, monkeypatch, tmp_path):
        chain_csv = tmp_path / "chain.csv"
        main(["design", "--family", "g", "--nstar", "5", "--d", "60",
              "--out", str(chain_csv)])
        def boom(*a, **k):
            raise PropagationError("norm drift 1e-3; shrink dt")
        monkeypatch.setattr(cli, "propagate", boom)
        code = main(["propagate", "--chain", str(chain_csv), "--tmax", "5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_arithmetic_error_exit_3(self, monkeypatch, tmp_path, capsys):
        series = tmp_path / "series.csv"
        CorrelationSeries(0.05, np.exp(-0.3 * np.arange(600) * 0.05)).to_csv(
            series)
        def overflow(*a, **k):
            raise OverflowError("cannot convert float infinity to integer")
        monkeypatch.setattr(cli, "fit", overflow)
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(series), "--model", "exp_cos",
                     "--out", str(out)]) == 3
        assert "numerical failure: cannot convert" in capsys.readouterr().err
        assert not out.exists()


TINY_TRIALS = 4
TINY_RUN = ["run", "--scenario", "decay", "--d", "150", "--trials",
            str(TINY_TRIALS), "--dt", "0.05", "--tmax", "10", "--nstar", "8",
            "--workers", "1"]
TINY_CONFIG = {"scenario": "decay", "d": 150, "n_trials": 2, "dt": 0.05,
               "t_max": 10, "n_star": 8, "workers": 1}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(TINY_RUN + ["--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def tiny_oscillation_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("oscillation-run")
    assert main(["run", "--scenario", "oscillation", "--d", "400", "--trials",
                 "2", "--dt", "0.05", "--tmax", "12", "--seed", "7",
                 "--workers", "1", "--out", str(out)]) == 0
    return out


def count_calls(monkeypatch, fn) -> list:
    """Wrap fn at every name a morilab module binds it under; log each
    call's arguments, an iterator as the list of what it yields."""
    calls = []

    def counted(*args, **kwargs):
        args = tuple(list(a) if isinstance(a, Iterator) else a for a in args)
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "morilab" or name.startswith("morilab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestOnePass:
    def test_families_built_and_chains_propagated_once(self, monkeypatch,
                                                       tmp_path):
        builds = count_calls(monkeypatch, experiment.build_families)
        singles = count_calls(monkeypatch, chain.propagate)
        propagations = count_calls(monkeypatch, chain.propagate_many)
        draws = count_calls(monkeypatch, draw_noise)
        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 0
        assert len(builds) == 1
        # each baseline, then one call per family: with one worker, each
        # family's trials form a single block
        assert len(singles) == 2
        assert [len(chains) for chains, *_ in propagations] == \
            [1, 1, TINY_TRIALS, TINY_TRIALS]
        # each trial is drawn once
        assert len(draws) == 2 * TINY_TRIALS

    def test_histogram_counted_once(self, monkeypatch, tmp_path):
        # histogram.csv and histogram.svg are drawn from the same rows
        counts = count_calls(monkeypatch, cli.histogram_rows)
        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 0
        assert len(counts) == 1

    def test_run_parses_back_nothing_it_wrote(self, monkeypatch, tmp_path):
        # the figures are drawn from the values the run holds: every reader
        # of a run file raises, and the run still writes every file
        def refuse(*args, **kwargs):
            raise AssertionError(f"read back {args[:1]}")

        for module, name in [(chain, "read_csv"), (cli, "read_csv"),
                             (cli, "records_from_csv"), (cli, "read_run"),
                             (json, "load")]:
            monkeypatch.setattr(module, name, refuse)
        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {"curves.csv", "exemplar_g.svg", "unperturbed.svg"} <= \
            set(manifest["outputs"])

    def test_exemplar_curves_match_fresh_propagation(self, tiny_run):
        config = parse_config(str(tiny_run / "manifest.json"), {})
        records = records_from_csv(tiny_run / "records.csv")
        families = summarize(records)
        rows = list(read_csv(tiny_run / "curves.csv",
                             ["family", "trial", "t", "C", "fit"],
                             [str, int, float, float, float]))
        for family in build_families(config):
            exemplars = exemplary_trials(records, families, family.name)
            assert exemplars
            shown = [r for r in rows if r[0] == family.name]
            assert list(dict.fromkeys(r[1] for r in shown)) == \
                [rec.trial for rec in exemplars]
            for rec in exemplars:
                draw = draw_noise(config.d, config.n_f, rec.seed)
                pert = apply_draw(family.chain, config.strength, draw,
                                  floor=config.floor)
                series = chain.propagate(pert.chain, dt=config.dt,
                                         t_max=config.t_max)
                stride = max(1, len(series) // cli.CURVE_POINTS)
                assert [r[3] for r in shown if r[1] == rec.trial] == \
                    list(series.values[::stride])


def failing_where(fn, condition, error):
    """fn, raising error instead where condition(first argument) holds."""
    def wrapped(first, *args, **kwargs):
        if condition(first):
            raise error
        return fn(first, *args, **kwargs)
    return wrapped


class TestFailureLocality:
    def test_failed_trials_are_recorded_and_the_run_finishes(
            self, monkeypatch, tiny_run, tmp_path, capsys):
        # trial 1 of g fails to propagate, trial 2 of e fails to fit
        config = parse_config(None, {"scenario": "decay", "d": 150,
                                     "n_trials": TINY_TRIALS, "dt": 0.05,
                                     "t_max": 10, "n_star": 8, "workers": 1})
        g, e = build_families(config)

        def trial_chain(family, index, trial):
            seed = experiment.trial_seed(config.base_seed, index, trial)
            return apply_draw(family.chain, config.strength,
                              draw_noise(config.d, config.n_f, seed),
                              floor=config.floor).chain

        bad_chain = trial_chain(g, 0, 1).b.tobytes()
        bad_fit = chain.propagate(trial_chain(e, 1, 2), dt=config.dt,
                                  t_max=config.t_max).values.tobytes()
        even_moments = chain._even_moments

        def poisoned(b, *args):
            # a NaN moment in the bad chain's row trips the moment guard
            mu, edge = even_moments(b, *args)
            for r, row in enumerate(b):
                if row.tobytes() == bad_chain[:row.nbytes]:
                    mu[r] = np.nan
            return mu, edge

        monkeypatch.setattr(chain, "_even_moments", poisoned)
        monkeypatch.setattr(experiment, "fit", failing_where(
            experiment.fit, lambda s: s.values.tobytes() == bad_fit,
            RuntimeError("no fit restart could be evaluated")))
        singles = count_calls(monkeypatch, chain.propagate)

        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 3
        assert len(singles) == 2        # the baselines: no trial is retried
        assert "g trial 1: PropagationError" in capsys.readouterr().err
        assert set(os.listdir(tiny_run)) == set(os.listdir(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        [g_failure, e_failure] = summary["failures"]
        assert g_failure.pop("error").startswith(
            "PropagationError: Chebyshev moment mu_0 = nan exceeds 1")
        assert g_failure == {"family": "g", "trial": 1}
        assert e_failure == {
            "family": "e", "trial": 2,
            "error": "RuntimeError: no fit restart could be evaluated"}
        assert summary["families"]["g"]["n_invalid"] == 1
        records = records_from_csv(tmp_path / "records.csv")
        failed = [r for r in records if (r.family, r.trial) in
                  {("g", 1), ("e", 2)}]
        assert len(failed) == 2
        for r in failed:
            assert not r.valid and not r.converged
            assert np.isnan([r.A, r.mu, r.epsilon, r.sigma, r.eps0]).all()
        # every other trial's row is the healthy run's, byte for byte
        ok_rows = lambda path: [row for row in path.read_text().splitlines()
                                if not row.startswith(("1,g,", "2,e,"))]
        assert ok_rows(tmp_path / "records.csv") == \
            ok_rows(tiny_run / "records.csv")


    def test_arithmetic_error_in_a_trial_is_a_failure(self, monkeypatch,
                                                      tmp_path):
        # the first warm-started fit, trial 0 of g, overflows
        run = ["run", "--scenario", "decay", "--d", "400", "--trials", "4",
               "--dt", "0.05", "--tmax", "10", "--nstar", "8", "--workers",
               "1"]
        assert main(run + ["--out", str(tmp_path / "ok")]) == 0
        fit, raised = experiment.fit, []

        def overflowing(series, model_class, n_eq, warm_start=None):
            if warm_start is not None and not raised:
                raised.append(model_class)
                raise OverflowError("cannot convert float infinity to integer")
            return fit(series, model_class, n_eq, warm_start)

        monkeypatch.setattr(experiment, "fit", overflowing)
        assert main(run + ["--out", str(tmp_path / "bad")]) == 3
        summary = json.loads((tmp_path / "bad" / "summary.json").read_text())
        assert summary["failures"] == [
            {"family": "g", "trial": 0, "error":
             "OverflowError: cannot convert float infinity to integer"}]
        # the failed trial keeps its row, and every other row is the
        # healthy run's, byte for byte
        ok, bad = ((out / "records.csv").read_text().splitlines()
                   for out in (tmp_path / "ok", tmp_path / "bad"))
        assert len(ok) == len(bad) == 9
        assert [row for row in ok if not row.startswith("0,g,")] == \
            [row for row in bad if not row.startswith("0,g,")]
        failed = [r for r in records_from_csv(tmp_path / "bad" / "records.csv")
                  if (r.family, r.trial) == ("g", 0)]
        assert len(failed) == 1 and not failed[0].valid

    # at threshold 0.99 without a window, a decay C(t) on dt = 0.02 can
    # equilibrate within the 8 samples a fit needs
    SHORT_EQ = {"scenario": "decay", "d": 400, "n_star": 10, "a": 0.9,
                "dt": 0.02, "t_max": 4.0, "eq_threshold": 0.99,
                "eq_window": 0.0, "n_trials": 4, "workers": 1}

    def test_trial_too_short_to_fit_is_a_failure(self, tiny_run, tmp_path):
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(self.SHORT_EQ))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert set(os.listdir(out)) == set(os.listdir(tiny_run))
        failures = json.loads((out / "summary.json").read_text())["failures"]
        assert [f for f in failures if f["family"] == "g"] == [
            {"family": "g", "trial": trial,
             "error": "ValueError: need at least 8 samples up to n_eq"}
            for trial in (0, 1)]
        assert json.loads((tiny_run / "summary.json").read_text())[
            "failures"] == []
        # the failed rows keep the n_eq they reached: equilibrated, early
        failed = [r for r in records_from_csv(out / "records.csv")
                  if r.family == "g" and r.trial in (0, 1)]
        assert len(failed) == 2
        for r in failed:
            assert 1 <= r.n_eq < 8 and r.equilibrated and not r.valid
            assert math.isnan(r.epsilon)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["families"]["g"]["n_nonequilibrated"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_baseline_too_short_to_fit_is_a_config_error(
            self, monkeypatch, tmp_path, capsys, workers):
        # with 2 workers, two real processes, even on a runner of one CPU:
        # the baselines are fitted in the pool's workers, and the refusal
        # comes back as the same ValueError, before any output is made
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps({**self.SHORT_EQ, "eq_threshold": 0.999,
                                    "workers": workers}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "baseline g: need at least 8 samples up to n_eq" in \
            capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_outputs_present(self, tiny_run):
        expected = {"records.csv", "summary.json", "histogram.csv",
                    "scatter.csv", "manifest.json", "curves.csv",
                    "histogram.svg", "scatter.svg", "chains.svg",
                    "unperturbed.svg", "exemplar_g.svg", "exemplar_e.svg",
                    "chain_g.csv", "chain_e.csv", "unperturbed_g.csv",
                    "unperturbed_e.csv"}
        assert expected <= set(os.listdir(tiny_run))

    def test_manifest_digests_match(self, tiny_run):
        manifest = json.loads((tiny_run / "manifest.json").read_text())
        assert manifest["tool"] == "morilab"
        assert "scipy" not in manifest    # numpy is the one dependency
        assert manifest["engine"] == "moments"
        assert manifest["nproc"] == len(os.sched_getaffinity(0))
        assert manifest["workers"] == 1
        for name, digest in manifest["outputs"].items():
            assert cli._sha256(tiny_run / name) == digest

    @pytest.mark.parametrize("missing", [(), ("_sha2",), ("_sha2", "_sha256")])
    @pytest.mark.parametrize("size", [0, 1, 2 * 65536 + 1])
    def test_digest_is_hashlibs(self, tmp_path, monkeypatch, missing, size):
        # the interpreter's own SHA-256, _sha2 (3.12+) or _sha256 (3.10,
        # 3.11), else hashlib's: files of no bytes, one, and three blocks
        for name in missing:
            monkeypatch.setitem(sys.modules, name, None)
        data = np.random.default_rng(size).bytes(size)
        (tmp_path / "data").write_bytes(data)
        assert cli._sha256(tmp_path / "data") == \
            hashlib.sha256(data).hexdigest()

    def test_manifest_records_the_blas(self, tiny_run):
        manifest = json.loads((tiny_run / "manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == \
            f"{blas.get('name')} {blas.get('version', '')}".strip()
        assert manifest["blas"]

    @pytest.mark.parametrize("workers", [None, 1])
    def test_runs_where_the_platform_has_no_affinity(self, monkeypatch,
                                                     tmp_path, workers):
        # macOS and Windows have no os.sched_getaffinity: the CPU count
        # falls back to the host's, for the pool and for the manifest
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = TINY_RUN[:-2] + ([] if workers is None
                                else ["--workers", str(workers)])
        assert main(argv + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nproc"] == os.cpu_count() == 2
        assert manifest["workers"] == (workers or 2)

    def test_replay_from_manifest(self, tiny_run, tmp_path):
        out2 = tmp_path / "replay"
        code = main(["run", "--config", str(tiny_run / "manifest.json"),
                     "--out", str(out2)])
        assert code == 0
        assert (out2 / "records.csv").read_bytes() == \
            (tiny_run / "records.csv").read_bytes()

    @pytest.mark.parametrize("old_spelling", [False, True])
    def test_plot_rerender_byte_identical(self, tiny_run, tiny_oscillation_run,
                                          tmp_path, old_spelling):
        # an untouched run's CSVs re-render to the digests of its manifest,
        # and so do its unperturbed_<f>.csv and curves.csv as earlier
        # versions wrote them: LF line ends and every number by %.17g
        for src in (tiny_run, tiny_oscillation_run):
            run = shutil.copytree(src, tmp_path / src.name)
            if old_spelling:
                for path in [*run.glob("unperturbed_*.csv"), run / "curves.csv"]:
                    header, *rows = path.read_text().splitlines()
                    old = "".join(f"{line}\n" for line in [header, *(
                        ",".join(c if c.isalpha() else f"{float(c):.17g}"
                                 for c in row.split(",")) for row in rows)])
                    assert old != path.read_text()  # not just the line ends
                    path.write_bytes(old.encode())
            outputs = json.loads((run / "manifest.json").read_text())["outputs"]
            svgs = [n for n in outputs if n.endswith(".svg")]
            assert any(n.startswith("exemplar_") for n in svgs)
            for n in svgs:
                (run / n).unlink()
            assert main(["plot", "--from", str(run)]) == 0
            for n in svgs:
                assert cli._sha256(run / n) == outputs[n], n

    def test_every_csv_line_ends_with_crlf(self, tiny_run):
        for path in tiny_run.glob("*.csv"):
            data = path.read_bytes()
            assert data.count(b"\n") == data.count(b"\r\n") > 1, path.name

    @pytest.mark.parametrize("family", ["g", "e"])
    def test_propagate_command_reproduces_the_baseline(self, tiny_run,
                                                       tmp_path, capsys,
                                                       family):
        out = tmp_path / "C.csv"
        assert main(["propagate", "--chain", str(tiny_run / f"chain_{family}.csv"),
                     "--dt", "0.05", "--tmax", "10", "--out", str(out)]) == 0
        assert out.read_bytes() == \
            (tiny_run / f"unperturbed_{family}.csv").read_bytes()
        summary = json.loads((tiny_run / "summary.json").read_text())
        baseline = summary["unperturbed"][family]
        printed = capsys.readouterr().out
        assert f"{baseline['sites']} sites, cut bound " \
            f"{baseline['cut_bound']:.1e}" in printed
        assert "flagged" not in printed

    @pytest.mark.parametrize("family, model", [
        ("g", "gauss"), ("e", "exp"), ("gdo", "gauss_cos"), ("edo", "exp_cos")])
    def test_fit_command_reproduces_the_baseline_fit(self, request, tmp_path,
                                                     family, model):
        run = request.getfixturevalue(
            "tiny_oscillation_run" if family in ("gdo", "edo") else "tiny_run")
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(run / f"unperturbed_{family}.csv"),
                     "--model", model, "--out", str(out)]) == 0
        summary = json.loads((run / "summary.json").read_text())
        baseline = summary["unperturbed"][family]
        assert json.loads(out.read_text()) == \
            {key: baseline[key] for key in ("model", "A", "mu", "omega", "phi",
                                            "epsilon", "n_eq", "converged",
                                            "restarts_used")}

    def test_summary_contents(self, tiny_run):
        summary = json.loads((tiny_run / "summary.json").read_text())
        assert set(summary["families"]) == {"g", "e"}
        assert summary["config"]["scenario"] == "decay"
        assert set(summary["unperturbed"]) == {"g", "e"}
        # the baselines are not cut, and the chain's end is a cut: each
        # carries its finite-size bound
        for baseline in summary["unperturbed"].values():
            assert baseline["sites"] == 150 and baseline["cut_bound"] > 0.0

    def test_summary_reports_the_engine_of_each_baseline(self, tiny_run):
        summary = json.loads((tiny_run / "summary.json").read_text())
        config = parse_config(str(tiny_run / "manifest.json"), {})
        for family in build_families(config):
            c0 = chain.propagate(family.chain, dt=config.dt, t_max=config.t_max)
            got = summary["unperturbed"][family.name]
            assert (got["lam"], got["moments"], got["sites"], got["cut_bound"]) \
                == (c0.lam, c0.moments, c0.sites, c0.cut_bound)
            assert got["lam"] > 0 and got["moments"] > 1
            assert got["sites"] == config.d       # these chains are not cut

    def test_progress_can_be_silenced(self, capsys, tmp_path):
        logger = logging.getLogger("morilab")
        logger.setLevel(logging.WARNING)
        try:
            assert main(TINY_RUN + ["--out", str(tmp_path)]) == 0
        finally:
            logger.setLevel(logging.NOTSET)
        assert "trials" not in capsys.readouterr().err

    def test_uncertified_baselines_are_warned_about(self, capsys, tmp_path):
        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        for family in ("g", "e"):
            bound = summary["unperturbed"][family]["cut_bound"]
            assert bound > chain.CUT_TOL        # measured 8.84 and 15.5
            assert f"baseline {family}: cut bound {bound:.3g} exceeds" in err

    def test_certified_baselines_are_not_warned_about(self, capsys, tmp_path):
        # the criterion-12 config: d=400 is long enough for t_max=12
        assert main(["run", "--scenario", "decay", "--d", "400", "--trials",
                     "2", "--dt", "0.05", "--tmax", "12", "--nstar", "10",
                     "--seed", "7", "--workers", "1",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        for baseline in summary["unperturbed"].values():
            assert baseline["cut_bound"] <= chain.CUT_TOL  # 5e-19, 1.2e-18
        assert "cut bound" not in capsys.readouterr().err

    def test_progress_shown_on_stderr(self, capsys, tmp_path):
        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 0
        assert f"trials {2 * TINY_TRIALS}/{2 * TINY_TRIALS}" in \
            capsys.readouterr().err

    def test_baselines_use_moments_engine(self):
        config = parse_config(None, {"scenario": "decay", "d": 150,
                                     "n_trials": 2, "dt": 0.05, "t_max": 10,
                                     "n_star": 8, "workers": 1})
        _, summary = experiment.run_scenario(config)
        assert set(summary.runs) == {"g", "e"}
        for run in summary.runs.values():
            # the scale and the moment count only the moments engine sets
            assert run.baseline.lam > 0 and run.baseline.moments > 0

    def test_histogram_rows_are_counted_from_the_records(self, tiny_run):
        # histogram.csv is the histogram rows of records.csv at the config's
        # bin width; summary.json holds no second copy
        bin_width = parse_config(str(tiny_run / "manifest.json"), {}).bin_width
        rows = list(read_csv(tiny_run / "histogram.csv",
                             ["bin_left", "bin_right", "family", "count"],
                             [float, float, str, int]))
        assert rows == [list(row) for row in histogram_rows(
            records_from_csv(tiny_run / "records.csv"), bin_width)]
        families = json.loads((tiny_run / "summary.json").read_text())["families"]
        assert sum(count for *_, count in rows) == \
            sum(fam["n_valid"] for fam in families.values()) > 0
        assert all("histogram" not in fam for fam in families.values())

    def test_scatter_pairs(self, tiny_run):
        records = records_from_csv(tiny_run / "records.csv")
        rows = list(read_csv(tiny_run / "scatter.csv",
                             ["family", "sigma", "epsilon"],
                             [str, float, float]))
        assert rows == [[r.family, r.sigma, r.epsilon] for r in records]
        assert len(rows) == 2 * TINY_TRIALS

    def test_flat_file_headers(self, tiny_run):
        hist = (tiny_run / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,family,count"
        scat = (tiny_run / "scatter.csv").read_text().splitlines()
        assert scat[0] == "family,sigma,epsilon"
        curves = (tiny_run / "curves.csv").read_text().splitlines()
        assert curves[0] == "family,trial,t,C,fit"

    @pytest.mark.parametrize("out", ["file", "file/run"])
    def test_out_not_a_directory_refused_before_any_work(
            self, monkeypatch, tmp_path, capsys, out):
        builds = count_calls(monkeypatch, experiment.build_families)
        (tmp_path / "file").write_text("kept\n")
        assert main(TINY_RUN + ["--out", str(tmp_path / out)]) == 2
        assert f"{tmp_path / 'file'} is not a directory" in \
            capsys.readouterr().err
        assert builds == [] and os.listdir(tmp_path) == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_nonpositive_floor_refused_before_any_work(self, monkeypatch,
                                                       tmp_path, capsys,
                                                       floor):
        builds = count_calls(monkeypatch, experiment.build_families)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": "pathological_decay", "d": 200, "n_trials": 10,
            "floor": floor, "n_star": 10, "workers": 1, "strength": 3.0}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "floor must be positive" in capsys.readouterr().err
        assert builds == [] and not out.exists()

    @pytest.mark.parametrize("threshold", [0.0, -0.01, 1.0, 1.5])
    def test_eq_threshold_outside_unit_interval_refused_before_any_work(
            self, monkeypatch, tmp_path, capsys, threshold):
        builds = count_calls(monkeypatch, experiment.build_families)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": "decay", "d": 200, "n_trials": 10, "n_star": 10,
            "workers": 1, "eq_threshold": threshold}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "eq_threshold must lie in (0, 1)" in capsys.readouterr().err
        assert builds == [] and not out.exists()

    @pytest.mark.parametrize("bin_width", [1e-12, 2.6e-6])
    def test_bin_width_allowing_over_a_million_bins_refused_before_any_work(
            self, monkeypatch, tmp_path, capsys, bin_width):
        builds = count_calls(monkeypatch, experiment.build_families)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": "decay", "d": 200, "n_trials": 10, "n_star": 10,
            "workers": 1, "bin_width": bin_width}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "bin_width must be at least 2.66e-06" in capsys.readouterr().err
        assert builds == [] and not out.exists()

    def test_a_family_without_valid_trials_keeps_its_entry(self, tmp_path,
                                                            capsys):
        # at strength 8 every draw is invalid: both families are summarized
        # with their counts and NaN means, and counted in one empty bin
        out = tmp_path / "run"
        assert main(["run", "--scenario", "decay", "--d", "400", "--trials",
                     "4", "--dt", "0.05", "--tmax", "12", "--nstar", "10",
                     "--seed", "7", "--workers", "1", "--lambda", "8",
                     "--out", str(out)]) == 0
        families = json.loads((out / "summary.json").read_text())["families"]
        assert sorted(families) == ["e", "g"]
        stdout = capsys.readouterr().out
        for name, fam in families.items():
            assert (fam["n_valid"], fam["n_invalid"]) == (0, 4)
            assert np.isnan(fam["mean_epsilon"]) and np.isnan(fam["mean_sigma"])
            assert f"{name}: mean epsilon = nan" in stdout
        assert (out / "histogram.csv").read_text().splitlines()[1:] == \
            ["0.0,0.0005,e,0", "0.0,0.0005,g,0"]
        assert "mean " not in (out / "histogram.svg").read_text()

    @pytest.mark.parametrize("flag, value, error", [
        ("--workers", "0", "workers must be >= 1"),
        ("--workers", "-3", "workers must be >= 1"),
        ("--d", "3", "d must be >= 4"),
        ("--dt", "0", "dt and t_max must be positive")])
    def test_flag_out_of_range_refused_before_any_work(
            self, monkeypatch, tmp_path, capsys, flag, value, error):
        builds = count_calls(monkeypatch, experiment.build_families)
        out = tmp_path / "out"
        assert main(TINY_RUN + [flag, value, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert builds == [] and not out.exists()

    @pytest.mark.parametrize("n_star", [[], ["--nstar", "120"],
                                        ["--nstar", "0"]])
    def test_decay_n_star_outside_the_chain_refused_before_any_propagation(
            self, monkeypatch, tmp_path, capsys, n_star):
        # the decay builders refuse it; the default n_star is 150
        calls = count_calls(monkeypatch, chain.propagate)
        out = tmp_path / "out"
        assert main(["run", "--scenario", "decay", "--d", "120", "--trials",
                     "1", "--tmax", "5", "--workers", "1", *n_star,
                     "--out", str(out)]) == 2
        assert "require 1 <= n_star < d" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_oscillation_run_does_not_read_n_star(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--scenario", "oscillation", "--d", "120",
                     "--trials", "1", "--tmax", "5", "--workers", "1",
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["d"], config["n_star"]) == (120, 150)

    @pytest.mark.parametrize("text, error", [
        ("[1, 2]", "config {path} must be a JSON object"),
        ("3", "config {path} must be a JSON object"),
        ("null", "config {path} must be a JSON object"),
        ('"decay"', "config {path} must be a JSON object"),
        ("{bad", "malformed config {path}: Expecting property name"),
        (None, "config error: [Errno 2] No such file or directory: '{path}'"),
        ('{"scenario": 3}', "config error: 3 is not a valid Scenario"),
        ('{"scenario": null}', "config error: None is not a valid Scenario"),
        ('{"scenario": ["decay"]}',
         "config error: ['decay'] is not a valid Scenario")],
        ids=["[1, 2]", "3", "null", '"decay"', "malformed", "missing",
             "scenario 3", "scenario null", "scenario list"])
    def test_non_object_config_refused_before_any_work(
            self, monkeypatch, tmp_path, capsys, text, error):
        builds = count_calls(monkeypatch, experiment.build_families)
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert error.format(path=path) in capsys.readouterr().err
        assert builds == [] and not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("d", 400.0), ("n_trials", 2.5), ("base_seed", 1.5), ("n_star", 10.0),
        ("n_f", 50.0), ("reverse_n_max", 50.0), ("workers", True),
        ("d", "400")])
    def test_non_integer_field_refused_before_any_work(
            self, monkeypatch, tmp_path, capsys, key, value):
        builds = count_calls(monkeypatch, experiment.build_families)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY_CONFIG, key: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"{key} must be an integer, got {value!r}" in \
            capsys.readouterr().err
        assert builds == [] and not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("a", "1.2"), ("strength", True), ("t_max", float("inf")),
        ("dt", float("nan")), ("floor", "1e-6"), ("eq_window", None)])
    def test_non_number_float_field_refused_before_any_work(
            self, monkeypatch, tmp_path, capsys, key, value):
        # json writes the non-finite floats as Infinity and NaN, which
        # json.load reads back; a null is a value here, not a default
        builds = count_calls(monkeypatch, experiment.build_families)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY_CONFIG, key: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"{key} must be a finite number, got {value!r}" in \
            capsys.readouterr().err
        assert builds == [] and not out.exists()

    def test_object_config_with_an_integer_float_field_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY_CONFIG, "a": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["a"] == 1

    def test_object_config_with_integer_fields_runs(self, monkeypatch,
                                                    tmp_path):
        builds = count_calls(monkeypatch, experiment.build_families)
        ints = {"d": 150, "n_f": 50, "n_trials": 2, "n_star": 8,
                "base_seed": 4, "reverse_n_max": 40, "workers": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY_CONFIG, **ints}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert len(builds) == 1
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert {key: config[key] for key in ints} == ints
        assert all(type(config[key]) is int for key in ints)

    def test_scenario_flag_required_without_config(self):
        assert main(["run", "--out", "/tmp/should-not-exist-xyz"]) == 2


DESK_FAMILIES = {"decay": ("g", "e"), "oscillation": ("gdo", "edo")}
DESK_TMAX = {"decay": "40", "oscillation": "30"}


@pytest.fixture(scope="module", params=sorted(DESK_FAMILIES))
def desk_runs(request, tmp_path_factory):
    """The scenario's desk run of 6 trials, seed 3, with 1, 2 and 3 workers,
    each family split into one block per worker, as GROUP_ROWS 1 allows."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "GROUP_ROWS", 1)
        for workers in (1, 2, 3):
            out = tmp_path_factory.mktemp(f"{request.param}-workers-{workers}")
            assert main(["run", "--scenario", request.param, "--profile",
                         "desk", "--trials", "6", "--seed", "3", "--workers",
                         str(workers), "--out", str(out)]) == 0
            runs.append(out)
    return request.param, runs


class TestDeskWorkerCounts:
    """Worker-count invariance at desk scale, d = 2000.

    Blocks of 6, 3 and 2 trials expand their chains in moment recursions of
    as many rows: every row must come out the same.  Decay blocks hold the
    g chains' first-rung (lambda_q, n_c) groups, at 940 and 1024 sites, and
    the e chains' one, at 1328; oscillation chains refuse their first rung
    and meet again in one group at their second, 470 or 512 sites.  Each
    baseline, propagated alone by `morilab propagate`, must give the run's
    bytes: at decay its Bessel sum runs over 66 (g) or 81 (e) chunks of
    J_2k rows, the last ones of 4 and 9.  `morilab design` with the run's
    defaults must write the bytes of each of the run's chains.
    """

    def test_run_files_do_not_depend_on_the_worker_count(self, desk_runs):
        scenario, runs = desk_runs
        names = ["records.csv", "curves.csv",
                 *(f"unperturbed_{f}.csv" for f in DESK_FAMILIES[scenario])]
        for run in runs[1:]:
            for name in names:
                assert (run / name).read_bytes() == \
                    (runs[0] / name).read_bytes(), f"{run.name}/{name}"

    def test_propagate_command_reproduces_each_baseline(self, desk_runs,
                                                        tmp_path):
        scenario, (run, *_) = desk_runs
        for fam in DESK_FAMILIES[scenario]:
            out = tmp_path / f"alone_{fam}.csv"
            assert main(["propagate", "--chain", str(run / f"chain_{fam}.csv"),
                         "--dt", "0.02", "--tmax", DESK_TMAX[scenario],
                         "--out", str(out)]) == 0
            assert out.read_bytes() == \
                (run / f"unperturbed_{fam}.csv").read_bytes(), fam

    def test_design_command_reproduces_each_chain(self, desk_runs, tmp_path):
        scenario, (run, *_) = desk_runs
        for fam in DESK_FAMILIES[scenario]:
            out = tmp_path / f"design_{fam}.csv"
            assert main(["design", "--family", fam, "--d", "2000",
                         "--out", str(out)]) == 0
            assert out.read_bytes() == \
                (run / f"chain_{fam}.csv").read_bytes(), fam


class TestRenderAll:
    def test_each_input_is_read_once(self, tiny_run, tmp_path, monkeypatch):
        reads = {}
        real_open = open

        def counting_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and "w" not in mode \
                    and os.path.dirname(file) == os.fspath(tiny_run):
                reads[os.fspath(file)] = reads.get(os.fspath(file), 0) + 1
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        data = cli.read_run(tiny_run)
        # drawing reads nothing: it is handed every value it draws
        cli.render_all(tmp_path, **data)
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == sorted(
            name for name in os.listdir(tiny_run) if name.endswith(".svg"))
        inputs = ["summary.json", "records.csv", "curves.csv", "chain_e.csv",
                  "chain_g.csv", "unperturbed_e.csv", "unperturbed_g.csv"]
        assert reads == {os.path.join(tiny_run, name): 1 for name in inputs}
        # the exports are written for other tools, never read back
        assert not {"histogram.csv", "scatter.csv"} & \
            {os.path.basename(name) for name in reads}

    def test_scatter_omits_failed_trials(self, tiny_run):
        records = records_from_csv(tiny_run / "records.csv")
        failed = TrialRecord(trial=0, family="g", seed=1, model="gauss")

        # a failed trial has NaN sigma and epsilon; records sort by trial,
        # so trial 0's row comes first
        with_failure = cli.render_scatter_svg([failed] + records)
        assert with_failure == cli.render_scatter_svg(records)
        assert '"nan"' not in with_failure

    def test_stale_family_files_are_not_drawn(self, tiny_run,
                                              tiny_oscillation_run, tmp_path):
        # a decay run into the directory an oscillation run wrote draws only
        # its own families: every file it lists has a fresh run's bytes
        stale = shutil.copytree(tiny_oscillation_run, tmp_path / "stale")
        assert main(TINY_RUN + ["--out", str(stale)]) == 0
        manifest = json.loads((tiny_run / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (stale / name).read_bytes() == \
                (tiny_run / name).read_bytes(), name


class TestPlotCommand:
    def test_empty_dir_is_config_error(self, tmp_path):
        assert main(["plot", "--from", str(tmp_path)]) == 2

    def test_dir_without_summary_is_config_error(self, tiny_run, tmp_path,
                                                 capsys):
        (tmp_path / "scatter.csv").write_bytes(
            (tiny_run / "scatter.csv").read_bytes())
        assert main(["plot", "--from", str(tmp_path)]) == 2
        assert "summary.json" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["scatter.csv"]

    def test_file_is_config_error(self, tiny_run, capsys):
        summary = tiny_run / "summary.json"
        assert main(["plot", "--from", str(summary)]) == 2
        assert "Not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("summary, error", [
        ({}, "no key 'unperturbed'"),
        ([], "not a JSON object"),
        ("no mu", "no key 'mu'")])
    def test_malformed_summary_exit_2(self, tiny_run, tmp_path, capsys,
                                      summary, error):
        run = shutil.copytree(tiny_run, tmp_path / "run",
                              ignore=shutil.ignore_patterns("*.svg"))
        if summary == "no mu":
            summary = json.loads((run / "summary.json").read_text())
            del summary["unperturbed"]["g"]["mu"]
        (run / "summary.json").write_text(json.dumps(summary))
        assert main(["plot", "--from", str(run)]) == 2
        assert f"{run / 'summary.json'}: {error}" in capsys.readouterr().err
        # the summary is read whole before any figure is drawn
        assert not [name for name in os.listdir(run) if name.endswith(".svg")]

    @pytest.mark.parametrize("edited, family", [("summary.json", "zz"),
                                                ("records.csv", "e")])
    def test_family_missing_from_the_records_exit_2(self, tiny_run, tmp_path,
                                                    capsys, edited, family):
        # a family named in summary.json, or e's rows deleted from the records
        run = shutil.copytree(tiny_run, tmp_path / "run",
                              ignore=shutil.ignore_patterns("*.svg"))
        if edited == "summary.json":
            summary = json.loads((run / "summary.json").read_text())
            summary["families"]["zz"] = summary["families"]["g"]
            (run / "summary.json").write_text(json.dumps(summary))
        else:
            lines = (run / "records.csv").read_text().splitlines(keepends=True)
            family_col = lines[0].split(",").index("family")
            (run / "records.csv").write_text("".join(
                line for line in lines
                if line.split(",")[family_col] != "e"))
        assert main(["plot", "--from", str(run)]) == 2
        assert f"{run / 'records.csv'}: no row of family {family!r}, which " \
            "summary.json names" in capsys.readouterr().err
        assert not [name for name in os.listdir(run) if name.endswith(".svg")]

    @pytest.mark.parametrize("edited", ["curves.csv", "records.csv"])
    def test_family_summary_does_not_name_exit_2(self, tiny_run, tmp_path,
                                                 capsys, edited):
        # a family drawn from a CSV alone would be missing from the other
        # figures: g's curves renamed, or a record added
        run = shutil.copytree(tiny_run, tmp_path / "run",
                              ignore=shutil.ignore_patterns("*.svg"))
        lines = (run / edited).read_text().splitlines(keepends=True)
        if edited == "curves.csv":
            lines = [line.replace("g,", "zz,", 1) if line.startswith("g,")
                     else line for line in lines]
        else:
            cells = lines[-1].split(",")
            cells[lines[0].split(",").index("family")] = "zz"
            lines.append(",".join(cells))
        (run / edited).write_text("".join(lines))
        assert main(["plot", "--from", str(run)]) == 2
        assert f"{run / edited}: family 'zz' is not named in summary.json" in \
            capsys.readouterr().err
        assert not [name for name in os.listdir(run) if name.endswith(".svg")]

    @pytest.mark.parametrize("bin_width, message", [
        (1e-12, "needs more than 1000000 bins"),
        (math.inf, "bin_width must be positive and finite")])
    def test_bin_width_needing_over_a_million_bins_exit_2(
            self, tiny_run, tmp_path, capsys, bin_width, message):
        # the width is read from summary.json and the epsilons from
        # records.csv: either may have been edited since the run
        run = shutil.copytree(tiny_run, tmp_path / "run",
                              ignore=shutil.ignore_patterns("*.svg"))
        summary = json.loads((run / "summary.json").read_text())
        summary["config"]["bin_width"] = bin_width
        (run / "summary.json").write_text(json.dumps(summary))
        assert main(["plot", "--from", str(run)]) == 2
        assert message in capsys.readouterr().err
        assert not [name for name in os.listdir(run) if name.endswith(".svg")]

    def test_summary_that_is_a_directory_exit_2(self, tiny_run, tmp_path,
                                                capsys):
        run = shutil.copytree(tiny_run, tmp_path / "run",
                              ignore=shutil.ignore_patterns("*.svg"))
        (run / "summary.json").unlink()
        (run / "summary.json").mkdir()
        assert main(["plot", "--from", str(run)]) == 2
        assert f"{run / 'summary.json'}: not a file" in capsys.readouterr().err
        assert not [name for name in os.listdir(run) if name.endswith(".svg")]

    @pytest.mark.parametrize("keys, entry", [
        (["families"], {"g": 1}), (["families"], []),
        (["unperturbed"], {"g": 1}),
        # each number a figure draws is checked before the first is drawn
        (["unperturbed", "g", "A"], "1.0"),
        (["unperturbed", "e", "mu"], None),
        (["families", "e", "mean_epsilon"], "0.1"),
        (["families", "g", "mean_epsilon"], True),
        (["config", "bin_width"], True)])
    def test_wrongly_typed_summary_entry_exit_2(self, tiny_run, tmp_path,
                                                capsys, keys, entry):
        run = shutil.copytree(tiny_run, tmp_path / "run",
                              ignore=shutil.ignore_patterns("*.svg"))
        summary = json.loads((run / "summary.json").read_text())
        section = summary
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = entry
        (run / "summary.json").write_text(json.dumps(summary))
        assert main(["plot", "--from", str(run)]) == 2
        assert f"{run / 'summary.json'}: wrongly typed entry" in \
            capsys.readouterr().err
        assert not [name for name in os.listdir(run) if name.endswith(".svg")]

    def test_a_figure_is_drawn_before_its_file_is_opened(
            self, tiny_run, tmp_path, monkeypatch):
        # a fault in drawing is not a config error, and leaves no empty file
        run = shutil.copytree(tiny_run, tmp_path / "run",
                              ignore=shutil.ignore_patterns("*.svg"))

        def broken(records):
            raise TypeError("a fault in the scatter plot")

        monkeypatch.setattr(cli, "render_scatter_svg", broken)
        with pytest.raises(TypeError, match="a fault in the scatter plot"):
            main(["plot", "--from", str(run)])
        assert [name for name in os.listdir(run) if name.endswith(".svg")] \
            == ["histogram.svg"]
