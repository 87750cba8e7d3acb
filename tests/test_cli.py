import json
import logging
import os
import sys
from collections.abc import Iterator

import numpy as np
import pytest
import scipy

from morilab import chain, cli, experiment
from morilab.chain import CorrelationSeries, LanczosChain, PropagationError
from morilab.cli import ConfigError, main, parse_config, parse_target
from morilab.experiment import (Scenario, ScenarioConfig, build_families,
                                exemplary_trials, records_from_csv, summarize)
from morilab.perturb import apply_draw, draw_noise


class TestParseTarget:
    def test_gdo_target(self):
        c = parse_target("exp(-t^2/8)*cos(2t)")
        assert c.gauss_rate == pytest.approx(-0.125)
        assert c.exp_rate == 0.0
        assert c.cos_freq == 2.0

    def test_plain_exponential(self):
        c = parse_target("exp(-0.24*t)")
        assert c.exp_rate == pytest.approx(-0.24)
        assert c.gauss_rate == 0.0

    def test_mixed_product(self):
        c = parse_target("exp(-t)*exp(-0.5*t^2)")
        assert c.exp_rate == -1.0
        assert c.gauss_rate == -0.5

    def test_spaces_tolerated(self):
        c = parse_target("exp(-t^2 / 8) * cos(2 t)")
        assert c.gauss_rate == pytest.approx(-0.125)

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigError):
            parse_target("sinh(t)")
        with pytest.raises(ConfigError):
            parse_target("exp(-t^3)")

    def test_growing_target_rejected(self):
        with pytest.raises(ConfigError):
            parse_target("exp(t)")

    def test_double_cosine_rejected(self):
        with pytest.raises(ConfigError):
            parse_target("cos(t)*cos(2t)")


class TestParseConfig:
    def test_flags_only_desk_default(self):
        cfg = parse_config(None, {"scenario": "decay"})
        assert cfg.d == 2000 and cfg.n_trials == 200
        assert cfg.strength == 0.5

    def test_paper_profile(self):
        cfg = parse_config(None, {"scenario": "decay", "profile": "paper"})
        assert (cfg.d, cfg.n_f, cfg.n_trials) == (10000, 3333, 1000)
        assert cfg.strength == 0.5

    def test_negative_strength_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"scenario": "decay", "strength": -1.0})

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "decay", "bogus_key": 1}))
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(str(path), {})

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
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
        assert main(["design", "--family", "exponential", "--nstar", "10",
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
        main(["design", "--family", "gaussian", "--nstar", "4", "--d", "10",
              "--out", str(out)])
        chain = LanczosChain.from_csv(out)
        assert chain.b[3] == 2.0
        assert chain.b[4] == 2.25

    @pytest.mark.parametrize("index, family", [(0, "gdo"), (1, "edo")])
    def test_design_oscillating_matches_build_families(self, tmp_path, index,
                                                       family):
        out, ref = tmp_path / "design.csv", tmp_path / "families.csv"
        assert main(["design", "--family", family, "--d", "300",
                     "--out", str(out)]) == 0
        built = build_families(ScenarioConfig(Scenario.OSCILLATION, d=300))[index]
        assert built.name == family
        built.chain.to_csv(ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_reverse_with_continuation(self, tmp_path):
        coeffs = tmp_path / "b.csv"
        chain_out = tmp_path / "chain.csv"
        code = main(["reverse", "--target", "exp(-t^2/8)*cos(2t)",
                     "--nmax", "50", "--out", str(coeffs),
                     "--continue-to", "400", "--chain-out", str(chain_out)])
        assert code == 0
        rows = coeffs.read_text().strip().splitlines()
        assert rows[0] == "n,b,achieved_flag"
        assert len(rows) == 51  # 50 coefficients
        assert os.path.exists(str(coeffs) + ".meta.json")
        chain = LanczosChain.from_csv(chain_out)
        assert chain.d == 400

    def test_perturb_deterministic(self, tmp_path):
        chain_csv = tmp_path / "chain.csv"
        main(["design", "--family", "gaussian", "--nstar", "5", "--d", "120",
              "--out", str(chain_csv)])
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for out in (out1, out2):
            assert main(["perturb", "--chain", str(chain_csv), "--lambda",
                         "0.5", "--seed", "9", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        pert = LanczosChain.from_csv(out1)
        base = LanczosChain.from_csv(chain_csv)
        assert not np.array_equal(pert.b, base.b)

    def test_missing_chain_file_exit_2(self, tmp_path):
        code = main(["propagate", "--chain", str(tmp_path / "nope.csv"),
                     "--tmax", "5", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_numeric_failure_exit_3(self, monkeypatch, tmp_path):
        chain_csv = tmp_path / "chain.csv"
        main(["design", "--family", "gaussian", "--nstar", "5", "--d", "60",
              "--out", str(chain_csv)])
        def boom(*a, **k):
            raise PropagationError("norm drift 1e-3; shrink dt")
        monkeypatch.setattr(cli, "propagate", boom)
        code = main(["propagate", "--chain", str(chain_csv), "--tmax", "5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3


TINY_TRIALS = 4
TINY_RUN = ["run", "--scenario", "decay", "--d", "150", "--trials",
            str(TINY_TRIALS), "--dt", "0.05", "--tmax", "10", "--nstar", "8",
            "--workers", "1"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(TINY_RUN + ["--out", str(out)])
    assert code == 0
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
        propagations = count_calls(monkeypatch, chain.propagate_many)
        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 0
        assert len(builds) == 1
        # each baseline, then one call per family: with one worker, each
        # family's trials form a single block
        assert [len(chains) for chains, *_ in propagations] == \
            [1, 1, TINY_TRIALS, TINY_TRIALS]

    def test_exemplar_curves_match_fresh_propagation(self, tiny_run):
        config = parse_config(str(tiny_run / "manifest.json"), {})
        records = records_from_csv(tiny_run / "records.csv")
        summary = summarize(records, config.bin_width)
        _, rows = cli._read_csv_rows(tiny_run / "curves.csv")
        for family in build_families(config):
            exemplars = exemplary_trials(records, summary, family.name)
            assert exemplars
            shown = [r for r in rows if r[0] == family.name]
            assert list(dict.fromkeys(int(r[1]) for r in shown)) == \
                [rec.trial for rec in exemplars]
            for rec in exemplars:
                draw = draw_noise(config.d, config.n_f, rec.seed)
                pert = apply_draw(family.chain, config.strength, draw,
                                  floor=config.floor)
                series = chain.propagate(pert.chain, dt=config.dt,
                                         t_max=config.t_max)
                stride = max(1, len(series) // 1500)
                assert [r[3] for r in shown if int(r[1]) == rec.trial] == \
                    [f"{c:.17g}" for c in series.values[::stride]]


def failing_where(fn, condition, error):
    """fn, raising error instead where condition(first argument) holds; an
    iterator argument is read into a list first."""
    def wrapped(first, *args, **kwargs):
        if isinstance(first, Iterator):
            first = list(first)
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
        monkeypatch.setattr(experiment, "propagate_many", failing_where(
            chain.propagate_many,
            lambda chains: any(c.b.tobytes() == bad_chain for c in chains),
            PropagationError("moment guard tripped")))
        monkeypatch.setattr(experiment, "propagate", failing_where(
            chain.propagate, lambda c: c.b.tobytes() == bad_chain,
            PropagationError("moment guard tripped")))
        monkeypatch.setattr(experiment, "fit", failing_where(
            experiment.fit, lambda s: s.values.tobytes() == bad_fit,
            RuntimeError("no fit restart could be evaluated")))

        assert main(TINY_RUN + ["--out", str(tmp_path)]) == 3
        assert "g trial 1: PropagationError" in capsys.readouterr().err
        assert set(os.listdir(tiny_run)) == set(os.listdir(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failures"] == [
            {"family": "g", "trial": 1,
             "error": "PropagationError: moment guard tripped"},
            {"family": "e", "trial": 2,
             "error": "RuntimeError: no fit restart could be evaluated"}]
        assert summary["families"]["g"]["n_invalid"] == 1
        records = records_from_csv(tmp_path / "records.csv")
        failed = [r for r in records if (r.family, r.trial) in
                  {("g", 1), ("e", 2)}]
        assert len(failed) == 2
        for r in failed:
            assert not r.valid and not r.converged
            assert np.isnan([r.a, r.mu, r.epsilon, r.sigma, r.eps0]).all()
        # every other trial's row is the healthy run's, byte for byte;
        # g's other trials were propagated one at a time
        ok_rows = lambda path: [row for row in path.read_text().splitlines()
                                if not row.startswith(("1,g,", "2,e,"))]
        assert ok_rows(tmp_path / "records.csv") == \
            ok_rows(tiny_run / "records.csv")


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
        assert manifest["scipy"] == scipy.__version__
        assert manifest["engine"] == "moments"
        assert manifest["nproc"] == len(os.sched_getaffinity(0))
        assert manifest["workers"] == 1
        for name, digest in manifest["outputs"].items():
            assert cli._sha256(tiny_run / name) == digest

    def test_replay_from_manifest(self, tiny_run, tmp_path):
        out2 = tmp_path / "replay"
        code = main(["run", "--config", str(tiny_run / "manifest.json"),
                     "--out", str(out2)])
        assert code == 0
        assert (out2 / "records.csv").read_bytes() == \
            (tiny_run / "records.csv").read_bytes()

    def test_plot_rerender_byte_identical(self, tiny_run):
        svgs = [n for n in os.listdir(tiny_run) if n.endswith(".svg")]
        before = {n: (tiny_run / n).read_bytes() for n in svgs}
        assert main(["plot", "--from", str(tiny_run)]) == 0
        for n in svgs:
            assert (tiny_run / n).read_bytes() == before[n]

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
            assert run.baseline.method == "moments"

    def test_flat_file_headers(self, tiny_run):
        hist = (tiny_run / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,family,count"
        scat = (tiny_run / "scatter.csv").read_text().splitlines()
        assert scat[0] == "family,sigma,epsilon"
        curves = (tiny_run / "curves.csv").read_text().splitlines()
        assert curves[0] == "family,trial,t,C,fit"

    def test_scenario_flag_required_without_config(self):
        assert main(["run", "--out", "/tmp/should-not-exist-xyz"]) == 2


class TestPlotCommand:
    def test_empty_dir_is_config_error(self, tmp_path):
        assert main(["plot", "--from", str(tmp_path)]) == 2
