import logging
import math
import os
import struct
from dataclasses import astuple, dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from morilab import experiment
from morilab.chain import read_csv, write_csv
from morilab.experiment import (Scenario, ScenarioConfig, TrialRecord,
                                build_families, histogram, histograms,
                                records_from_csv, records_to_csv,
                                run_scenario, scatter_to_csv, summarize,
                                trial_seed, worker_count)
from morilab.fitting import ModelClass
from morilab.perturb import POSITIVITY_FLOOR

FAST_DECAY = dict(scenario=Scenario.DECAY, d=200, n_trials=6, dt=0.05,
                  t_max=12.0, n_star=10, workers=1, base_seed=3)


class TestHistogram:
    def test_two_values_one_bin(self):
        h = histogram([1e-4, 3e-4], 5e-4)
        assert h.counts.tolist() == [2]
        assert h.edges.tolist() == [0.0, 5e-4]

    def test_counts_sum_to_input_size(self):
        rng = np.random.default_rng(0)
        vals = rng.exponential(0.01, 500)
        h = histogram(vals, 5e-4)
        assert h.counts.sum() == 500

    def test_left_closed_bins(self):
        h = histogram([0.0, 5e-4, 9.99e-4], 5e-4)
        assert h.counts.tolist() == [1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([0.1], 0.0)
        with pytest.raises(ValueError):
            histogram([-0.1], 1e-3)

    def test_histograms_count_each_familys_valid_trials(self):
        rec = lambda trial, family, eps, valid: TrialRecord(
            trial, family, 0, "exp", epsilon=eps, valid=valid)
        records = [rec(0, "g", 7e-4, True), rec(0, "e", math.nan, False),
                   rec(1, "g", 2e-4, True), rec(1, "e", 3e-4, False),
                   rec(2, "g", 9e-3, False)]
        hists = histograms(records, 5e-4)
        # families in the order of their first record; the invalid ones
        # are left out, and a family with none valid gets the empty bin
        assert list(hists) == ["g", "e"]
        assert hists["g"].counts.tolist() == [1, 1]
        assert hists["g"].edges.tolist() == [0.0, 5e-4, 1e-3]
        assert hists["e"].counts.tolist() == [0]
        assert hists["e"].edges.tolist() == [0.0, 5e-4]


class TestScenarioConfig:
    def test_desk_defaults(self):
        cfg = ScenarioConfig.preset(Scenario.DECAY)
        assert (cfg.d, cfg.n_trials, cfg.dt) == (2000, 200, 0.02)
        assert cfg.n_f == 666
        assert cfg.strength == 0.5
        assert cfg.bin_width == 5e-4

    def test_paper_profile(self):
        cfg = ScenarioConfig.preset(Scenario.DECAY, "paper")
        assert (cfg.d, cfg.n_f, cfg.n_trials) == (10000, 3333, 1000)
        assert cfg.strength == 0.5

    def test_oscillation_defaults(self):
        cfg = ScenarioConfig.preset(Scenario.OSCILLATION)
        assert cfg.strength == 0.1
        assert cfg.t_max == 30.0

    def test_pathological_defaults(self):
        cfg = ScenarioConfig.preset(Scenario.PATHOLOGICAL_DECAY)
        assert cfg.n_f == cfg.d
        assert cfg.bin_width == 5e-3
        assert cfg.strength == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(Scenario.DECAY, strength=-0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(Scenario.DECAY, n_trials=0)
        with pytest.raises(ValueError):
            ScenarioConfig(Scenario.DECAY, d=100, n_f=200)

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_nonpositive_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="floor"):
            ScenarioConfig(Scenario.PATHOLOGICAL_DECAY, d=200, n_star=10,
                           floor=floor)

    def test_default_floor_accepted(self):
        cfg = ScenarioConfig(Scenario.PATHOLOGICAL_DECAY, d=200, n_star=10,
                             floor=POSITIVITY_FLOOR)
        assert cfg.floor == POSITIVITY_FLOOR

    def test_negative_eq_window_rejected(self):
        with pytest.raises(ValueError, match="eq_window"):
            ScenarioConfig(Scenario.DECAY, d=200, n_star=10, eq_window=-1.0)
        assert ScenarioConfig(Scenario.DECAY, d=200, n_star=10,
                              eq_window=0.0).eq_window == 0.0

    def test_profile_on_direct_construction(self):
        cfg = ScenarioConfig(Scenario.DECAY, profile="paper")
        assert (cfg.d, cfg.n_f, cfg.n_trials, cfg.dt) == (10000, 3333, 1000, 0.01)
        assert cfg == ScenarioConfig.preset(Scenario.DECAY, "paper")
        desk = ScenarioConfig(Scenario.DECAY)
        assert (desk.profile, desk.d, desk.n_trials, desk.dt) == \
            ("desk", 2000, 200, 0.02)

    def test_explicit_values_override_the_profile(self):
        cfg = ScenarioConfig(Scenario.DECAY, profile="paper", d=3000)
        assert (cfg.d, cfg.n_f, cfg.n_trials, cfg.dt) == (3000, 1000, 1000, 0.01)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            ScenarioConfig(Scenario.DECAY, profile="bogus")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            ScenarioConfig(**{**FAST_DECAY, "workers": workers})

    def test_scenario_from_string(self):
        cfg = ScenarioConfig(scenario="decay", d=100, n_star=5)
        assert cfg.scenario is Scenario.DECAY

    INT_FIELDS = dict(d=200, n_f=50, n_trials=6, n_star=10, base_seed=3,
                      reverse_n_max=40, workers=1)

    @pytest.mark.parametrize("key", sorted(INT_FIELDS))
    @pytest.mark.parametrize("bad", [float, str, bool, np.int64])
    def test_integer_fields_refuse_other_types(self, key, bad):
        value = bad(self.INT_FIELDS[key])
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            ScenarioConfig(Scenario.DECAY, **{**self.INT_FIELDS, key: value})

    def test_integer_fields_accept_ints(self):
        cfg = ScenarioConfig(Scenario.DECAY, **self.INT_FIELDS)
        got = {key: cfg.to_json_dict()[key] for key in self.INT_FIELDS}
        assert got == self.INT_FIELDS
        assert all(type(value) is int for value in got.values())

    @pytest.mark.parametrize("key", ["base_seed", "n_star", "reverse_n_max"])
    def test_integer_fields_without_a_default_refuse_none(self, key):
        # a None base seed would draw fresh entropy for every trial
        with pytest.raises(ValueError, match=f"{key} must be an integer, got None"):
            ScenarioConfig(Scenario.DECAY, **{**self.INT_FIELDS, key: None})

    FLOAT_FIELDS = dict(strength=0.5, dt=0.05, t_max=10.0, a=1.2, b1=2.0,
                        b2=1.6, bin_width=5e-4, eq_threshold=0.1,
                        eq_window=3.0, floor=1e-6)
    # an integer each float field accepts; eq_threshold lies in (0, 1)
    WHOLE = dict(strength=1, dt=1, t_max=10, a=1, b1=2, b2=2, bin_width=1,
                 eq_window=3, floor=1)

    @pytest.mark.parametrize("key", sorted(FLOAT_FIELDS))
    @pytest.mark.parametrize("value", ["1.2", True, False, [0.5], 1j,
                                       math.inf, -math.inf, math.nan])
    def test_float_fields_refuse_other_values(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            ScenarioConfig(Scenario.DECAY, d=200, n_star=10,
                           **{**self.FLOAT_FIELDS, key: value})

    @pytest.mark.parametrize("key", sorted(WHOLE))
    def test_float_fields_accept_ints(self, key):
        cfg = ScenarioConfig(Scenario.DECAY, d=200, n_star=10,
                             **{**self.FLOAT_FIELDS, key: self.WHOLE[key]})
        assert cfg.to_json_dict()[key] == self.WHOLE[key]

    def test_float_fields_accept_floats(self):
        cfg = ScenarioConfig(Scenario.DECAY, d=200, n_star=10,
                             **self.FLOAT_FIELDS)
        got = {key: cfg.to_json_dict()[key] for key in self.FLOAT_FIELDS}
        assert got == self.FLOAT_FIELDS


class TestBuildFamilies:
    def test_decay_families(self):
        fams = build_families(ScenarioConfig(**FAST_DECAY))
        assert [f.name for f in fams] == ["g", "e"]
        assert fams[0].model_class is ModelClass.GAUSS
        assert fams[1].model_class is ModelClass.EXP
        assert fams[0].chain.d == 200

    def test_oscillation_families(self):
        cfg = ScenarioConfig(scenario=Scenario.OSCILLATION, d=300, n_trials=2,
                             workers=1)
        fams = build_families(cfg)
        assert [f.name for f in fams] == ["gdo", "edo"]
        assert fams[1].chain.b[0] == 2.0
        assert fams[1].chain.b[1] == 1.6
        # shared asymptote: both tails run parallel
        tail_g = np.diff(fams[0].chain.b)[-20:]
        tail_e = np.diff(fams[1].chain.b)[-20:]
        assert np.allclose(tail_g, tail_e, atol=1e-10)

    def test_oscillation_designs_reproduce_reported_fits(self):
        from morilab.chain import propagate
        from morilab.design import q_ratio
        from morilab.fitting import detect_equilibration, fit
        cfg = ScenarioConfig.preset(Scenario.OSCILLATION, n_trials=1)
        gdo, edo = build_families(cfg)
        assert abs(q_ratio(gdo.chain, edo.chain) - 1.0) < 1e-3

        c_edo = propagate(edo.chain, dt=cfg.dt, t_max=cfg.t_max)
        n_eq, _ = detect_equilibration(c_edo)
        r = fit(c_edo, edo.model_class, n_eq)
        # the educated-guess head yields a clean damped oscillation
        assert r.model.a == pytest.approx(1.045, abs=0.05)
        assert r.model.mu == pytest.approx(0.57, abs=0.06)
        assert r.model.omega == pytest.approx(2.19, abs=0.1)
        assert r.model.phi == pytest.approx(0.32, abs=0.15)
        assert r.epsilon < 5e-3

        c_gdo = propagate(gdo.chain, dt=cfg.dt, t_max=cfg.t_max)
        n_eq_g, _ = detect_equilibration(c_gdo)
        r_g = fit(c_gdo, gdo.model_class, n_eq_g)
        # within-class target: A exp(-t^2/8) cos(2t) recovered almost exactly
        assert r_g.model.mu == pytest.approx(0.125, abs=2e-3)
        assert r_g.model.omega == pytest.approx(2.0, abs=2e-3)
        assert r_g.epsilon < 2e-3


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        s = trial_seed(0, 0, 0)
        assert trial_seed(0, 0, 0) == s
        assert trial_seed(0, 0, 1) != s
        assert trial_seed(0, 1, 0) != s
        assert trial_seed(1, 0, 0) != s


class TestWorkerCount:
    def test_default_is_the_affinity_not_the_host(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = ScenarioConfig(**{**FAST_DECAY, "workers": None})
        assert worker_count(cfg) == 2

    def test_explicit_workers_win(self):
        cfg = ScenarioConfig(**{**FAST_DECAY, "workers": 2})
        assert worker_count(cfg) == 2


class TestRunScenario:
    def test_each_finished_block_is_logged(self, caplog):
        cfg = ScenarioConfig(**{**FAST_DECAY, "n_trials": 3})
        # the logger's default level filters INFO: a direct call is silent
        run_scenario(cfg)
        assert caplog.records == []
        with caplog.at_level(logging.INFO, logger="morilab"):
            run_scenario(cfg)
        # one worker: one block per family
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] \
            == [("morilab", "INFO", "trials 3/6"), ("morilab", "INFO", "trials 6/6")]

    def test_pool_has_no_more_processes_than_jobs(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
        cfg = ScenarioConfig(**{**FAST_DECAY, "n_trials": 2, "workers": 64})
        records, _ = run_scenario(cfg)
        assert sizes == [4]         # 2 families x 2 one-trial blocks
        assert worker_count(cfg) == 64
        serial = ScenarioConfig(**{**FAST_DECAY, "n_trials": 2})
        assert records == run_scenario(serial)[0]

    def test_zero_strength_degeneracy(self):
        cfg = ScenarioConfig(**{**FAST_DECAY, "strength": 0.0, "n_trials": 3})
        records, summary = run_scenario(cfg)
        for r in records:
            assert r.sigma == 0.0
            assert r.epsilon == pytest.approx(r.eps0, abs=1e-12)
            assert r.clamp_count == 0

    def test_reproducible_and_order_independent(self):
        cfg1 = ScenarioConfig(**FAST_DECAY)
        records1, _ = run_scenario(cfg1)
        cfg2 = ScenarioConfig(**FAST_DECAY)
        records2, _ = run_scenario(cfg2)
        assert records1 == records2

    def test_worker_count_invariance(self):
        serial = ScenarioConfig(**FAST_DECAY)
        records_serial, _ = run_scenario(serial)
        parallel = ScenarioConfig(**{**FAST_DECAY, "workers": 2})
        records_parallel, _ = run_scenario(parallel)
        assert records_serial == records_parallel

    def test_diagonal_edge_every_trial(self):
        cfg = ScenarioConfig(**{**FAST_DECAY, "n_trials": 10})
        records, _ = run_scenario(cfg)
        for r in records:
            assert r.epsilon <= r.sigma + r.eps0 + 1e-9

    def test_sigma_monotone_in_strength(self):
        means = []
        errs = []
        for lam in (0.0, 0.1, 0.25, 0.5):
            cfg = ScenarioConfig(**{**FAST_DECAY, "strength": lam,
                                    "n_trials": 30})
            records, _ = run_scenario(cfg)
            sig = np.array([r.sigma for r in records if r.family == "e"])
            means.append(sig.mean())
            errs.append(sig.std(ddof=1) / np.sqrt(sig.size) if lam else 0.0)
        for i in range(3):
            assert means[i + 1] >= means[i] - 3 * (errs[i] + errs[i + 1])

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(base_seed=st.integers(0, 2**32 - 1))
    def test_seed_and_worker_count_invariance(self, base_seed):
        # blocks of 5, 3 and 2 trials group the chains differently, and a
        # longer run only adds trials: no record depends on either
        tiny = dict(FAST_DECAY, d=120, dt=0.1, t_max=8.0, base_seed=base_seed)
        runs = [run_scenario(ScenarioConfig(**{**tiny, "workers": w,
                                               "n_trials": 5}))[0]
                for w in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]
        assert all(r.valid for r in runs[0])
        longer, _ = run_scenario(ScenarioConfig(**{**tiny, "n_trials": 7}))
        assert [r for r in longer if r.trial < 5] == runs[0]

    def test_summary_consistency(self):
        cfg = ScenarioConfig(**FAST_DECAY)
        records, summary = run_scenario(cfg)
        hists = histograms(records, cfg.bin_width)
        for name, fam in summary.families.items():
            eps = [r.epsilon for r in records if r.family == name and r.valid]
            assert fam.mean_epsilon == pytest.approx(np.mean(eps), rel=1e-12)
            assert hists[name].counts.sum() == fam.n_valid


class TestSummarize:
    def test_empty_family_omitted(self):
        cfg = ScenarioConfig(**FAST_DECAY)
        records, _ = run_scenario(cfg)
        only_e = [r for r in records if r.family == "e"]
        assert set(summarize(only_e)) == {"e"}

    def test_scatter_pairs(self, tmp_path):
        cfg = ScenarioConfig(**FAST_DECAY)
        records, _ = run_scenario(cfg)
        scatter_to_csv(records, tmp_path / "scatter.csv")
        rows = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
        pairs = [row.split(",")[1:] for row in rows if row.startswith("g,")]
        assert pairs == [[repr(r.sigma), repr(r.epsilon)]
                         for r in records if r.family == "g"]
        assert len(pairs) == cfg.n_trials


class TestRecordsCsv:
    def test_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(**FAST_DECAY)
        records, _ = run_scenario(cfg)
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert records_from_csv(path) == records

    def test_header_follows_the_record_fields(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv([], path)
        assert path.read_text().strip() == (
            "trial,family,seed,model,A,mu,omega,phi,epsilon,sigma,eps0,n_eq,"
            "equilibrated,clamp_count,converged,valid")

    def test_a_new_field_is_a_new_column(self, tmp_path, monkeypatch):
        # annotated as a string, as experiment.py's postponed annotations are
        @dataclass(frozen=True)
        class Wider(TrialRecord):
            extra: "float" = 0.0

        monkeypatch.setattr(experiment, "TrialRecord", Wider)
        record = Wider(trial=1, family="g", seed=2, model="gauss", a=1.0,
                       mu=0.5, omega=None, phi=None, epsilon=0.1, sigma=0.2,
                       eps0=0.05, n_eq=9, equilibrated=True, clamp_count=0,
                       converged=True, valid=True, extra=2.5)
        path = tmp_path / "records.csv"
        records_to_csv([record], path)
        assert path.read_text().splitlines()[0].endswith(",valid,extra")
        assert records_from_csv(path) == [record]

    def test_failed_record(self):
        # what a trial that failed to propagate reached: its draw
        record = TrialRecord(trial=4, family="e", seed=9, model="exp",
                             clamp_count=3)
        assert (record.trial, record.family, record.seed, record.model,
                record.clamp_count) == (4, "e", 9, "exp", 3)
        assert all(math.isnan(x) for x in (record.a, record.mu, record.epsilon,
                                           record.sigma, record.eps0))
        assert (record.omega, record.phi, record.n_eq) == (None, None, 0)
        assert not (record.equilibrated or record.converged or record.valid)

    def test_byte_identical_across_runs(self, tmp_path):
        records1, _ = run_scenario(ScenarioConfig(**FAST_DECAY))
        records2, _ = run_scenario(ScenarioConfig(**FAST_DECAY))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        records_to_csv(records1, p1)
        records_to_csv(records2, p2)
        assert p1.read_bytes() == p2.read_bytes()


def bits(value):
    """A record field compared bit for bit: floats by their IEEE bytes."""
    return struct.pack("<d", value) if isinstance(value, float) else value


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the optional oscillation parameters, with the edge cases always in reach
OPTIONAL = st.one_of(st.none(), FINITE, st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]))

RECORDS = st.lists(st.builds(
    TrialRecord, trial=st.integers(0, 10**6),
    family=st.sampled_from(["g", "e", "gdo", "edo"]),
    seed=st.integers(0, 2**64 - 1),
    model=st.sampled_from([m.value for m in ModelClass]),
    a=FINITE, mu=FINITE, omega=OPTIONAL, phi=OPTIONAL, epsilon=FINITE,
    sigma=FINITE, eps0=FINITE, n_eq=st.integers(0, 10**6),
    equilibrated=st.booleans(), clamp_count=st.integers(0, 10**6),
    converged=st.booleans(), valid=st.booleans()), max_size=8)


class TestRecordsCsvProperty:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=RECORDS)
    def test_roundtrip_bit_exact(self, tmp_path, records):
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        back = records_from_csv(path)
        assert [tuple(map(bits, astuple(r))) for r in back] == \
            [tuple(map(bits, astuple(r))) for r in records]


# the edges of the float range, and nan, which a failed trial's float
# cells hold
EDGES = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308, math.nan])
# one column of each records.csv cell kind but the flags, which are
# written as the ints 0 and 1
COLUMNS = {"int": st.integers(), "str": st.text(st.characters(
               blacklist_categories=["Cs"], blacklist_characters="\x00")),
           "float": FINITE | EDGES, "float | None": st.none() | FINITE | EDGES}


class TestWriteCsvProperty:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(*COLUMNS.values()), max_size=8))
    def test_rows_read_back_bit_exact(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        header = ["n", "name", "x", "y"]
        write_csv(path, header, rows)
        back = list(read_csv(path, header,
                             [experiment._CELLS[kind] for kind in COLUMNS]))
        assert [tuple(map(bits, row)) for row in back] == \
            [tuple(map(bits, row)) for row in rows]
