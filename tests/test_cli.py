import csv
import json
import os
import resource
import subprocess
import sys

import pytest

import levydetect
from levydetect.cli import main
from levydetect.rng import PURPOSE

BM_MODEL = {
    "pre": {"family": "brownian", "sigma": 1.0, "drift": 0.0},
    "post": {"family": "brownian", "sigma": 1.0, "drift": 1.0},
}
SIGMA_MISMATCH = {
    "pre": {"family": "brownian", "sigma": 1.0, "drift": 0.0},
    "post": {"family": "brownian", "sigma": 2.0, "drift": 0.0},
}
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples_config")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(levydetect.__file__)))
POISSON_MODEL = {
    "pre": {"family": "compound_poisson", "intensity": 1.0,
            "jumps": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}},
    "post": {"family": "compound_poisson", "intensity": 2.0,
             "jumps": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}},
}


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _run(tmp_path, sub, payload, outdir, extra=()):
    cfg = _write_config(tmp_path, f"{sub}.json", payload)
    out = str(tmp_path / outdir)
    code = main([sub, "--config", cfg, "--out", out, *extra])
    return code, out


class TestValidate:
    def test_admissible_model(self, tmp_path, capsys):
        code, out = _run(tmp_path, "validate", {"model": BM_MODEL}, "ok")
        assert code == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["results"]["admissible"] is True
        assert summary["results"]["alpha"] == pytest.approx(1.0)

    def test_sigma_mismatch_exit_code_and_condition(self, tmp_path, capsys):
        code, out = _run(tmp_path, "validate", {"model": SIGMA_MISMATCH}, "bad")
        assert code == 3
        printed = capsys.readouterr().out
        assert "volatility-mismatch" in printed
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["results"]["violated_condition"] == "volatility-mismatch"

    def test_unparseable_config(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{ not json")
        assert main(["validate", "--config", str(bad), "--out",
                     str(tmp_path / "x")]) == 2

    def test_missing_model_block(self, tmp_path):
        code, _ = _run(tmp_path, "validate", {"simulation": {}}, "x2")
        assert code == 2


class TestSimulate:
    def test_artifacts_written(self, tmp_path):
        payload = {
            "model": POISSON_MODEL,
            "simulation": {"horizon": 10.0, "grid_dt": 0.01, "master_seed": 3},
            "experiment": {"tau": 5.0},
            "output": {"dump_llr": True},
        }
        code, out = _run(tmp_path, "simulate", payload, "sim")
        assert code == 0
        for name in ("path_dump.csv", "jump_ledger.csv", "llr_dump.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        first = open(os.path.join(out, "path_dump.csv")).readline().strip()
        assert first == "t,x"

    def test_path_beyond_memory_exits_two_and_writes_nothing(self, tmp_path, capsys):
        """Horizon 1e15 at grid 0.01 asks for about 700 PiB of grid points,
        which no allocator grants, so the request fails at once."""
        examples = os.path.join(os.path.dirname(__file__), "..", "examples_config")
        payload = json.loads(open(os.path.join(examples, "brownian.json")).read())
        payload["simulation"]["horizon"] = 1e15
        code, out = _run(tmp_path, "simulate", payload, "huge")
        assert code == 2
        assert ("simulation.horizon: path of 100000000000000001 grid points does not "
                "fit in memory") in capsys.readouterr().err
        assert not os.path.exists(out)


class TestArl:
    PAYLOAD = {
        "model": BM_MODEL,
        "simulation": {"horizon": 120.0, "grid_dt": 0.1, "n_rep": 1200,
                       "master_seed": 99},
        "detector": {"rule": "cusum_grid", "delta": 0.1, "log_barrier": 2.0},
        "experiment": {"regime": "in_control"},
    }

    def test_runs_and_reports(self, tmp_path):
        code, out = _run(tmp_path, "arl", self.PAYLOAD, "arl")
        assert code == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        est = summary["results"]["report"]["estimate"]
        assert 5.0 < est < 20.0
        stops = open(os.path.join(out, "stops.csv")).read().splitlines()
        assert len(stops) == 1201
        assert stops[0].split(",")[:3] == ["rule", "h_bar", "delta"]

    def test_stops_rows_name_their_stream(self, tmp_path):
        """stream_id is the composed Philox id: purpose code in the top
        byte, then the block, then the replication index."""
        code, out = _run(tmp_path, "arl", self.PAYLOAD, "sid")
        assert code == 0
        with open(os.path.join(out, "stops.csv")) as fh:
            rows = list(csv.DictReader(fh))
        codes = {v: k for k, v in PURPOSE.items()}
        for i in (0, 1, len(rows) - 1):
            sid = int(rows[i]["stream_id"])
            assert codes[sid >> 56] == "arl"
            assert (sid >> 40) & 0xFFFF == 0
            assert sid & ((1 << 40) - 1) == i

    def test_rerun_is_byte_identical(self, tmp_path):
        code1, out1 = _run(tmp_path, "arl", self.PAYLOAD, "arl1")
        code2, out2 = _run(tmp_path, "arl", self.PAYLOAD, "arl2")
        assert code1 == code2 == 0
        for name in ("report.csv", "stops.csv"):
            assert open(os.path.join(out1, name), "rb").read() == \
                open(os.path.join(out2, name), "rb").read()

    def test_config_file_never_mutated(self, tmp_path):
        cfg = _write_config(tmp_path, "frozen.json", self.PAYLOAD)
        before = open(cfg, "rb").read()
        assert main(["arl", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
        assert open(cfg, "rb").read() == before

    def test_threads_flag_does_not_change_outputs(self, tmp_path):
        code1, out1 = _run(tmp_path, "arl", self.PAYLOAD, "t1",
                           extra=["--threads", "1"])
        code2, out2 = _run(tmp_path, "arl", self.PAYLOAD, "t3",
                           extra=["--threads", "3"])
        assert code1 == code2 == 0
        assert open(os.path.join(out1, "stops.csv"), "rb").read() == \
            open(os.path.join(out2, "stops.csv"), "rb").read()
        assert open(os.path.join(out1, "report.csv"), "rb").read() == \
            open(os.path.join(out2, "report.csv"), "rb").read()

    def test_summary_round_trips_as_config(self, tmp_path):
        code1, out1 = _run(tmp_path, "arl", self.PAYLOAD, "orig")
        assert code1 == 0
        summary_path = os.path.join(out1, "summary.json")
        out2 = str(tmp_path / "replay")
        code2 = main(["arl", "--config", summary_path, "--out", out2])
        assert code2 == 0
        assert open(os.path.join(out1, "report.csv"), "rb").read() == \
            open(os.path.join(out2, "report.csv"), "rb").read()

    def test_seed_override_changes_results(self, tmp_path):
        code1, out1 = _run(tmp_path, "arl", self.PAYLOAD, "s1")
        code2, out2 = _run(tmp_path, "arl", self.PAYLOAD, "s2",
                           extra=["--seed", "123456"])
        assert code1 == code2 == 0
        assert open(os.path.join(out1, "report.csv"), "rb").read() != \
            open(os.path.join(out2, "report.csv"), "rb").read()

    def test_inadmissible_model_exit_three(self, tmp_path):
        payload = dict(self.PAYLOAD, model=SIGMA_MISMATCH)
        code, _ = _run(tmp_path, "arl", payload, "bad")
        assert code == 3

    @pytest.mark.parametrize("sub", ["arl", "lorden", "lowerbound", "calibrate"])
    @pytest.mark.parametrize("rule", ["cusum_continuous", "cusum_iid"])
    def test_non_harness_rule_exits_two(self, tmp_path, capsys, sub, rule):
        """The harness monitors on the delta grid only; a rule it would not
        run as named is a config error, not a relabelled grid run."""
        detector = dict(self.PAYLOAD["detector"], rule=rule, gamma=20.0)
        code, out = _run(tmp_path, sub, dict(self.PAYLOAD, detector=detector),
                         f"{sub}_{rule}")
        assert code == 2
        assert "detector.rule" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("block,field,value", [
    ("experiment", "regime", "sideways"),
    ("simulation", "n_rep", 0),
    ("detector", "delta", -0.1),
])
def test_bad_config_field_exits_two_and_names_it(tmp_path, capsys, block, field,
                                                 value):
    payload = dict(TestArl.PAYLOAD)
    payload[block] = dict(payload[block], **{field: value})
    code, out = _run(tmp_path, "arl", payload, f"{block}_{field}")
    assert code == 2
    assert f"{block}.{field}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("sub,block,field,value", [
    ("lorden", "experiment", "tau_grid", []),
    ("converge", "experiment", "dyadic_levels", 0),
    ("calibrate", "experiment", "n_rep_calibrate", 0),
    ("arl", "detector", "log_barrier", "x"),
    ("arl", "simulation", "horizon", "NaN"),
    ("converge", "simulation", "grid_dt", 0),
    ("arl", "simulation", "threads", "two"),
    ("arl", "simulation", "master_seed", -1),
    ("converge", "experiment", "base_delta", 0.1),
    ("converge", "simulation", "horizon", 0.01),
    ("compare", "experiment", "rules", [["cusum_grid"]]),
    ("compare", "experiment", "rules", [["cusum_grid", "x"]]),
    ("arl", "simulation", "horizon", 0.001),
    ("lorden", "simulation", "horizon", 0.001),
    ("lowerbound", "simulation", "horizon", 0.001),
    ("lowerbound", "detector", "delta", None),
    ("calibrate", "detector", "delta", None),
    ("lowerbound", "experiment", "fixed_steps", "x"),
    ("lowerbound", "experiment", "fixed_steps", 0),
    ("lowerbound", "experiment", "fixed_steps", 1000000),
    ("calibrate", "detector", "rel_tol", "x"),
    ("calibrate", "detector", "rel_tol", -1),
    ("calibrate", "detector", "gamma", "x"),
    ("compare", "detector", "gamma", True),
    ("simulate", "experiment", "tau", "x"),
    ("simulate", "output", "dump_llr", "no"),
    ("arl", "simulation", "hoizon", 5),
    ("arl", "detector", "log_barrier", -1),
    ("lorden", "detector", "log_barrier", -1),
    ("lowerbound", "detector", "log_barrier", -1),
    ("converge", "detector", "log_barrier", -1),
    ("arl", "simulation", "n_rep", 1),
    ("lowerbound", "simulation", "n_rep", 1),
    ("converge", "simulation", "n_rep", 1),
    ("arl", "simulation", "horizon", 1e308),
    ("lorden", "simulation", "horizon", 1e308),
    ("lowerbound", "simulation", "horizon", 1e308),
    ("simulate", "simulation", "horizon", 1e308),
    ("simulate", "simulation", "horizon", 0.001),
    ("converge", "simulation", "horizon", 1e308),
    ("arl", "simulation", "n_rep", 2 ** 40),
    ("calibrate", "experiment", "n_rep_calibrate", 10 ** 13),
    ("compare", "experiment", "n_rep_calibrate", 10 ** 13),
])
def test_bad_field_exits_two_on_the_command_that_reads_it(tmp_path, capsys, sub,
                                                          block, field, value):
    """Each value reached the command that reads it and ended in a traceback
    or a NaN report; the config check must reject it before any work."""
    payload = dict(TestArl.PAYLOAD, simulation=dict(TestArl.PAYLOAD["simulation"],
                                                    n_rep=50))
    payload["detector"] = dict(payload["detector"], gamma=20.0)
    payload[block] = dict(payload.get(block, {}), **{field: value})
    code, out = _run(tmp_path, sub, payload, f"{block}_{field}")
    assert code == 2
    assert f"{block}.{field}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("sub,block,field", [
    ("arl", "simulation", "n_rep"),
    ("lorden", "simulation", "n_rep"),
    ("lowerbound", "simulation", "n_rep"),
    ("converge", "simulation", "n_rep"),
    ("compare", "simulation", "n_rep"),
    ("calibrate", "experiment", "n_rep_calibrate"),
    ("compare", "experiment", "n_rep_calibrate"),
])
def test_replications_beyond_memory_exit_two_and_write_nothing(tmp_path, sub, block,
                                                               field):
    """10^11 replications have stream ids but no room: their stops alone
    take 745 GiB, more than the child's 4 GiB address space, so the request
    fails at once, before any path is drawn. A calibration sample of 10^11
    paths once built 1,024 generators per batch for 10^8 batches, so a hang
    is the failure the timeout catches."""
    payload = json.loads(open(os.path.join(EXAMPLES, "converge.json")).read())
    payload["detector"]["gamma"] = 20.0
    payload["experiment"]["n_rep_calibrate"] = 100
    payload[block][field] = 10 ** 11
    cfg, out = _write_config(tmp_path, "huge.json", payload), str(tmp_path / "huge")
    cap = 4 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "levydetect.cli", sub, "--config", cfg, "--out", out],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {block}.{field}: " in proc.stderr
    assert "not fit in memory" in proc.stderr
    assert not os.path.exists(out)


def test_shiryaev_roberts_takes_a_negative_log_barrier(tmp_path):
    """R crosses exp(h) for any finite h, so only the CUSUM rules need h >= 0."""
    payload = dict(TestArl.PAYLOAD, simulation=dict(TestArl.PAYLOAD["simulation"],
                                                    n_rep=50))
    payload["detector"] = dict(payload["detector"], rule="shiryaev_roberts",
                               log_barrier=-1.0)
    code, out = _run(tmp_path, "arl", payload, "sr_negative")
    assert code == 0
    assert os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("model,expected", [
    ({"pre": dict(BM_MODEL["pre"], sigma="abc"), "post": BM_MODEL["post"]},
     "model.pre: sigma must be a finite number"),
    ({"pre": dict(POISSON_MODEL["pre"], jumps=3), "post": POISSON_MODEL["post"]},
     "model.pre: jumps must be a JSON object"),
    ({"pre": [1], "post": BM_MODEL["post"]},
     "model.pre: process block must be a JSON object"),
    ({"pre": POISSON_MODEL["pre"],
      "post": dict(POISSON_MODEL["post"], jumps={"kind": "gaussian", "mean": 0.0, "sd": "x"})},
     "model.post: jumps.sd must be a finite number"),
    ({"pre": BM_MODEL["pre"], "post": dict(BM_MODEL["post"], sigm=3.0)},
     "model.post: unknown key 'sigm'"),
    ({"pre": dict(POISSON_MODEL["pre"], jumps={"kind": "gaussian", "mean": 0.0, "sdd": 1.0}),
      "post": POISSON_MODEL["post"]},
     "model.pre: unknown key 'jumps.sdd'"),
    ({"pre": POISSON_MODEL["pre"], "post": dict(POISSON_MODEL["post"], sigma=0.7)},
     "model.post: compound_poisson has sigma = 0"),
    ({"pre": BM_MODEL["pre"], "post": BM_MODEL["post"], "mid": BM_MODEL["pre"]},
     "unknown key 'model.mid'"),
    ({"pre": dict(BM_MODEL["pre"], sigma=-1.0), "post": BM_MODEL["post"]},
     "model.pre: sigma must be nonnegative"),
])
def test_bad_model_field_exits_two_and_names_it(tmp_path, capsys, model, expected):
    payload = dict(TestArl.PAYLOAD, model=model,
                   simulation=dict(TestArl.PAYLOAD["simulation"], n_rep=50))
    code, out = _run(tmp_path, "arl", payload, "model")
    assert code == 2
    assert expected in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("block,value", [("simulation", [1]), ("detector", None)])
def test_block_that_is_not_an_object_exits_two(tmp_path, capsys, block, value):
    code, out = _run(tmp_path, "arl", dict(TestArl.PAYLOAD, **{block: value}), block)
    assert code == 2
    assert f"{block} must be a JSON object" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("flag,value,field", [("--seed", "-1", "simulation.master_seed"),
                                              ("--threads", "0", "simulation.threads")])
def test_flags_are_checked_like_the_config_fields(tmp_path, capsys, flag, value, field):
    code, out = _run(tmp_path, "arl", TestArl.PAYLOAD, "flag", extra=[flag, value])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))


def test_every_command_censors_at_the_whole_steps_that_fit(tmp_path):
    """A horizon of 10.06 on steps of 0.1 holds 100 whole steps, and every
    command runs to their end, 10.0: arl and lowerbound rounded it to 101
    steps, a censoring horizon of 10.1 past the configured one. At barrier
    9 no in-control path stops, so each report reads its horizon."""
    payload = {
        "model": BM_MODEL,
        "simulation": {"horizon": 10.06, "grid_dt": 0.1, "n_rep": 50, "master_seed": 5},
        "detector": {"rule": "cusum_grid", "delta": 0.1, "log_barrier": 9.0},
        "experiment": {"regime": "in_control", "base_delta": 0.4, "dyadic_levels": 2},
    }
    results = {}
    for sub in ("simulate", "arl", "lowerbound", "converge"):
        code, out = _run(tmp_path, sub, payload, sub)
        assert code == 0, sub
        with open(os.path.join(out, "summary.json")) as fh:
            results[sub] = json.load(fh)["results"]
    assert results["simulate"]["n_grid_points"] == 101
    arl, lb = results["arl"]["report"], results["lowerbound"]["lower_bound"]
    assert arl["n_censored"] == lb["n_censored"] == 50
    assert arl["horizon"] == lb["horizon"] == results["lowerbound"]["delay"]["horizon"] == 10.0
    assert results["converge"]["levels"][-1]["mean_stop"] == 10.0


class TestConverge:
    def test_monotone_levels(self, tmp_path):
        payload = {
            "model": BM_MODEL,
            "simulation": {"horizon": 40.0, "grid_dt": 0.01, "n_rep": 800,
                           "master_seed": 17},
            "detector": {"rule": "cusum_grid", "delta": 0.16, "log_barrier": 2.0},
            "experiment": {"regime": "out_of_control", "dyadic_levels": 4,
                           "base_delta": 0.16},
        }
        code, out = _run(tmp_path, "converge", payload, "conv")
        assert code == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["results"]["monotone_fraction"] == 1.0
        rows = summary["results"]["levels"]
        means = [r["mean_stop"] for r in rows]
        assert all(a >= b for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("field", ["experiment.base_delta", "detector.delta"])
    def test_base_step_beyond_memory_exits_two_and_writes_nothing(self, tmp_path,
                                                                  capsys, field):
        """A base step of 2^40 grid steps: every sub-block is at least that
        wide, so the first one asks for 1024 paths x 8 TiB, which no
        allocator grants, and the request fails at once."""
        payload = {
            "model": BM_MODEL,
            "simulation": {"horizon": 1024.0, "grid_dt": 2.0 ** -30, "n_rep": 1024,
                           "master_seed": 17},
            "detector": {"rule": "cusum_grid", "delta": 1024.0, "log_barrier": 2.0},
            "experiment": {"regime": "out_of_control", "dyadic_levels": 4,
                           "base_delta": 1024.0 if field.startswith("exp") else None},
        }
        code, out = _run(tmp_path, "converge", payload, "huge")
        assert code == 2
        assert (f"{field}: a base step of {2 ** 40} grid steps per path does not fit "
                "in memory") in capsys.readouterr().err
        assert not os.path.exists(out)


class TestLowerbound:
    def test_reports_ratio_and_delay(self, tmp_path):
        payload = {
            "model": BM_MODEL,
            "simulation": {"horizon": 200.0, "grid_dt": 0.1, "n_rep": 1500,
                           "master_seed": 23},
            "detector": {"rule": "cusum_grid", "delta": 0.1, "log_barrier": 2.0},
        }
        code, out = _run(tmp_path, "lowerbound", payload, "lb")
        assert code == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        lb = summary["results"]["lower_bound"]["estimate"]
        delay = summary["results"]["delay"]["estimate"]
        assert abs(lb - delay) / delay < 0.15

    def test_fixed_rule_steps_at_detector_delta(self, tmp_path):
        """The fixed one-step rule takes its step from detector.delta, and
        its ratio functional is exactly that step."""
        payload = {
            "model": BM_MODEL,
            "simulation": {"horizon": 50.0, "n_rep": 300, "master_seed": 23},
            "detector": {"rule": "cusum_grid", "delta": 0.25, "log_barrier": 2.0},
            "experiment": {"fixed_steps": 1},
        }
        code, out = _run(tmp_path, "lowerbound", payload, "lb_fixed")
        assert code == 0
        with open(os.path.join(out, "report.csv")) as fh:
            lb = next(csv.DictReader(fh))
        assert lb["label"] == "lower_bound" and lb["prov_rule"] == "fixed_1"
        assert float(lb["prov_grid_dt"]) == 0.25
        assert float(lb["estimate"]) == 0.25


class TestCalibrate:
    def test_needs_gamma(self, tmp_path):
        payload = {
            "model": BM_MODEL,
            "detector": {"rule": "cusum_grid", "delta": 0.1, "log_barrier": 0.0},
        }
        code, _ = _run(tmp_path, "calibrate", payload, "cal0")
        assert code == 2

    def test_calibrates(self, tmp_path):
        payload = {
            "model": BM_MODEL,
            "simulation": {"master_seed": 5, "threads": 1},
            "detector": {"rule": "cusum_grid", "delta": 0.1, "gamma": 10.0,
                         "rel_tol": 0.05},
            "experiment": {"n_rep_calibrate": 1200},
        }
        code, out = _run(tmp_path, "calibrate", payload, "cal")
        assert code == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert abs(summary["results"]["achieved"] - 10.0) < 1.5


# Twenty replications per probe leave steps in the empirical run-length map
# wider than the 2% window at gamma 50: its levels on either side of the
# target are 47.64 and 51.02 (seed 42).
MISSED_TOLERANCE = {
    "model": BM_MODEL,
    "simulation": {"horizon": 200.0, "n_rep": 200, "master_seed": 42},
    "detector": {"rule": "cusum_grid", "delta": 0.1, "gamma": 50.0, "rel_tol": 0.02},
    "experiment": {"n_rep_calibrate": 20},
}


def test_calibrate_that_misses_rel_tol_exits_four(tmp_path, capsys):
    code, out = _run(tmp_path, "calibrate", MISSED_TOLERANCE, "cal")
    assert code == 4
    err = capsys.readouterr().err
    assert "achieved 45.6125" in err and "target 50.0" in err
    assert not os.path.exists(out)


# gamma 1e308 puts the censoring horizon 20 * gamma past any step count
BEYOND_ANY_HORIZON = dict(MISSED_TOLERANCE,
                          detector=dict(MISSED_TOLERANCE["detector"], gamma=1e308))


def test_calibrate_to_a_target_beyond_any_horizon_exits_four(tmp_path, capsys):
    code, out = _run(tmp_path, "calibrate", BEYOND_ANY_HORIZON, "cal")
    assert code == 4
    assert "target 1e+308 needs a censoring horizon" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_compare_flags_rows_whose_target_is_beyond_any_horizon(tmp_path):
    code, out = _run(tmp_path, "compare", BEYOND_ANY_HORIZON, "cmp")
    assert code == 0
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert [r["calibrated"] for r in summary["results"]["rows"]] == [False, False]
    assert summary["results"]["cusum_leads"] is None


def test_compare_flags_a_row_that_misses_rel_tol(tmp_path, capsys):
    """The same run as examples_config/compare.json at n_rep 200 and
    n_rep_calibrate 20. Both rows are flagged; their delays sit at other
    false-alarm rates, so they decide nothing."""
    code, out = _run(tmp_path, "compare", MISSED_TOLERANCE, "cmp")
    assert code == 0
    rows = list(csv.DictReader(open(os.path.join(out, "report.csv"))))
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert rows[0]["rule"] == "cusum_grid" and rows[0]["calibrated"] == "false"
    assert summary["results"]["rows"][0]["calibrated"] is False
    assert float(rows[0]["gamma_achieved"]) == pytest.approx(45.6125, abs=1e-4)
    assert [r["calibrated"] for r in summary["results"]["rows"]] == [False, False]
    assert summary["results"]["cusum_leads"] is None
    assert "cusum leads: undecided" in capsys.readouterr().out
