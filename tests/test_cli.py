import csv
import json
import os

import pytest

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
# wider than the 2% window at gamma 50: the bisection runs out (seed 42).
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
    assert "achieved 44.7662" in err and "target 50.0" in err
    assert not os.path.exists(out)


def test_compare_flags_a_row_that_misses_rel_tol(tmp_path):
    code, out = _run(tmp_path, "compare", MISSED_TOLERANCE, "cmp")
    assert code == 0
    rows = list(csv.DictReader(open(os.path.join(out, "report.csv"))))
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert rows[0]["rule"] == "cusum_grid" and rows[0]["calibrated"] == "false"
    assert summary["results"]["rows"][0]["calibrated"] is False
    assert float(rows[0]["gamma_achieved"]) == pytest.approx(44.7662, abs=1e-4)
