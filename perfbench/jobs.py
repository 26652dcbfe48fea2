"""Workload definitions: experiment configs generated from a workload seed,
the job list each workload runs, and the checks on every job's output.

This module imports nothing from levydetect at module level, so the
orchestrator can write configs without paying the package's import cost.
The seed only picks the master seeds of the jobs; the model pairs and the
sizes are fixed, so every seed runs the same job list.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("arl", "calibrate", "converge")

BROWNIAN = {"pre": {"family": "brownian", "sigma": 1.0, "drift": 0.0},
            "post": {"family": "brownian", "sigma": 1.0, "drift": 1.0}}
COMPOUND_POISSON = {
    "pre": {"family": "compound_poisson", "intensity": 1.0,
            "jumps": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}},
    "post": {"family": "compound_poisson", "intensity": 2.0,
             "jumps": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}}}
GAMMA = {"pre": {"family": "gamma", "activity": 1.0, "scale": 1.0},
         "post": {"family": "gamma", "activity": 1.0, "scale": 2.0}}
JUMP_DIFFUSION = {
    "pre": {"family": "jump_diffusion", "sigma": 1.0, "intensity": 1.0, "drift": 0.0,
            "jumps": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}},
    "post": {"family": "jump_diffusion", "sigma": 1.0, "intensity": 1.0, "drift": 1.0,
             "jumps": {"kind": "gaussian", "mean": 0.5, "sd": 1.0}}}

# Sizes. The lowerbound size keeps the c05 check (5% between the ratio
# functional and the delay) more than 4 standard errors wide for every pair.
# The in-control run lengths are near exponential. For the gamma pair the
# mean is about 47, and at horizon 600 about one lowerbound job in sixty
# censored a run; at 1500 the chance is below one in 10^9.
LOG_BARRIER = 2.0
DELTA = 0.1
ARL_N_REP = 2000
ARL_HORIZON = 1500.0
LOWERBOUND_N_REP = 6000
GAMMA_TARGET = 50.0
REL_TOL = 0.02
CALIBRATE_N_REP = 500           # replications per calibration probe
LORDEN_N_REP = 2000
CONVERGE_N_REP = 1000
CONVERGE_GRID_DT = 0.005
CONVERGE_BASE_DELTA = 0.08
CONVERGE_HORIZON = 40.0
PIPELINE_PATHS = 100            # per pair
PIPELINE_TAU = 5.0
PIPELINE_HORIZON = 20.0
PIPELINE_SR_LOG_BARRIER = math.log(GAMMA_TARGET)

LOWERBOUND_REL_TOL = 0.05       # c05
# The bisection accepts a barrier on CALIBRATE_N_REP replications; the
# reported ARL re-estimates it on four times as many, sharing the first
# quarter, so the accepting probe's noise carries into the report and the
# calibration error has sqrt(3) times the reported standard error. c08's
# "rel_tol * gamma + 3 reported SE" holds at its one seed but misses on about
# one calibration in fifty over many seeds; four standard errors of the
# calibration error hold on all of them.
CALIBRATION_N_SE = 4.0 * math.sqrt(3.0)


def _config(pair: dict, seed: int, simulation: dict, detector: dict,
            experiment: dict) -> dict:
    return {"model": pair,
            "simulation": dict(simulation, master_seed=seed, threads=1),
            "detector": dict({"rule": "cusum_grid", "delta": DELTA,
                              "log_barrier": LOG_BARRIER}, **detector),
            "experiment": experiment}


def make_jobs(workload: str, seed: int) -> list:
    """Job list of a workload. A job is a dict with a ``name``, a ``kind``
    ('cli' or 'pipeline'), the ``pair`` it simulates and either a ``config``
    plus ``subcommand`` (cli) or the pipeline parameters."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")

    def master() -> int:
        return rng.randrange(1, 2 ** 31)

    jobs = []
    if workload == "arl":
        for name, pair in (("brownian", BROWNIAN),
                           ("compound_poisson", COMPOUND_POISSON),
                           ("gamma", GAMMA)):
            jobs.append({"name": f"arl/{name}", "kind": "cli", "subcommand": "arl",
                         "pair": name, "config": _config(
                             pair, master(),
                             {"n_rep": ARL_N_REP, "horizon": ARL_HORIZON}, {},
                             {"regime": "in_control"})})
            jobs.append({"name": f"lowerbound/{name}", "kind": "cli",
                         "subcommand": "lowerbound", "pair": name, "config": _config(
                             pair, master(),
                             {"n_rep": LOWERBOUND_N_REP, "horizon": ARL_HORIZON}, {},
                             {"regime": "in_control"})})
    elif workload == "calibrate":
        jobs.append({"name": "compare/brownian", "kind": "cli", "subcommand": "compare",
                     "pair": "brownian", "config": _config(
                         BROWNIAN, master(), {"n_rep": LORDEN_N_REP},
                         {"gamma": GAMMA_TARGET, "rel_tol": REL_TOL},
                         {"rules": [["cusum_grid", DELTA], ["shiryaev_roberts", DELTA]],
                          "tau_grid": [0.0, 1.0, 5.0],
                          "n_rep_calibrate": CALIBRATE_N_REP})})
    else:
        pairs = (("brownian", BROWNIAN), ("compound_poisson", COMPOUND_POISSON),
                 ("jump_diffusion", JUMP_DIFFUSION))
        for name, pair in pairs:
            jobs.append({"name": f"converge/{name}", "kind": "cli",
                         "subcommand": "converge", "pair": name, "config": _config(
                             pair, master(),
                             {"n_rep": CONVERGE_N_REP, "horizon": CONVERGE_HORIZON,
                              "grid_dt": CONVERGE_GRID_DT}, {},
                             {"regime": "out_of_control", "dyadic_levels": 4,
                              "base_delta": CONVERGE_BASE_DELTA})})
        for name, pair in pairs:
            jobs.append({"name": f"pipeline/{name}", "kind": "pipeline", "pair": name,
                         "model": pair, "master_seed": master(),
                         "n_paths": PIPELINE_PATHS, "tau": PIPELINE_TAU,
                         "horizon": PIPELINE_HORIZON, "grid_dt": CONVERGE_GRID_DT})
    return jobs


def write_configs(jobs: list, directory: str) -> None:
    """Write each cli job's config to ``directory`` and record its path."""
    os.makedirs(directory, exist_ok=True)
    for i, job in enumerate(jobs):
        if job["kind"] == "cli":
            path = os.path.join(directory, f"job{i:02d}.json")
            with open(path, "w") as fh:
                json.dump(job["config"], fh, indent=2, sort_keys=True)
            job["config_path"] = path


# --------------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------------- #

def _nonfinite(value, where="") -> list:
    """Paths of every number in a JSON value that is not finite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [where or "."]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite(v, f"{where}/{k}")]
    return [p for i, v in enumerate(value) for p in _nonfinite(v, f"{where}/{i}")]


def check_cli(job: dict, exit_code: int, out_dir: str) -> list:
    """Problems with one cli job's outcome; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = [f"non-finite field {p}" for p in _nonfinite(summary)]
    res = summary.get("results", {})
    sub = job["subcommand"]
    if sub == "lowerbound":
        lb, delay = res["lower_bound"], res["delay"]
        rel = abs(lb["estimate"] - delay["estimate"]) / delay["estimate"]
        if rel > LOWERBOUND_REL_TOL:
            problems.append(f"lower bound {lb['estimate']:.4f} vs delay "
                            f"{delay['estimate']:.4f} differ by {rel:.2%}")
        if lb["n_censored"]:
            problems.append(f"lower bound censored {lb['n_censored']} runs")
    elif sub == "compare":
        gamma = res["gamma"]
        rel_tol = job["config"]["detector"]["rel_tol"]
        for row in res["rows"]:
            if not row["calibrated"]:
                problems.append(f"{row['rule']} not calibrated")
            elif abs(row["gamma_achieved"] - gamma) > \
                    rel_tol * gamma + CALIBRATION_N_SE * row["gamma_se"]:
                problems.append(f"{row['rule']} calibrated to "
                                f"{row['gamma_achieved']:.3f}, target {gamma}")
        if not res["cusum_leads"]:
            problems.append("cusum does not lead")
    elif sub == "converge":
        if res["monotone_fraction"] != 1.0:
            problems.append(f"monotone fraction {res['monotone_fraction']}")
    return problems


def check_pipeline(job: dict, stops: list) -> list:
    """On every path the continuously monitored CUSUM stops no later than
    the grid CUSUM (compared in grid steps, so no rounding enters)."""
    problems = []
    for i, (cont, grid, stride) in enumerate(stops):
        if cont.steps_taken > grid.steps_taken * stride:
            problems.append(f"path {i}: continuous stop {cont.stop_time} after "
                            f"grid stop {grid.stop_time}")
    if len(stops) != job["n_paths"]:
        problems.append(f"{len(stops)} of {job['n_paths']} paths ran")
    return problems[:5]
