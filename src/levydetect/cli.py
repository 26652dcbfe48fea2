"""Config-driven command-line front end.

Every subcommand reads one JSON config and returns an :class:`Outcome`: its
CSV files (report.csv, plus stops.csv or the path/llr dumps), the summary
body, a one-screen summary and the exit code. :func:`main` alone writes them
into the output directory, with summary.json, so a subcommand that raises
writes nothing. Exit codes: 0 success, 2 config problems, 3 inadmissible
model (the violated condition is named), 4 numerical failure (for
``calibrate`` also a bisection that missed ``rel_tol``).

The summary embeds the fully resolved config and master seed; re-running with
the summary as config reproduces byte-identical numeric columns, and the
--threads flag never changes results.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple

from . import __version__
from .config import ExperimentConfig
from .detector import DetectorConfig, check_log_barrier
from .engine import RuleSpec
from .errors import (
    ContractError,
    InfeasibleTargetError,
    LevyDetectError,
    NumericalError,
    SpecValidationError,
    UnsupportedPairError,
)
from .evaluate import (
    calibrate_barrier,
    compare,
    convergence_study,
    dyadic_base_stride,
    dyadic_horizon_steps,
    dyadic_strides,
    estimate_arl,
    lorden_delay,
    lower_bound_ratio,
    monitoring_steps,
)
from .kernels import backend
from .likelihood import llr_path
from .paths import sample_changed_path
from .report import write_csv, write_json
from .rng import RngStream, stream_id

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_NUMERICAL = 4

STOP_COLUMNS = ["rule", "h_bar", "delta", "stop_time", "censored",
                "stat_at_stop", "tau_hat", "seed", "stream_id"]


class Outcome(NamedTuple):
    """What a subcommand produced; :func:`main` writes it."""

    files: dict        # CSV name -> (rows, columns; None takes the first row's keys)
    body: dict         # the "results" of summary.json
    title: str         # the screen block: a title line
    lines: list        # and lines printed indented under it
    code: int = EXIT_OK


def _stops_rows(cfg: ExperimentConfig, config: DetectorConfig, result,
                purpose: str, block: int) -> list:
    """One row per replication; replication i ran on the Philox stream
    (seed, stream_id(purpose, i, block))."""
    seed = cfg.simulation["master_seed"]
    censored = result.censored
    stop_times = result.stop_times
    tau_hat = result.tau_hat
    rows = []
    for i in range(len(stop_times)):
        rows.append({
            "rule": config.rule,
            "h_bar": config.log_barrier,
            "delta": result.dt,
            "stop_time": float(stop_times[i]),
            "censored": bool(censored[i]),
            "stat_at_stop": float(result.stat[i]),
            "tau_hat": float(tau_hat[i]) if config.rule.startswith("cusum") else math.nan,
            "seed": seed,
            "stream_id": stream_id(purpose, i, block),
        })
    return rows


def _field_check(field: str, check, *args):
    """Run a library check on config values, naming the field if it fails."""
    try:
        return check(*args)
    except (ContractError, SpecValidationError) as exc:
        raise SpecValidationError(f"{field}: {exc}") from exc


def _detector_config(cfg: ExperimentConfig) -> DetectorConfig:
    """The detector block as a rule, its log barrier checked for that rule."""
    config = cfg.detector_config()
    _field_check("detector.log_barrier", check_log_barrier, config.rule,
                 config.log_barrier)
    return config


def _check_horizon(cfg: ExperimentConfig) -> int:
    """The horizon in monitoring steps of detector.delta (at least one)."""
    return _field_check("simulation.horizon", monitoring_steps,
                        cfg.simulation["horizon"], float(cfg.detector["delta"]))


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #

def _cmd_validate(cfg: ExperimentConfig) -> Outcome:
    model = cfg.change_model()
    body = {
        "admissible": model.admissible,
        "violated_condition": model.violated,
        "message": model.message,
    }
    if not model.admissible:
        return Outcome({}, body, "model inadmissible", [
            f"condition = {model.violated}",
            f"reason    = {model.message}",
        ], EXIT_INADMISSIBLE)
    body.update(alpha=model.alpha, beta_pre=model.beta_pre,
                beta_post=model.beta_post, comp_rate=model.comp_rate,
                model_digest=model.digest())
    return Outcome({}, body, "model admissible", [
        f"alpha     = {model.alpha:.6g}",
        f"beta_pre  = {model.beta_pre:.6g}",
        f"beta_post = {model.beta_post:.6g}",
        f"comp_rate = {model.comp_rate:.6g}",
    ])


def _cmd_simulate(cfg: ExperimentConfig) -> Outcome:
    model = cfg.change_model()
    model.require_admissible()
    sim, tau = cfg.simulation, cfg.experiment["tau"]
    rng = RngStream(sim["master_seed"], stream_id("path", 0))
    path = sample_changed_path(model, math.inf if tau is None else tau,
                               sim["horizon"], sim["grid_dt"], rng)
    files = {
        "path_dump.csv": ([{"t": float(tt), "x": float(xx)}
                           for tt, xx in zip(path.times, path.values)], ["t", "x"]),
        "jump_ledger.csv": ([{"t": float(tt), "jump_size": float(ss)}
                             for tt, ss in zip(path.jump_times, path.jump_sizes)],
                            ["t", "jump_size"]),
    }
    if cfg.output["dump_llr"]:
        llr = llr_path(model, path)
        files["llr_dump.csv"] = ([{"t": float(tt), "u": float(uu)}
                                  for tt, uu in zip(llr.times, llr.u_values)], ["t", "u"])
    body = {
        "n_grid_points": len(path.values),
        "n_ledger_jumps": int(len(path.jump_times)),
        "change_point": path.change_point,
        "terminal_value": float(path.values[-1]),
    }
    return Outcome(files, body, "simulated one path", [
        f"grid points  = {len(path.values)}",
        f"ledger jumps = {len(path.jump_times)}",
        f"X(horizon)   = {path.values[-1]:.6g}",
    ])


def _cmd_arl(cfg: ExperimentConfig) -> Outcome:
    _check_horizon(cfg)
    model = cfg.change_model()
    model.require_admissible()
    sim, exp = cfg.simulation, cfg.experiment
    config = _detector_config(cfg)
    purpose, block = "arl", 0
    report, result = estimate_arl(
        model, config, exp["regime"], sim["n_rep"], sim["horizon"],
        sim["master_seed"], threads=sim["threads"], block=block, purpose=purpose,
        return_raw=True)
    files = {"report.csv": ([report.to_row()], None),
             "stops.csv": (_stops_rows(cfg, config, result, purpose, block), STOP_COLUMNS)}
    body = {"report": report.to_dict()}
    return Outcome(files, body, f"run length under {exp['regime']}", [
        f"estimate = {report.estimate:.6g} +- {report.std_error:.2g}",
        f"censored = {report.n_censored}/{report.n_rep}",
    ])


def _cmd_calibrate(cfg: ExperimentConfig) -> Outcome:
    model = cfg.change_model()
    model.require_admissible()
    sim, det = cfg.simulation, cfg.detector
    gamma = det["gamma"]
    if gamma is None:
        raise SpecValidationError("calibrate needs detector.gamma")
    cal = calibrate_barrier(model, det["rule"], float(gamma),
                            float(det["rel_tol"]), sim["master_seed"],
                            delta=float(det["delta"]),
                            n_rep=cfg.experiment["n_rep_calibrate"],
                            threads=sim["threads"])
    if not cal.converged:
        raise NumericalError(
            f"calibration missed the target: achieved {cal.report.estimate:.6g} for "
            f"target {gamma} within rel_tol {det['rel_tol']} (barrier {cal.h_bar:.6g} "
            f"after {len(cal.probes)} probes)")
    # the bracket-top probe settles only arl >= gamma: its value is a lower bound
    probe_rows = [{"h_bar": h, "arl": f">={v!r}" if i == cal.lower_bound else v}
                  for i, (h, v) in enumerate(cal.probes)]
    probe_rows.append({"h_bar": cal.h_bar, "arl": cal.report.estimate})
    body = {"h_bar": cal.h_bar, "achieved": cal.report.estimate,
            "std_error": cal.report.std_error,
            "report": cal.report.to_dict()}
    files = {"report.csv": (probe_rows, ["h_bar", "arl"])}
    return Outcome(files, body, "calibrated barrier", [
        f"h_bar    = {cal.h_bar:.6g}",
        f"achieved = {cal.report.estimate:.6g} (target {gamma})",
    ])


def _cmd_lorden(cfg: ExperimentConfig) -> Outcome:
    _check_horizon(cfg)
    model = cfg.change_model()
    model.require_admissible()
    sim, exp = cfg.simulation, cfg.experiment
    config = _detector_config(cfg)
    res = lorden_delay(model, config, exp["tau_grid"], sim["n_rep"],
                       sim["horizon"], sim["master_seed"],
                       threads=sim["threads"])
    rows = [r.to_row() for r in list(res.per_tau) + [res.worst]]
    body = {"worst_delay": res.worst.estimate,
            "worst_se": res.worst.std_error,
            "per_tau": [r.to_dict() for r in res.per_tau]}
    return Outcome({"report.csv": (rows, None)}, body, "worst-case delay", [
        f"tau grid = {list(res.tau_grid)}",
        f"worst    = {res.worst.estimate:.6g} +- {res.worst.std_error:.2g}",
    ])


def _cmd_lowerbound(cfg: ExperimentConfig) -> Outcome:
    n_steps = _check_horizon(cfg)
    sim, det, exp = cfg.simulation, cfg.detector, cfg.experiment
    fixed_steps = exp["fixed_steps"]
    if fixed_steps is not None:
        _field_check("experiment.fixed_steps",
                     RuleSpec(kind="fixed", fixed_steps=fixed_steps).check_horizon, n_steps)
    model = cfg.change_model()
    model.require_admissible()
    config = _detector_config(cfg)
    lb = lower_bound_ratio(model, None if fixed_steps else config,
                           float(det["delta"]), sim["n_rep"], sim["horizon"],
                           sim["master_seed"], threads=sim["threads"],
                           fixed_steps=fixed_steps)
    delay = estimate_arl(model, config, "out_of_control", sim["n_rep"],
                         sim["horizon"], sim["master_seed"],
                         threads=sim["threads"], block=1)
    body = {"lower_bound": lb.to_dict(), "delay": delay.to_dict()}
    files = {"report.csv": ([lb.to_row(), delay.to_row()], None)}
    return Outcome(files, body, "lower-bound functional", [
        f"d_bar          = {lb.estimate:.6g} +- {lb.std_error:.2g}",
        f"delay estimate = {delay.estimate:.6g} +- {delay.std_error:.2g}",
    ])


def _cmd_converge(cfg: ExperimentConfig) -> Outcome:
    model = cfg.change_model()
    model.require_admissible()
    sim, det, exp = cfg.simulation, cfg.detector, cfg.experiment
    # the study runs the CUSUM grid rule whatever detector.rule says
    _field_check("detector.log_barrier", check_log_barrier, "cusum_grid",
                 float(det["log_barrier"]))
    base_field = "experiment.base_delta" if exp["base_delta"] else "detector.delta"
    base_delta = exp["base_delta"] or det["delta"]
    grid_dt, horizon = float(sim["grid_dt"]), float(sim["horizon"])
    # the study's own checks, run first so that a failure names its field
    base_stride = _field_check(base_field, dyadic_base_stride, base_delta, grid_dt)
    _field_check("simulation.horizon", dyadic_horizon_steps, horizon, grid_dt, base_stride)
    _field_check(base_field, dyadic_strides, base_stride, exp["dyadic_levels"])
    res = convergence_study(model, float(det["log_barrier"]),
                            exp["dyadic_levels"], sim["n_rep"],
                            sim["master_seed"], float(base_delta), grid_dt, horizon,
                            regime=exp["regime"], threads=sim["threads"])
    rows = [{"delta": lv.delta, "stride": lv.stride, "mean_stop": lv.mean_stop,
             "std_error": lv.std_error, "mean_gap": lv.mean_gap}
            for lv in list(res.levels) + [res.reference]]
    body = {"monotone_fraction": res.monotone_fraction,
            "convention_agreement": res.convention_agreement,
            "levels": rows}
    columns = ["delta", "stride", "mean_stop", "std_error", "mean_gap"]
    return Outcome({"report.csv": (rows, columns)}, body, "discretization convergence", [
        f"levels               = {len(res.levels)} (+ reference)",
        f"monotone fraction    = {res.monotone_fraction:.4f}",
        f"convention agreement = {res.convention_agreement:.4f}",
        f"finest mean stop     = {res.reference.mean_stop:.6g}",
    ])


def _cmd_compare(cfg: ExperimentConfig) -> Outcome:
    model = cfg.change_model()
    model.require_admissible()
    sim, det, exp = cfg.simulation, cfg.detector, cfg.experiment
    gamma = det["gamma"]
    if gamma is None:
        raise SpecValidationError("compare needs detector.gamma")
    rules = [(r, float(d)) for r, d in exp["rules"]]
    res = compare(model, float(gamma), rules, sim["n_rep"],
                  sim["master_seed"], rel_tol=float(det["rel_tol"]),
                  tau_grid=exp["tau_grid"], threads=sim["threads"],
                  n_rep_calibrate=exp["n_rep_calibrate"])
    rows = [{"rule": r.rule, "delta": r.delta, "h_bar": r.h_bar,
             "gamma_achieved": r.gamma_achieved, "gamma_se": r.gamma_se,
             "worst_delay": r.worst_delay, "delay_se": r.delay_se,
             "calibrated": r.calibrated} for r in res.rows]
    columns = ["rule", "delta", "h_bar", "gamma_achieved", "gamma_se",
               "worst_delay", "delay_se", "calibrated"]
    body = {"gamma": res.gamma, "rows": rows,
            "cusum_leads": res.cusum_leads()}
    lines = [f"{r.rule:<20} delay = {r.worst_delay:.6g} +- {r.delay_se:.2g}"
             + ("" if r.calibrated else "  (not calibrated)") for r in res.rows]
    lines.append(f"cusum leads: {res.cusum_leads()}")
    return Outcome({"report.csv": (rows, columns)}, body,
                   f"comparison at gamma = {gamma}", lines)


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "arl": _cmd_arl,
    "calibrate": _cmd_calibrate,
    "lorden": _cmd_lorden,
    "lowerbound": _cmd_lowerbound,
    "converge": _cmd_converge,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levydetect",
        description="Sequential change detection for Levy processes")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (never changes results)")
    parser.add_argument("--out", default="levydetect_out",
                        help="output directory for artifacts")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.load(args.config)
        if args.seed is not None:
            cfg.simulation["master_seed"] = args.seed
        if args.threads is not None:
            cfg.simulation["threads"] = args.threads
        cfg._check_fields()          # the flags obey the config's own checks
        done = _COMMANDS[args.subcommand](cfg)
    except (SpecValidationError, UnsupportedPairError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, InfeasibleTargetError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LevyDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE

    # the artifact contract: a subcommand that raised above writes nothing
    os.makedirs(args.out, exist_ok=True)
    for name, (rows, columns) in done.files.items():
        write_csv(os.path.join(args.out, name), rows, columns=columns)
    write_json(os.path.join(args.out, "summary.json"), {
        "subcommand": args.subcommand,
        "package_version": __version__,
        "kernel_backend": backend(),
        "resolved_config": cfg.resolved(),
        "results": done.body,
    })
    print(done.title)
    for line in done.lines:
        print(f"  {line}")
    return done.code

if __name__ == "__main__":
    sys.exit(main())
