"""Monte Carlo evaluation harness: run-length estimation, barrier
calibration, worst-case delay measurement, the lower-bound functional,
discretization convergence, and rule comparison.

Conventions
-----------
* regimes are ``in_control`` (no change ever) and ``out_of_control`` (changed
  from the start);
* worst-case delays are measured by restarting the statistic from its least
  favorable value at the change instant (S = 1 for CUSUM-type rules, R = 0
  for Shiryaev-Roberts) and taking the maximum over the change-point grid;
* every estimate is censored at an explicit horizon and the censored count is
  carried in the report, never dropped;
* calibration bisects the barrier against the in-control mean on one set of
  in-control paths: the statistic paths do not depend on the barrier, so each
  probe reads its stops off the paths' record highs, and the empirical map is
  monotone pathwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .detector import DetectorConfig, lattice_safe_barrier
from .engine import (PathRunResult, RuleSpec, advance, batch_states,
                     block_end, run_dyadic, run_paths)
from .errors import (
    ContractError,
    DegenerateRuleError,
    InfeasibleTargetError,
    NumericalError,
    SpecValidationError,
)
from .model import ChangeModel
from .report import EvalReport, Provenance

__all__ = [
    "estimate_arl",
    "monitoring_steps",
    "calibrate_barrier",
    "CalibrationResult",
    "lorden_delay",
    "LordenResult",
    "lower_bound_ratio",
    "convergence_study",
    "ConvergenceLevel",
    "ConvergenceResult",
    "compare",
    "CompareRow",
    "CompareResult",
]

REGIMES = ("in_control", "out_of_control")
_ENGINE_REGIME = {"in_control": "pre", "out_of_control": "post"}
DEFAULT_TAU_GRID = (0.0, 1.0, 5.0)
HORIZON_FACTOR = 20.0      # censoring horizon of calibration and comparison: 20 x target
MAX_BISECTIONS = 60        # bisection steps of calibration after the bracket


def phi_lattice_constant(model: ChangeModel) -> Optional[float]:
    """Constant value of phi when the density ratio is flat (intensity-only
    change), i.e. when the reflected statistic lives on a lattice."""
    if model.phi is None:
        return None
    pieces = [p for p in (model.phi.pos, model.phi.neg) if p is not None]
    if all(p[1] == 0.0 for p in pieces):
        c0s = {p[0] for p in pieces}
        if len(c0s) == 1:
            c0 = c0s.pop()
            if c0 > 0.0:
                return c0
    return None


_HARNESS_KINDS = {"cusum_grid": "cusum", "shiryaev_roberts": "sr"}
HARNESS_RULES = tuple(_HARNESS_KINDS)      # the rules the Monte Carlo harness runs


def _harness_kind(rule: str) -> str:
    """Engine rule kind of a rule the harness can run: the harness monitors
    on a grid of step delta only."""
    if rule not in _HARNESS_KINDS:
        raise SpecValidationError(
            f"rule {rule!r} (detector.rule or experiment.rules) is not run "
            f"by the Monte Carlo harness; use one of {list(HARNESS_RULES)}")
    return _HARNESS_KINDS[rule]


def _effective_barrier(model: ChangeModel, config: DetectorConfig) -> float:
    if _harness_kind(config.rule) == "cusum":
        lattice = phi_lattice_constant(model)
        if lattice is not None:
            return lattice_safe_barrier(config.log_barrier, lattice)
    return config.log_barrier


def _engine_rule(model: ChangeModel, config: DetectorConfig) -> Tuple[RuleSpec, float]:
    """Map a detector config onto an engine rule and its monitoring step."""
    kind = _harness_kind(config.rule)
    config.validate()                # both harness rules require delta
    barrier = _effective_barrier(model, config)
    return RuleSpec(kind=kind, log_barrier=barrier), float(config.delta)


def _report(result: PathRunResult, model: ChangeModel, config: DetectorConfig,
            regime: str, seed: int, block: int, label: str) -> EvalReport:
    times = result.stop_times
    est = float(times.mean())
    se = float(times.std(ddof=1) / math.sqrt(len(times))) if len(times) > 1 else 0.0
    prov = Provenance(master_seed=seed, grid_dt=result.dt, delta=result.dt,
                      rule=config.rule, model_digest=model.digest(),
                      regime=regime, stream_block=block)
    return EvalReport(estimate=est, std_error=se, n_rep=len(times),
                      n_censored=int(result.censored.sum()),
                      horizon=result.n_steps * result.dt,
                      provenance=prov, label=label)


def monitoring_steps(horizon: float, dt: float) -> int:
    """The horizon in monitoring steps of width dt (at least one)."""
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ContractError(f"horizon {horizon} is shorter than one monitoring step {dt}")
    return n_steps


def estimate_arl(model: ChangeModel, config: DetectorConfig, regime: str,
                 n_rep: int, horizon: float, seed: int, threads: int = 1,
                 block: int = 0, purpose: str = "arl",
                 return_raw: bool = False):
    """Mean run length of a rule under the in- or out-of-control regime.

    Censored replications contribute the horizon (downward bias; flagged via
    the censored count in the report).
    """
    model.require_admissible()
    if regime not in REGIMES:
        raise ContractError(f"regime must be one of {REGIMES}, got {regime!r}")
    rule, dt = _engine_rule(model, config)
    n_steps = monitoring_steps(horizon, dt)
    result = run_paths(model, _ENGINE_REGIME[regime], rule, dt, n_steps, n_rep,
                       seed, purpose, block=block, threads=threads)
    report = _report(result, model, config, regime, seed, block,
                     label=f"arl_{regime}")
    return (report, result) if return_raw else report


@dataclass(frozen=True)
class CalibrationResult:
    h_bar: float
    report: EvalReport
    probes: Tuple[Tuple[float, float], ...]
    lower_bound: int           # index of the probe whose value is a lower bound
    converged: bool            # a probe met rel_tol; else h_bar is the last midpoint

    @property
    def achieved(self) -> float:
        return self.report.estimate


def calibrate_barrier(model: ChangeModel, rule: str, gamma: float,
                      rel_tol: float, seed: int, delta: float,
                      n_rep: int = 4000, threads: int = 1,
                      block: int = 0) -> CalibrationResult:
    """Bisect the log barrier until the in-control mean run length matches
    gamma within rel_tol, on one set of in-control paths.

    The statistic paths do not depend on the barrier, so each path is
    simulated once, as far as the highest barrier probed needs, and a probe
    at h reads every stop off the path's ladder of record highs. A probe
    equals :func:`estimate_arl` at h on the same streams (purpose
    'calibrate'), except the bracket top: only ``value >= gamma`` matters
    there, so the paths advance together and stop as soon as their mean run
    length truncated at the common step reaches gamma. That truncated mean,
    a lower bound, is its probe value (``lower_bound`` is its index). The
    final acceptance probe runs at four times the probe budget, on the probe
    paths plus 3 * n_rep new ones, and its report is returned. When no
    probe of MAX_BISECTIONS meets rel_tol, the result takes the last
    bracket's midpoint and says so (``converged`` false).
    """
    model.require_admissible()
    if gamma < delta:
        raise InfeasibleTargetError(
            f"target {gamma} is below one monitoring step {delta}; "
            "randomized rules are out of scope")
    horizon = HORIZON_FACTOR * gamma

    def config(h: float) -> DetectorConfig:
        return DetectorConfig(rule=rule, log_barrier=h, delta=delta)

    spec, dt = _engine_rule(model, config(0.0))
    n_steps = monitoring_steps(horizon, dt)
    paths = batch_states(model, "pre", spec, dt, n_rep, seed, "calibrate", block=block,
                         threads=threads, records=True)

    def stops(h: float, until: int = n_steps) -> np.ndarray:
        barrier = _effective_barrier(model, config(h))
        advance(paths, until, barrier, threads)
        return np.concatenate([p.first_reach(barrier) for p in paths])

    def arl_at(h: float) -> EvalReport:
        result = PathRunResult(dt, n_steps, stops(h), stat=None, last_reflect=None)
        return _report(result, model, config(h), "in_control", seed, block,
                       label="arl_in_control")

    def at_least_gamma(h: float) -> float:
        """The mean run length at h, or a lower bound of it once that
        reaches gamma: the mean truncated at a common step t. Each round
        moves t to the end of the sub-block holding the first step at which
        that mean could reach gamma (per step it grows by at most the
        fraction of paths still running)."""
        t, val, running = 0, 0.0, 1.0
        while t < n_steps and running > 0.0:
            t = min(n_steps, block_end(t + math.ceil((gamma - val) / (running * dt)) - 1))
            st = stops(h, t)
            hit = (st >= 0) & (st <= t)
            val = float((np.where(hit, st, t) * dt).mean())
            if val >= gamma:
                break
            running = 1.0 - float(hit.mean())
        return val

    probes: List[Tuple[float, float]] = []
    lo, lo_val = 0.0, arl_at(0.0).estimate
    probes.append((lo, lo_val))
    if lo_val >= gamma * (1.0 + rel_tol):
        raise InfeasibleTargetError(
            f"even a zero barrier overshoots the target ({lo_val:.4g} >= {gamma})")

    hi = max(1.0, math.log(max(gamma / delta, 2.0)))
    hi_val = at_least_gamma(hi)
    probes.append((hi, hi_val))
    doublings = 0
    while hi_val < gamma and doublings < 40:
        hi *= 2.0
        hi_val = at_least_gamma(hi)
        probes.append((hi, hi_val))
        doublings += 1
    if hi_val < gamma:
        raise NumericalError("failed to bracket the target run length")
    top = len(probes) - 1

    for _ in range(MAX_BISECTIONS):
        h = 0.5 * (lo + hi)
        val = arl_at(h).estimate
        probes.append((h, val))
        converged = abs(val - gamma) <= rel_tol * gamma
        if converged:
            break
        if val < gamma:
            lo = h
        else:
            hi = h
    else:
        h = 0.5 * (lo + hi)

    paths += batch_states(model, "pre", spec, dt, 4 * n_rep, seed, "calibrate",
                          block=block, threads=threads, first=n_rep)
    return CalibrationResult(h_bar=h, report=arl_at(h), probes=tuple(probes),
                             lower_bound=top, converged=converged)


@dataclass(frozen=True)
class LordenResult:
    per_tau: Tuple[EvalReport, ...]
    worst: EvalReport
    tau_grid: Tuple[float, ...]
    samples: Optional[Tuple[np.ndarray, ...]] = None


def lorden_delay(model: ChangeModel, config: DetectorConfig,
                 tau_grid: Sequence[float], n_rep: int, horizon: float,
                 seed: int, threads: int = 1,
                 return_samples: bool = False) -> LordenResult:
    """Worst-case expected detection delay over a grid of change points.

    For each tau the statistic restarts from its least favorable value at the
    change instant, so the delay sample is a fresh post-change run; the grid
    entries share a law for CUSUM (the equalizer structure) and the maximum is
    reported as the worst case.
    """
    model.require_admissible()
    rule, dt = _engine_rule(model, config)
    n_steps = monitoring_steps(horizon, dt)
    reports = []
    samples = []
    for i, tau in enumerate(tau_grid):
        result = run_paths(model, "post", rule, dt, n_steps, n_rep, seed,
                           "delay", block=i, threads=threads)
        rep = _report(result, model, config, "out_of_control", seed, i,
                      label=f"delay_tau_{tau:g}")
        reports.append(rep)
        if return_samples:
            samples.append(result.stop_times)
    worst_idx = int(np.argmax([r.estimate for r in reports]))
    worst = replace(reports[worst_idx], label="delay_worst")
    return LordenResult(per_tau=tuple(reports), worst=worst,
                        tau_grid=tuple(float(t) for t in tau_grid),
                        samples=tuple(samples) if return_samples else None)


def lower_bound_ratio(model: ChangeModel, config: Optional[DetectorConfig],
                      delta: float, n_rep: int, horizon: float, seed: int,
                      threads: int = 1, fixed_steps: Optional[int] = None,
                      block: int = 0) -> EvalReport:
    """The in-control lower-bound functional of a grid stopping rule:

        delta * E[ sum max(S_k, 1) ] / E[ sum (1 - S_k)^+ ],

    sums over monitored steps strictly before the stop (k = 0 included).
    The standard error comes from the first-order delta method on the paired
    per-replication sums.
    """
    model.require_admissible()
    if fixed_steps is not None:
        rule = RuleSpec(kind="fixed", fixed_steps=fixed_steps)
        dt = float(delta)
        rule_name = f"fixed_{fixed_steps}"
    else:
        rule, dt = _engine_rule(model, config)
        rule_name = config.rule
    n_steps = monitoring_steps(horizon, dt)
    result = run_paths(model, "pre", rule, dt, n_steps, n_rep, seed,
                       "lower_bound", block=block, threads=threads,
                       collect_lb=True)
    num, den = result.lb_num, result.lb_den
    nbar, dbar = float(num.mean()), float(den.mean())
    if dbar <= 0.0:
        raise DegenerateRuleError("lower-bound denominator has no mass")
    ratio = nbar / dbar
    cov = np.cov(num, den, ddof=1)
    var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio ** 2 * cov[1, 1]) / dbar ** 2
    se = dt * math.sqrt(max(var, 0.0) / n_rep)
    prov = Provenance(master_seed=seed, grid_dt=dt, delta=dt, rule=rule_name,
                      model_digest=model.digest(), regime="in_control",
                      stream_block=block)
    return EvalReport(estimate=dt * ratio, std_error=se, n_rep=n_rep,
                      n_censored=int(result.censored.sum()),
                      horizon=n_steps * dt, provenance=prov,
                      label="lower_bound")


@dataclass(frozen=True)
class ConvergenceLevel:
    delta: float
    stride: int
    mean_stop: float
    std_error: float
    mean_gap: float            # mean excess over the finest monitored rule


@dataclass(frozen=True)
class ConvergenceResult:
    levels: Tuple[ConvergenceLevel, ...]
    reference: ConvergenceLevel
    monotone_fraction: float   # fraction of paths with stop times
                               # nonincreasing across refinement
    convention_agreement: float  # fraction of paths where stopping at
                                 # ">= barrier" and "> barrier" coincide
    n_rep: int


def dyadic_base_stride(base_delta: float, grid_dt: float) -> int:
    """The coarsest monitoring step of a convergence study in fine steps."""
    stride = int(round(base_delta / grid_dt))
    if abs(stride * grid_dt - base_delta) > 1e-9 * base_delta or stride < 1:
        raise ContractError("base_delta must be an integer multiple of grid_dt")
    return stride


def dyadic_horizon_steps(horizon: float, grid_dt: float, base_stride: int) -> int:
    """The horizon in fine steps, trimmed to whole base steps (at least one)."""
    n_steps = int(round(horizon / grid_dt))
    n_steps -= n_steps % base_stride
    if n_steps < 1:
        raise ContractError(f"horizon {horizon} is shorter than one base step "
                            f"of {base_stride} fine steps")
    return n_steps


def dyadic_strides(base_stride: int, dyadic_levels: int) -> List[int]:
    """The base stride halved level by level, coarsest first."""
    strides = []
    for level in range(dyadic_levels):
        s = base_stride >> level
        if s < 1 or base_stride != s << level:
            raise ContractError(
                f"base stride {base_stride} does not halve {dyadic_levels} times")
        strides.append(s)
    return strides


def convergence_study(model: ChangeModel, h_bar: float, dyadic_levels: int,
                      n_rep: int, seed: int, base_delta: float, grid_dt: float,
                      horizon: float, regime: str = "out_of_control",
                      threads: int = 1) -> ConvergenceResult:
    """Stop times of the grid rule across nested dyadic monitoring grids.

    All levels are evaluated on the same fine trajectories, so the
    nested-grid ordering is checked pathwise and the per-level mean gaps to
    the finest rule are exact Monte Carlo averages of nonnegative variables.
    The study also reruns every level with the strict "> barrier" stopping
    convention and reports how often the two conventions coincide (they can
    part ways only when the statistic lands exactly on the barrier, which
    barrier nudging keeps a null event).
    """
    model.require_admissible()
    if regime not in REGIMES:
        raise ContractError(f"regime must be one of {REGIMES}")
    base_stride = dyadic_base_stride(base_delta, grid_dt)
    n_steps = dyadic_horizon_steps(horizon, grid_dt, base_stride)
    strides = dyadic_strides(base_stride, dyadic_levels)
    has_ref = strides[-1] > 1
    if has_ref:
        strides.append(1)      # finest monitored rule as the reference
    config = DetectorConfig(rule="cusum_grid", log_barrier=h_bar, delta=base_delta)
    config.validate()
    barrier = _effective_barrier(model, config)

    stops, stops_strict = run_dyadic(model, _ENGINE_REGIME[regime], barrier,
                                     grid_dt, n_steps, strides, n_rep, seed,
                                     threads=threads)
    ref = stops[-1]
    monotone = np.ones(n_rep, dtype=bool)
    for a, b in zip(stops[:-1], stops[1:]):
        monotone &= b <= a
    agree = np.ones(n_rep, dtype=bool)
    for a, b in zip(stops, stops_strict):
        agree &= a == b

    levels = []
    for s, st in zip(strides, stops):
        gap = st - ref
        levels.append(ConvergenceLevel(
            delta=s * grid_dt, stride=s, mean_stop=float(st.mean()),
            std_error=float(st.std(ddof=1) / math.sqrt(n_rep)),
            mean_gap=float(gap.mean())))
    reported = levels[:-1] if has_ref else levels
    return ConvergenceResult(levels=tuple(reported),
                             reference=levels[-1],
                             monotone_fraction=float(monotone.mean()),
                             convention_agreement=float(agree.mean()),
                             n_rep=n_rep)


@dataclass(frozen=True)
class CompareRow:
    rule: str
    delta: float
    h_bar: float
    gamma_achieved: float
    gamma_se: float
    worst_delay: float
    delay_se: float
    calibrated: bool


@dataclass(frozen=True)
class CompareResult:
    gamma: float
    rows: Tuple[CompareRow, ...]

    def cusum_leads(self, n_se: float = 3.0) -> bool:
        """Does every competitor's worst delay dominate the CUSUM's, within
        the combined Monte Carlo uncertainty?"""
        cusum = [r for r in self.rows if r.rule.startswith("cusum")]
        others = [r for r in self.rows if not r.rule.startswith("cusum")]
        if not cusum or not others:
            return True
        c = min(cusum, key=lambda r: r.worst_delay)
        return all(c.worst_delay <= o.worst_delay
                   + n_se * math.hypot(c.delay_se, o.delay_se)
                   for o in others)


def compare(model: ChangeModel, gamma: float, rules: Sequence[Tuple[str, float]],
            n_rep: int, seed: int, rel_tol: float = 0.02,
            tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
            threads: int = 1, n_rep_calibrate: int = 4000) -> CompareResult:
    """Calibrate each rule to the same false-alarm budget and compare
    worst-case delays. Calibration failures flag the row instead of
    aborting the table: a rule that cannot be calibrated gets NaN numbers,
    and one whose bisection missed rel_tol keeps its numbers at the last
    midpoint."""
    rows = []
    for i, (rule, delta) in enumerate(rules):
        try:
            cal = calibrate_barrier(model, rule, gamma, rel_tol, seed,
                                    delta=delta, n_rep=n_rep_calibrate,
                                    threads=threads, block=i)
            cfg = DetectorConfig(rule=rule, log_barrier=cal.h_bar, delta=delta)
            res = lorden_delay(model, cfg, tau_grid, n_rep,
                               horizon=HORIZON_FACTOR * gamma, seed=seed,
                               threads=threads)
            rows.append(CompareRow(rule=rule, delta=delta, h_bar=cal.h_bar,
                                   gamma_achieved=cal.report.estimate,
                                   gamma_se=cal.report.std_error,
                                   worst_delay=res.worst.estimate,
                                   delay_se=res.worst.std_error,
                                   calibrated=cal.converged))
        except (InfeasibleTargetError, NumericalError):
            rows.append(CompareRow(rule=rule, delta=delta, h_bar=math.nan,
                                   gamma_achieved=math.nan, gamma_se=math.nan,
                                   worst_delay=math.nan, delay_se=math.nan,
                                   calibrated=False))
    return CompareResult(gamma=gamma, rows=tuple(rows))
