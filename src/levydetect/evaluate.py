"""Monte Carlo evaluation harness: run-length estimation, barrier
calibration, worst-case delay measurement, the lower-bound functional,
discretization convergence, and rule comparison.

Conventions
-----------
* regimes are ``in_control`` (no change ever) and ``out_of_control`` (changed
  from the start);
* worst-case delays are measured by restarting the statistic from its least
  favorable value at the change instant (S = 1 for CUSUM-type rules, R = 0
  for Shiryaev-Roberts); that delay does not depend on the change point, so
  one run gives it for the whole change-point grid;
* every estimate is censored at an explicit horizon and the censored count is
  carried in the report, never dropped; a horizon T on steps of width d
  covers the floor(T / d) whole steps that fit, to 1e-9 of a step
  (:func:`paths.grid_steps`), and the report's ``horizon`` is their end;
  a convergence study covers whole base steps;
* calibration inverts the in-control mean run length of one set of
  in-control paths: the statistic paths do not depend on the barrier, so
  that mean is a nondecreasing step function of the barrier, held exactly by
  the paths' record highs, and every probe reads its stops off them; in a
  comparison, the rules that share a monitoring step share those paths and
  their delay paths too;
* every run maps its rule and log barrier to an engine rule in :func:`_engine_rule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .detector import HARNESS_RULES, DetectorConfig, check_log_barrier, grid_stride
from .engine import (PathRunResult, RuleSpec, advance, batch_states, release,
                     run_dyadic, run_paths, run_rules)
from .errors import (
    ContractError,
    DegenerateRuleError,
    InfeasibleTargetError,
    SampleSizeError,
    SpecValidationError,
)
from .model import ChangeModel
from .paths import grid_steps
from .report import EvalReport, Provenance

__all__ = [
    "estimate_arl",
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
    "lattice_safe_barrier",
]

REGIMES = ("in_control", "out_of_control")
_ENGINE_REGIME = {"in_control": "pre", "out_of_control": "post"}
HORIZON_FACTOR = 20.0      # censoring horizon of calibration and comparison: 20 x target
BARRIER_NUDGE = 1e-6       # how far lattice_safe_barrier moves a barrier off the lattice


def lattice_safe_barrier(log_barrier: float, phi_constant: Optional[float]) -> float:
    """Move a barrier off the lattice {k * phi_constant} of a constant
    density-ratio model (intensity-only change), where the reflected statistic
    can land exactly on the barrier and the two stopping conventions
    (>= h vs > h) part ways. A barrier is returned unchanged when phi has no
    constant value (None) or a constant <= 0."""
    if phi_constant is None or phi_constant <= 0.0:
        return log_barrier
    k = round(log_barrier / phi_constant)
    if k > 0 and abs(log_barrier - k * phi_constant) < BARRIER_NUDGE:
        return k * phi_constant + BARRIER_NUDGE
    return log_barrier


def _engine_rule(model: ChangeModel, rule: str, log_barrier: float) -> RuleSpec:
    """The engine rule of a rule the harness runs (it monitors on a grid of
    step delta only) at a checked log barrier; a CUSUM barrier moves off the
    lattice of a flat density ratio."""
    if rule not in HARNESS_RULES:
        raise SpecValidationError(
            f"rule {rule!r} (detector.rule or experiment.rules) is not run "
            f"by the Monte Carlo harness; use one of {list(HARNESS_RULES)}")
    check_log_barrier(rule, log_barrier)
    if rule == "shiryaev_roberts":
        return RuleSpec(kind="sr", log_barrier=log_barrier)
    lattice = None if model.phi is None else model.phi.constant
    return RuleSpec(kind="cusum", log_barrier=lattice_safe_barrier(log_barrier, lattice))


def _report(result: PathRunResult, model: ChangeModel, rule: str,
            regime: str, seed: int, block: int, label: str) -> EvalReport:
    times = result.stop_times
    est = float(times.mean())
    se = float(times.std(ddof=1) / math.sqrt(len(times))) if len(times) > 1 else 0.0
    prov = Provenance(master_seed=seed, grid_dt=result.dt, delta=result.dt,
                      rule=rule, model_digest=model.digest(),
                      regime=regime, stream_block=block)
    return EvalReport(estimate=est, std_error=se, n_rep=len(times),
                      n_censored=int(result.censored.sum()),
                      horizon=result.n_steps * result.dt,
                      provenance=prov, label=label)


def estimate_arl(model: ChangeModel, config: DetectorConfig, regime: str,
                 n_rep: int, horizon: float, seed: int, threads: int = 1,
                 block: int = 0, purpose: str = "arl",
                 return_raw: bool = False):
    """Mean run length of a rule under the in- or out-of-control regime.

    Censored replications contribute the horizon (downward bias; flagged via
    the censored count in the report). With ``return_raw`` the engine's
    :class:`PathRunResult` comes too, its last reflections kept for ``tau_hat``.
    """
    if regime not in REGIMES:
        raise ContractError(f"regime must be one of {REGIMES}, got {regime!r}")
    rule, dt = _engine_rule(model, config.rule, config.log_barrier), float(config.delta)
    n_steps = grid_steps(horizon, dt)
    result = run_paths(model, _ENGINE_REGIME[regime], rule, dt, n_steps, n_rep,
                       seed, purpose, block=block, threads=threads,
                       last_reflect=return_raw)
    report = _report(result, model, config.rule, regime, seed, block,
                     label=f"arl_{regime}")
    return (report, result) if return_raw else report


@dataclass(frozen=True)
class CalibrationResult:
    h_bar: float
    report: EvalReport
    probes: Tuple[Tuple[float, float], ...]
    converged: bool            # the sample's run-length level nearest gamma met rel_tol


def calibrate_barrier(model: ChangeModel, rule: str, gamma: float,
                      rel_tol: float, seed: int, delta: float,
                      n_rep: int = 4000, threads: int = 1,
                      block: int = 0) -> CalibrationResult:
    """The log barrier at which the in-control mean run length of one set of
    in-control paths ('calibrate' block ``block``) is nearest gamma.

    The statistic paths do not depend on the barrier, so on a fixed sample
    the mean run length ARL_n(h) is a nondecreasing step function of h,
    which the paths' ladders of record highs hold exactly. Probe barriers
    rise from 0 in rounds, each advancing every path from where it stopped,
    until ARL_n reaches gamma; the step is a secant on log ARL_n. ARL_n(h)
    for h up to the last round is then read off the ladders, and ``h_bar``
    is the middle of the interval on which its level is nearest gamma: the
    last level below gamma or the first at or above it. Every probe, each
    round and then ``h_bar``, equals :func:`estimate_arl` at its barrier on
    the same streams (purpose 'calibrate'). ``converged`` says whether the
    probe at ``h_bar`` is within rel_tol of gamma. The final acceptance
    probe runs at four times the probe budget, on the probe paths plus
    3 * n_rep new ones, which run once on restarted generators, and its
    report is returned.
    """
    (cal,) = _calibrate(model, (rule,), gamma, rel_tol, seed, delta, n_rep, threads, block)
    if isinstance(cal, Exception):
        raise cal
    return cal


def _calibrate(model: ChangeModel, rules: Sequence[str], gamma: float, rel_tol: float,
               seed: int, delta: float, n_rep: int, threads: int, block: int) -> list:
    """:func:`calibrate_barrier` for rules that share the monitoring step
    ``delta``, on one shared set of paths: per rule its
    :class:`CalibrationResult`, or the InfeasibleTargetError that ended its
    rounds. The rules calibrate in turn, each advancing the paths under its
    own barrier while the others get -inf, so they keep no path live but
    scan every step drawn; each rule's probes thus equal those of its own
    calibration. Then every rule that has a barrier takes its final probe on
    the same 3 * n_rep new paths."""
    if gamma < delta:
        raise InfeasibleTargetError(
            f"target {gamma} is below one monitoring step {delta}; "
            "randomized rules are out of scope")
    horizon = HORIZON_FACTOR * gamma
    specs = [_engine_rule(model, rule, 0.0) for rule in rules]
    dt = float(delta)
    try:
        n_steps = grid_steps(horizon, dt)
    except ContractError as exc:
        raise InfeasibleTargetError(
            f"target {gamma} needs a censoring horizon of {horizon}: {exc}") from exc
    try:        # the final probe's stops, first, so a sample too large fails at once
        final_stops = np.empty(4 * n_rep, dtype=np.int64)
    except MemoryError as exc:
        raise SampleSizeError(f"a calibration sample of {n_rep} paths, probed on "
                              f"{4 * n_rep}, does not fit in memory", "calibrate") from exc
    paths = batch_states(model, "pre", specs, dt, n_rep, seed, "calibrate", block=block,
                         records=True)

    def barriers(hs: dict) -> List[float]:
        return [_engine_rule(model, rules[i], hs[i]).log_barrier if i in hs else -math.inf
                for i in range(len(rules))]

    def stops(i: int, h: float) -> np.ndarray:
        levels = barriers({i: h})
        advance(paths, n_steps, levels, threads)
        return np.concatenate([p.first_reach(i, levels[i]) for p in paths])

    def report(i: int, st: np.ndarray) -> EvalReport:
        result = PathRunResult(dt, n_steps, st, stat=None, last_reflect=None)
        return _report(result, model, rules[i], "in_control", seed, block,
                       label="arl_in_control")

    def arl_at(i: int, h: float) -> float:
        return report(i, stops(i, h)).estimate

    def read_off(i: int, top: float) -> float:
        """The middle of the interval of [0, top] on which ARL_n, once every
        path has reached ``top`` or the horizon, has its level nearest gamma.
        A row's stop moves from one record's step to the next one's as h
        passes the record's value, and to the horizon past its last record,
        so the sum of the stops at h is the sum of the first records' steps
        plus every such jump below h. The last jump is exact on a censored
        row; on any other its value is at or above ``top``, so it is never
        read."""
        at, jumps, total = [], [], 0
        for p in paths:
            rows, steps, values = p.ladder(i)
            order = np.argsort(rows, kind="stable")
            rows, steps = rows[order], steps[order]
            last = np.append(rows[1:] != rows[:-1], True)
            nxt = np.append(steps[1:], n_steps)
            nxt[last] = n_steps
            at.append(values[order])
            jumps.append(nxt - steps)
            total += int(steps[np.insert(last[:-1], 0, True)].sum())
        at = np.concatenate(at)
        order = np.argsort(at, kind="stable")
        at = at[order]
        sums = total + np.concatenate(([0], np.cumsum(np.concatenate(jumps)[order])))
        # the level on [0, e_1], then on each (e_k, e_k+1], e the distinct
        # values in [0, top) (np.unique would import numpy.ma)
        inner = at[(at >= 0.0) & (at < top)]
        edges = np.concatenate(([0.0], inner[np.diff(inner, prepend=-1.0) > 0.0], [top]))
        below = np.searchsorted(at, edges[:-1], side="right")
        below[0] = np.searchsorted(at, 0.0, side="left")
        levels = sums[below] * dt / n_rep
        k = min(int(np.searchsorted(levels, gamma)), len(levels) - 1)
        if k > 0 and gamma - levels[k - 1] < levels[k] - gamma:
            k -= 1
        return float(0.5 * (edges[k] + edges[k + 1]))

    def calibrate(i: int):
        """(h_bar, probes, converged) of rule i."""
        probes = [(0.0, arl_at(i, 0.0))]
        if probes[0][1] >= gamma * (1.0 + rel_tol):
            raise InfeasibleTargetError(
                f"even a zero barrier overshoots the target ({probes[0][1]:.4g} >= {gamma})")
        while probes[-1][1] < gamma:
            if len(probes) == 1:
                h = 0.5
            else:
                # a secant on log ARL_n aimed 0.05 past gamma, so that one
                # more round mostly reaches it; slopes below 1 count as 1
                (h0, a0), (h1, a1) = probes[-2:]
                rate = math.log(a1 / a0) / (h1 - h0)
                h = h1 + max(0.05, (math.log(gamma / a1) + 0.05) / max(rate, 1.0))
            probes.append((h, arl_at(i, h)))
        h = read_off(i, probes[-1][0])
        probes.append((h, arl_at(i, h)))
        return h, tuple(probes), abs(probes[-1][1] - gamma) <= rel_tol * gamma

    outcomes: list = []
    for i in range(len(rules)):
        try:
            outcomes.append(calibrate(i))
        except InfeasibleTargetError as exc:
            outcomes.append(exc)
    hs = {i: out[0] for i, out in enumerate(outcomes) if not isinstance(out, Exception)}
    levels = barriers(hs)
    # every rule's rows already stand at or past its h_bar, which is at most
    # its last probe's barrier, or at the horizon: the final probe draws no
    # further on them, and its new paths reuse their generators
    release(paths)
    if hs:
        fresh = run_rules(model, "pre",
                          [replace(specs[i], log_barrier=levels[i]) for i in hs],
                          dt, n_steps, 4 * n_rep, seed, "calibrate", block=block,
                          threads=threads, first=n_rep)
        for (i, h), new in zip(hs.items(), fresh):
            np.concatenate([p.first_reach(i, levels[i]) for p in paths] + [new.stop_steps],
                           out=final_stops)
            _, probes, converged = outcomes[i]
            outcomes[i] = CalibrationResult(h_bar=h, report=report(i, final_stops),
                                            probes=probes, converged=converged)
    return outcomes


@dataclass(frozen=True)
class LordenResult:
    """Lorden's worst-case delay (``worst``) and the same report at each
    change point of ``tau_grid`` (``per_tau``, labelled ``delay_tau_{tau:g}``)."""
    per_tau: Tuple[EvalReport, ...]
    worst: EvalReport
    tau_grid: Tuple[float, ...]


def lorden_delay(model: ChangeModel, config: DetectorConfig,
                 tau_grid: Sequence[float], n_rep: int, horizon: float,
                 seed: int, threads: int = 1) -> LordenResult:
    """Lorden's worst-case expected detection delay, reported at every
    change point of a grid.

    Lorden's worst case at a change point tau is the delay from the least
    favorable state at tau: the restart (S = 1 for CUSUM, R = 0 for
    Shiryaev-Roberts). Both recursions are monotone in their start, so from
    any other state a path stops no later (Lorden 1971; Moustakides 1986).
    The restart delay has one law whatever tau is, so it is the
    out-of-control :func:`estimate_arl` of ``n_rep`` paths on the 'delay'
    streams (block 0), relabelled: ``worst`` and every ``per_tau`` entry.
    The grid must hold at least one change point, each a finite number >= 0.
    """
    grid = tuple(float(t) for t in tau_grid)
    if not grid:
        raise ContractError("tau_grid is empty: give at least one change point")
    for tau in grid:
        if not (math.isfinite(tau) and tau >= 0.0):
            raise ContractError(f"tau_grid entry {tau!r} is not a finite number >= 0")
    worst = replace(estimate_arl(model, config, "out_of_control", n_rep, horizon, seed,
                                 threads=threads, block=0, purpose="delay"),
                    label="delay_worst")
    return LordenResult(
        per_tau=tuple(replace(worst, label=f"delay_tau_{tau:g}") for tau in grid),
        worst=worst, tau_grid=grid)


def lower_bound_ratio(model: ChangeModel, config: DetectorConfig, n_rep: int,
                      horizon: float, seed: int, threads: int = 1,
                      fixed_steps: Optional[int] = None) -> EvalReport:
    """The in-control lower-bound functional of a grid stopping rule:

        delta * E[ sum max(S_k, 1) ] / E[ sum (1 - S_k)^+ ],

    sums over monitored steps strictly before the stop or horizon (k = 0 included).
    The step delta is ``config.delta``. With ``fixed_steps`` the rule is the
    fixed rule stopping after that many steps (provenance ``fixed_<m>``): a
    rule that never stops, run to a horizon of m steps; otherwise it is
    ``config``'s rule. The standard error comes from the first-order delta
    method on the paired per-replication sums.
    """
    if fixed_steps is None:
        rule, rule_name = _engine_rule(model, config.rule, config.log_barrier), config.rule
    elif config.delta is None:
        raise ContractError(f"fixed rule needs a delta, and rule {config.rule!r} has none")
    elif fixed_steps < 1:
        raise ContractError("fixed rule needs at least one step")
    else:
        rule, rule_name = RuleSpec("cusum", math.inf), f"fixed_{fixed_steps}"
    dt = float(config.delta)
    n_steps = grid_steps(horizon, dt)
    steps = n_steps if fixed_steps is None else fixed_steps
    if steps > n_steps:
        raise ContractError(f"fixed rule of {steps} steps exceeds the {n_steps}-step horizon")
    result = run_paths(model, "pre", rule, dt, steps, n_rep, seed, "lower_bound",
                       threads=threads, collect_lb=True)
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
                      stream_block=0)
    return EvalReport(estimate=dt * ratio, std_error=se, n_rep=n_rep,
                      n_censored=0 if fixed_steps else int(result.censored.sum()),
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
    """Stop times of the grid rule across nested dyadic monitoring grids,
    censored at the end of the whole base steps that fit in the horizon.

    Each level is a strided CUSUM rule on the same fine trajectories
    (:func:`run_dyadic`), so the nested-grid ordering is checked pathwise and
    the per-level mean gaps to the finest rule are exact Monte Carlo averages
    of nonnegative variables. The study also reports how often the ">= barrier"
    stops equal the strict "> barrier" ones: they part only where the statistic
    lands exactly on the barrier, which barrier nudging keeps a null event, and
    only such a tie runs the levels again under the strict convention.
    """
    if regime not in REGIMES:
        raise ContractError(f"regime must be one of {REGIMES}")
    base_stride = grid_stride(base_delta, grid_dt)
    n_steps = grid_steps(horizon, grid_dt, base_stride)
    strides = dyadic_strides(base_stride, dyadic_levels)
    has_ref = strides[-1] > 1
    if has_ref:
        strides.append(1)      # finest monitored rule as the reference
    barrier = _engine_rule(model, "cusum_grid", h_bar).log_barrier

    stops, stops_strict = run_dyadic(model, _ENGINE_REGIME[regime], barrier,
                                     grid_dt, n_steps, strides, n_rep, seed,
                                     threads=threads)
    ref = stops[-1]
    monotone = (np.diff(stops, axis=0) <= 0.0).all(axis=0)
    agree = (np.asarray(stops) == np.asarray(stops_strict)).all(axis=0)

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

    def cusum_leads(self) -> Optional[bool]:
        """Does every competitor's worst delay dominate the CUSUM's, within
        three combined Monte Carlo standard errors? Only rows calibrated to the
        common budget, with a finite delay, are weighed; None when no such
        CUSUM row or no such competitor is left."""
        rows = [r for r in self.rows if r.calibrated and math.isfinite(r.worst_delay)]
        cusum = [r for r in rows if r.rule.startswith("cusum")]
        others = [r for r in rows if not r.rule.startswith("cusum")]
        if not cusum or not others:
            return None
        c = min(cusum, key=lambda r: r.worst_delay)
        return all(c.worst_delay <= o.worst_delay
                   + 3.0 * math.hypot(c.delay_se, o.delay_se)
                   for o in others)


def compare(model: ChangeModel, gamma: float, rules: Sequence[Tuple[str, float]],
            n_rep: int, seed: int, rel_tol: float = 0.02,
            threads: int = 1, n_rep_calibrate: int = 4000) -> CompareResult:
    """Calibrate each rule to the same false-alarm budget and compare
    worst-case delays.

    Rules that share a monitoring step share their paths: the g-th distinct
    step, in order of first appearance, calibrates its rules in rule order on
    'calibrate' block g (:func:`calibrate_barrier`, each rule's probes and
    final probe bit for bit those of its own calibration on that block), and
    measures their Lorden delays (:func:`lorden_delay`'s restart run) in one
    run on the 'delay' block-0 streams. Calibration failures flag the row
    instead of aborting the table: a rule that cannot be calibrated gets NaN
    numbers, and one whose calibration missed rel_tol keeps its numbers at
    its h_bar."""
    groups: dict = {}
    for i, (_, delta) in enumerate(rules):
        groups.setdefault(float(delta), []).append(i)
    rows = [CompareRow(rule=rule, delta=delta, h_bar=math.nan, gamma_achieved=math.nan,
                       gamma_se=math.nan, worst_delay=math.nan, delay_se=math.nan,
                       calibrated=False) for rule, delta in rules]
    for block, (delta, idx) in enumerate(groups.items()):
        try:
            cals = _calibrate(model, [rules[i][0] for i in idx], gamma, rel_tol, seed,
                              delta, n_rep_calibrate, threads, block)
        except InfeasibleTargetError:
            continue
        done = [(i, cal) for i, cal in zip(idx, cals) if isinstance(cal, CalibrationResult)]
        if not done:
            continue
        # Lorden's worst case is one restart run, whatever the change point
        n_steps = grid_steps(HORIZON_FACTOR * gamma, delta)
        delays = run_rules(model, "post",
                           [_engine_rule(model, rules[i][0], cal.h_bar) for i, cal in done],
                           delta, n_steps, n_rep, seed, "delay", threads=threads)
        for (i, cal), res in zip(done, delays):
            worst = _report(res, model, rules[i][0], "out_of_control", seed, 0,
                            label="delay_worst")
            rows[i] = replace(rows[i], h_bar=cal.h_bar, gamma_achieved=cal.report.estimate,
                              gamma_se=cal.report.std_error, worst_delay=worst.estimate,
                              delay_se=worst.std_error, calibrated=cal.converged)
    return CompareResult(gamma=gamma, rows=tuple(rows))
