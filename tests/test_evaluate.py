import math
from dataclasses import replace

import numpy as np
import pytest

from levydetect import evaluate
from levydetect.detector import DetectorConfig
from levydetect.engine import RuleSpec, advance, batch_states
from levydetect.errors import (AlignmentError, ContractError, InfeasibleTargetError,
                               SpecValidationError)
from levydetect.evaluate import (
    BARRIER_NUDGE,
    HORIZON_FACTOR,
    CompareRow,
    calibrate_barrier,
    compare,
    convergence_study,
    estimate_arl,
    lattice_safe_barrier,
    lorden_delay,
    lower_bound_ratio,
)
from levydetect.oracle import brownian_grid_cusum_arl
from levydetect.paths import grid_steps

SEED = 424242


def _grid_cfg(h, delta=0.1):
    return DetectorConfig(rule="cusum_grid", log_barrier=h, delta=delta)


@pytest.mark.parametrize("h,delta,exact_in,exact_out", [
    (4.0, 0.1, 147.0723, 6.76359), (2.0, 0.1, 14.61910, 2.92553),
    (2.0, 1e-3, 9.25909, 2.33457)])
def test_brownian_grid_closed_form_matches_exact_run_lengths(h, delta, exact_in, exact_out):
    """Siegmund's corrected diffusion is within 0.05 % of the grid CUSUM's
    exact run lengths on the unit Brownian pair. The exact values solve the
    rule's renewal equation by Nystrom quadrature (64 Gauss-Legendre panels
    on [0, h) plus the atom at 0, converged to 1e-9 between 1,280 and 2,560
    nodes); without the shift, the continuous forms are 3-40 % low."""
    arl_in, arl_out = brownian_grid_cusum_arl(h, delta)
    assert arl_in == pytest.approx(exact_in, rel=5e-4)
    assert arl_out == pytest.approx(exact_out, rel=5e-4)


class TestEstimateArl:
    def test_zero_barrier_geometric_oracle(self, brownian_model):
        dt = 0.5
        rep = estimate_arl(brownian_model, _grid_cfg(0.0, dt), "in_control",
                           20000, horizon=100.0, seed=SEED)
        p = 1.0 - 0.5 * (1.0 + math.erf(0.5 * math.sqrt(dt) / math.sqrt(2.0)))
        assert abs(rep.estimate - dt / p) <= 3.0 * rep.std_error
        assert rep.n_censored == 0

    def test_out_of_control_shorter_than_in_control(self, brownian_model):
        cfg = _grid_cfg(2.0)
        a_inf = estimate_arl(brownian_model, cfg, "in_control", 3000,
                             horizon=300.0, seed=SEED)
        a_0 = estimate_arl(brownian_model, cfg, "out_of_control", 3000,
                           horizon=60.0, seed=SEED, block=1)
        assert a_0.estimate < a_inf.estimate

    def test_all_censored_counts_every_replication(self, brownian_model):
        rep = estimate_arl(brownian_model, _grid_cfg(9.0), "in_control", 200,
                           horizon=5.0, seed=SEED)
        assert rep.n_censored == rep.n_rep

    def test_determinism_across_threads(self, brownian_model):
        cfg = _grid_cfg(2.0)
        reps = [estimate_arl(brownian_model, cfg, "in_control", 2000,
                             horizon=200.0, seed=SEED, threads=t)
                for t in (1, 3)]
        assert reps[0].estimate == reps[1].estimate
        assert reps[0].std_error == reps[1].std_error
        assert reps[0].to_row() == reps[1].to_row()

    def test_regime_validation(self, brownian_model):
        with pytest.raises(ContractError):
            estimate_arl(brownian_model, _grid_cfg(1.0), "sideways", 10,
                         horizon=10.0, seed=SEED)


class TestCalibration:
    def test_round_trip_brownian(self, brownian_model):
        gamma = 25.0
        cal = calibrate_barrier(brownian_model, "cusum_grid", gamma, 0.02,
                                SEED, delta=0.1, n_rep=4000)
        assert abs(cal.report.estimate - gamma) <= 0.02 * gamma + 3 * cal.report.std_error
        # independent fresh-seed check run
        chk = estimate_arl(brownian_model, _grid_cfg(cal.h_bar), "in_control",
                           20000, horizon=500.0, seed=SEED + 1)
        assert abs(chk.estimate - gamma) <= 0.02 * gamma + 3.0 * chk.std_error

    def test_monotone_bracket(self, brownian_model):
        reps = [estimate_arl(brownian_model, _grid_cfg(h), "in_control", 4000,
                             horizon=600.0, seed=SEED, purpose="calibrate")
                for h in (1.0, 2.0, 3.0)]
        for lo, hi in zip(reps, reps[1:]):
            assert lo.estimate + 3.0 * (lo.std_error + hi.std_error) < hi.estimate

    def test_infeasible_target(self, brownian_model):
        with pytest.raises(InfeasibleTargetError):
            calibrate_barrier(brownian_model, "cusum_grid", 0.05, 0.02, SEED,
                              delta=0.1, n_rep=100)

    def test_zero_barrier_boundary(self, brownian_model):
        """Targeting the zero-barrier run length lands near a zero barrier."""
        dt = 0.5
        p = 1.0 - 0.5 * (1.0 + math.erf(0.5 * math.sqrt(dt) / math.sqrt(2.0)))
        cal = calibrate_barrier(brownian_model, "cusum_grid", dt / p, 0.05,
                                SEED, delta=dt, n_rep=3000)
        assert cal.h_bar < 0.3


class TestCalibrationProbes:
    """Probes read their stops off one set of paths instead of re-running
    them; each must still be the estimate a fresh run would give."""

    @pytest.mark.parametrize("fixture,rule", [
        ("brownian_model", "cusum_grid"),
        ("brownian_model", "shiryaev_roberts"),
        ("poisson_model", "cusum_grid"),
    ])
    def test_probes_equal_fresh_estimates(self, fixture, rule, request):
        """Every probe, each round's and the last one at h_bar, equals
        estimate_arl on the calibration streams bit for bit, and the final
        report is estimate_arl at four times the budget."""
        model = request.getfixturevalue(fixture)
        gamma, delta, n_rep, block = 6.4, 0.1, 700, 3
        cal = calibrate_barrier(model, rule, gamma, 0.02, SEED, delta=delta,
                                n_rep=n_rep, block=block)

        def fresh(h, reps):
            return estimate_arl(model, DetectorConfig(rule, h, delta=delta),
                                "in_control", reps, HORIZON_FACTOR * gamma, SEED,
                                block=block, purpose="calibrate")
        assert cal.probes[-1][0] == cal.h_bar and type(cal.h_bar) is float
        for h, value in cal.probes:
            assert value == fresh(h, n_rep).estimate, h
        assert cal.report == fresh(cal.h_bar, 4 * n_rep)
        if fixture == "poisson_model":
            _assert_off_the_lattice(model, cal, gamma, delta, n_rep, block)


def _assert_off_the_lattice(model, cal, gamma, delta, n_rep, block):
    """A CUSUM h_bar of the lattice pair lies strictly between two
    consecutive record values of its calibration paths, so its stops are
    those of every barrier up to the upper one, the barrier moved off the
    lattice k * log 2 included."""
    states = batch_states(model, "pre", [RuleSpec("cusum", 0.0)], delta, n_rep, SEED,
                          "calibrate", block=block, records=True)
    advance(states, grid_steps(HORIZON_FACTOR * gamma, delta),
            [max(h for h, _ in cal.probes)])
    values = np.unique(np.concatenate([s.ladder(0)[2] for s in states]))
    j = int(np.searchsorted(values, cal.h_bar))
    assert 0 < j < values.size and values[j - 1] < cal.h_bar < values[j]
    for h in (lattice_safe_barrier(cal.h_bar, math.log(2.0)), values[j]):
        for s in states:
            assert np.array_equal(s.first_reach(0, h), s.first_reach(0, cal.h_bar)), h


class TestLordenDelay:
    @pytest.mark.parametrize("grid", [(0.0,), (0.0, 1.0, 5.0),
                                      (0.0, 0.5, 1.0, 5.0, 20.0)],
                             ids=["tau1", "tau3", "tau5"])
    def test_one_run_serves_every_change_point(self, brownian_model, grid,
                                               monkeypatch):
        """Lorden's worst case is the restart delay at every change point:
        one post-change run on stream block 0, whatever the grid's length,
        bit for bit the out-of-control run of that block."""
        calls, run = [], evaluate.run_paths

        def counting(*args, **kwargs):
            calls.append(None)
            return run(*args, **kwargs)
        monkeypatch.setattr(evaluate, "run_paths", counting)
        res = lorden_delay(brownian_model, _grid_cfg(2.0), grid, 4000,
                           horizon=60.0, seed=SEED)
        assert len(calls) == 1
        arl0 = estimate_arl(brownian_model, _grid_cfg(2.0), "out_of_control",
                            4000, horizon=60.0, seed=SEED, purpose="delay", block=0)
        worst = res.worst
        assert replace(worst, label=arl0.label) == arl0
        assert worst.label == "delay_worst"
        assert res.tau_grid == grid
        assert [r.label for r in res.per_tau] == [f"delay_tau_{t:g}" for t in grid]
        assert all(replace(r, label=worst.label) == worst for r in res.per_tau)

    @pytest.mark.parametrize("grid, bad", [([], "empty"), ([0.0, -1.0], "-1.0"),
                                           ([0.0, math.nan], "nan"),
                                           ([math.inf], "inf"),
                                           ([-1.0, math.nan], "-1.0")],
                             ids=["empty", "negative", "nan", "inf", "negative_and_nan"])
    def test_bad_change_point_grid_rejected(self, brownian_model, grid, bad):
        """An empty grid used to end in numpy's argmax error, and a negative
        or non-finite change point was reported (as delay_tau_nan)."""
        with pytest.raises(ContractError, match=bad):
            lorden_delay(brownian_model, _grid_cfg(2.0), grid, 50,
                         horizon=60.0, seed=SEED)

    def test_tau_zero_matches_out_of_control_arl(self, brownian_model):
        res = lorden_delay(brownian_model, _grid_cfg(2.0), [0.0], 4000,
                           horizon=60.0, seed=SEED)
        arl0 = estimate_arl(brownian_model, _grid_cfg(2.0), "out_of_control",
                            4000, horizon=60.0, seed=SEED + 9)
        combined = math.hypot(res.per_tau[0].std_error, arl0.std_error)
        assert abs(res.per_tau[0].estimate - arl0.estimate) <= 3.0 * combined

    def test_horizon_without_a_monitoring_step_rejected(self, brownian_model):
        """A horizon below one step of delta used to yield an all-censored
        report of worst delay 0."""
        with pytest.raises(ContractError, match="horizon"):
            lorden_delay(brownian_model, _grid_cfg(2.0), [0.0], 50,
                         horizon=0.001, seed=SEED)


class TestLowerBound:
    def test_one_step_rule_is_exactly_delta(self, brownian_model):
        rep = lower_bound_ratio(brownian_model, _grid_cfg(2.0, 0.25), 500,
                                horizon=50.0, seed=SEED, fixed_steps=1)
        assert rep.estimate == 0.25
        assert rep.std_error == 0.0

    @pytest.mark.parametrize("delta", [None, math.inf, -0.1, 0.0, math.nan])
    def test_fixed_rule_needs_a_positive_delta(self, brownian_model, delta, monkeypatch):
        """The fixed rule's step is config.delta. A config takes no delta but
        a finite one > 0 (a zero one would divide by zero in the run), so only
        a missing delta is left for the fixed rule to name before any run; it
        can only come with the continuous rule, whose config needs none."""
        monkeypatch.setattr(evaluate, "run_paths", None)
        if delta is not None:
            with pytest.raises(SpecValidationError, match="delta"):
                _grid_cfg(2.0, delta)
            return
        with pytest.raises(ContractError, match="delta"):
            lower_bound_ratio(brownian_model, DetectorConfig("cusum_continuous", 2.0), 500,
                              horizon=50.0, seed=SEED, fixed_steps=1)

    def test_equality_for_the_reflected_rule(self, brownian_model):
        lb = lower_bound_ratio(brownian_model, _grid_cfg(2.0), 6000,
                               horizon=300.0, seed=SEED)
        delay = estimate_arl(brownian_model, _grid_cfg(2.0), "out_of_control",
                             6000, horizon=60.0, seed=SEED, block=5)
        assert abs(lb.estimate - delay.estimate) <= 0.05 * delay.estimate

    def test_two_step_rule_two_estimator_agreement(self, brownian_model):
        """d-bar of the fixed two-step rule against a direct Monte Carlo of
        both expectations on fresh streams."""
        dt = 0.1
        rep = lower_bound_ratio(brownian_model, _grid_cfg(2.0, dt), 20000,
                                horizon=50.0, seed=SEED, fixed_steps=2)
        rng = np.random.default_rng(SEED)
        u1 = rng.normal(-0.5 * dt, math.sqrt(dt), size=200000)
        s1 = np.exp(u1)
        num = 1.0 + np.maximum(s1, 1.0).mean()
        den = 1.0 + np.maximum(1.0 - s1, 0.0).mean()
        direct = dt * num / den
        assert abs(rep.estimate - direct) <= 3.0 * rep.std_error + 1e-3

    def test_fixed_rule_bounded_by_its_delay(self, brownian_model):
        """d-bar of a fixed m-step rule never exceeds its worst delay m*dt."""
        dt, m = 0.1, 50
        rep = lower_bound_ratio(brownian_model, _grid_cfg(2.0, dt), 4000,
                                horizon=50.0, seed=SEED, fixed_steps=m)
        assert rep.estimate <= m * dt + 3.0 * rep.std_error


class TestConvergence:
    def test_pathwise_monotone_and_gaps_shrink(self, brownian_model):
        res = convergence_study(brownian_model, 2.0, 4, 3000, SEED,
                                base_delta=0.16, grid_dt=0.01, horizon=40.0)
        assert res.monotone_fraction == 1.0
        gaps = [lv.mean_gap for lv in res.levels]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(g >= 0.0 for g in gaps)
        assert res.convention_agreement == 1.0

    def test_convention_agreement_on_lattice_model(self, poisson_model):
        """Intensity-only changes put the statistic on a lattice; the barrier
        nudge keeps both stopping conventions aligned even when the requested
        barrier sits exactly on it."""
        import math
        res = convergence_study(poisson_model, 3.0 * math.log(2.0), 2, 400,
                                SEED, base_delta=0.2, grid_dt=0.1,
                                horizon=400.0)
        assert res.convention_agreement == 1.0

    def test_deterministic_ramp_recovers_barrier_time(self):
        """On a deterministic unit-slope path every level whose grid contains
        the barrier time stops exactly there (checked via the detector on a
        synthetic path, independent of the engine)."""
        from levydetect.detector import run_rule
        from levydetect.likelihood import LLRPath
        t = np.linspace(0.0, 8.0, 801)
        llr = LLRPath(grid_dt=0.01, u_values=t.copy())
        for delta in (0.5, 0.25, 0.1, 0.05):
            res = run_rule(DetectorConfig("cusum_grid", 2.0, delta=delta), llr)
            assert res.stop_time == pytest.approx(2.0)

    def test_alignment_validated(self, brownian_model):
        with pytest.raises(ContractError):
            convergence_study(brownian_model, 2.0, 4, 10, SEED,
                              base_delta=0.15, grid_dt=0.01, horizon=10.0)
        # the base step is checked as run_rule checks a monitoring step
        with pytest.raises(AlignmentError, match="not an integer multiple"):
            convergence_study(brownian_model, 2.0, 4, 10, SEED,
                              base_delta=0.085, grid_dt=0.01, horizon=10.0)

    def test_negative_barrier_rejected(self, brownian_model, monkeypatch):
        """The study's barrier is checked as a CUSUM config's is, before any run."""
        monkeypatch.setattr(evaluate, "run_dyadic", None)
        with pytest.raises(SpecValidationError, match="log_barrier"):
            convergence_study(brownian_model, -0.5, 4, 10, SEED,
                              base_delta=0.08, grid_dt=0.01, horizon=10.0)

    def test_horizon_without_a_base_step_rejected(self, brownian_model):
        """Trimmed to whole base steps (8 fine steps), a 0.05 horizon holds
        none; the study must say so instead of reporting every stop as 0."""
        with pytest.raises(ContractError, match="horizon"):
            convergence_study(brownian_model, 2.0, 4, 10, SEED,
                              base_delta=0.08, grid_dt=0.01, horizon=0.05)


class TestCompare:
    def test_single_rule_table(self, brownian_model):
        res = compare(brownian_model, 10.0, [("cusum_grid", 0.1)], 1500, SEED,
                      n_rep_calibrate=1500)
        assert len(res.rows) == 1
        assert res.rows[0].calibrated
        assert res.cusum_leads() is None        # no competitor to weigh

    def test_cusum_beats_shiryaev_roberts(self, brownian_model):
        res = compare(brownian_model, 15.0,
                      [("cusum_grid", 0.1), ("shiryaev_roberts", 0.1)],
                      4000, SEED, n_rep_calibrate=2500)
        assert all(r.calibrated for r in res.rows)
        assert res.cusum_leads()

    def test_finer_monitoring_detects_no_later(self, brownian_model):
        """Same budget, two monitoring steps: the finer grid rule's delay is
        no larger (within the combined uncertainty)."""
        res = compare(brownian_model, 15.0,
                      [("cusum_grid", 0.4), ("cusum_grid", 0.1)],
                      6000, SEED, n_rep_calibrate=2500)
        coarse = next(r for r in res.rows if r.delta == 0.4)
        fine = next(r for r in res.rows if r.delta == 0.1)
        assert fine.worst_delay <= coarse.worst_delay + 3.0 * math.hypot(
            fine.delay_se, coarse.delay_se)

    @pytest.mark.parametrize("fixture", ["brownian_model", "poisson_model"])
    def test_sharing_paths_changes_no_estimator(self, fixture, request):
        """Two rules at one step share their calibration and delay paths, yet
        each row is bit for bit its rule's own calibrate_barrier on block 0
        followed by lorden_delay at the calibrated barrier."""
        model = request.getfixturevalue(fixture)
        gamma, delta, n_rep, n_cal = 6.4, 0.1, 1500, 700
        rules = [("cusum_grid", delta), ("shiryaev_roberts", delta)]
        res = compare(model, gamma, rules, n_rep, SEED, n_rep_calibrate=n_cal)
        cals = []
        for row, (rule, _) in zip(res.rows, rules):
            cal = calibrate_barrier(model, rule, gamma, 0.02, SEED, delta=delta,
                                    n_rep=n_cal, block=0)
            worst = lorden_delay(model, DetectorConfig(rule, cal.h_bar, delta=delta),
                                 (0.0,), n_rep, HORIZON_FACTOR * gamma, SEED).worst
            assert row == CompareRow(rule, delta, cal.h_bar, cal.report.estimate,
                                     cal.report.std_error, worst.estimate,
                                     worst.std_error, cal.converged), rule
            cals.append(cal)
        if fixture == "poisson_model":
            _assert_off_the_lattice(model, cals[0], gamma, delta, n_cal, 0)


class TestLattice:
    def test_engine_rule_nudges_lattice_cusum_barriers(self, poisson_model,
                                                      gaussian_shift_model):
        """A CUSUM barrier on the lattice k * log 2 of the intensity-only pair
        (phi = log 2 everywhere) moves up by BARRIER_NUDGE; a barrier off it,
        any barrier of a pair whose phi is not constant, and a
        Shiryaev-Roberts barrier stay where they are."""
        on, off = 3.0 * math.log(2.0), 2.0
        rule = evaluate._engine_rule
        assert rule(poisson_model, "cusum_grid", on) == RuleSpec("cusum", on + BARRIER_NUDGE)
        assert rule(poisson_model, "cusum_grid", off) == RuleSpec("cusum", off)
        for h in (on, off):
            assert rule(gaussian_shift_model, "cusum_grid", h) == RuleSpec("cusum", h)
        assert rule(poisson_model, "shiryaev_roberts", on) == RuleSpec("sr", on)
