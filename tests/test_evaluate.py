import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from levydetect.detector import DetectorConfig, lattice_safe_barrier
from levydetect.errors import ContractError, InfeasibleTargetError
from levydetect.evaluate import (
    HORIZON_FACTOR,
    calibrate_barrier,
    compare,
    convergence_study,
    estimate_arl,
    lorden_delay,
    lower_bound_ratio,
    phi_lattice_constant,
)

SEED = 424242


def _grid_cfg(h, delta=0.1):
    return DetectorConfig(rule="cusum_grid", log_barrier=h, delta=delta)


class TestEstimateArl:
    def test_zero_barrier_geometric_oracle(self, brownian_model):
        dt = 0.5
        rep = estimate_arl(brownian_model, _grid_cfg(0.0, dt), "in_control",
                           20000, horizon=100.0, seed=SEED)
        p = 1.0 - 0.5 * (1.0 + math.erf(0.5 * math.sqrt(dt) / math.sqrt(2.0)))
        assert rep.within(dt / p, n_se=3.0)
        assert rep.n_censored == 0

    def test_out_of_control_shorter_than_in_control(self, brownian_model):
        cfg = _grid_cfg(2.0)
        a_inf = estimate_arl(brownian_model, cfg, "in_control", 3000,
                             horizon=300.0, seed=SEED)
        a_0 = estimate_arl(brownian_model, cfg, "out_of_control", 3000,
                           horizon=60.0, seed=SEED, block=1)
        assert a_0.estimate < a_inf.estimate

    def test_all_censored_is_unusable(self, brownian_model):
        rep = estimate_arl(brownian_model, _grid_cfg(9.0), "in_control", 200,
                           horizon=5.0, seed=SEED)
        assert rep.n_censored == rep.n_rep
        assert not rep.usable

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
        """Every probe but the bracket top equals estimate_arl on the
        calibration streams bit for bit, the bracket top is a lower bound of
        it, and the final report is estimate_arl at four times the budget.
        At gamma 6.4 and delta 0.1 the bracket top log(64) and the first
        midpoint sit on the lattice k * log 2 of the intensity-only pair."""
        model = request.getfixturevalue(fixture)
        gamma, delta, n_rep, block = 6.4, 0.1, 700, 3
        cal = calibrate_barrier(model, rule, gamma, 0.02, SEED, delta=delta,
                                n_rep=n_rep, block=block)

        def fresh(h, reps):
            return estimate_arl(model, DetectorConfig(rule, h, delta=delta),
                                "in_control", reps, HORIZON_FACTOR * gamma, SEED,
                                block=block, purpose="calibrate")
        assert 0 <= cal.lower_bound < len(cal.probes)
        for i, (h, value) in enumerate(cal.probes):
            full = fresh(h, n_rep).estimate
            if i == cal.lower_bound:
                assert gamma <= value <= full, h
            else:
                assert value == full, h
        assert cal.report == fresh(cal.h_bar, 4 * n_rep)
        if fixture == "poisson_model":
            nudged = [h for h, _ in cal.probes
                      if lattice_safe_barrier(h, math.log(2.0)) != h]
            assert len(nudged) >= 2


class TestLordenDelay:
    def test_equalizer_across_change_points(self, brownian_model):
        res = lorden_delay(brownian_model, _grid_cfg(2.0), [0.0, 1.0, 5.0],
                           4000, horizon=60.0, seed=SEED, return_samples=True)
        ests = [r.estimate for r in res.per_tau]
        ses = [r.std_error for r in res.per_tau]
        for i in range(3):
            for j in range(i + 1, 3):
                combined = math.hypot(ses[i], ses[j])
                assert abs(ests[i] - ests[j]) <= 3.0 * combined
                assert ks_2samp(res.samples[i], res.samples[j]).pvalue > 0.01
        assert res.worst.estimate == max(ests)

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
        rep = lower_bound_ratio(brownian_model, None, 0.25, 500, horizon=50.0,
                                seed=SEED, fixed_steps=1)
        assert rep.estimate == 0.25
        assert rep.std_error == 0.0

    def test_equality_for_the_reflected_rule(self, brownian_model):
        lb = lower_bound_ratio(brownian_model, _grid_cfg(2.0), 0.1, 6000,
                               horizon=300.0, seed=SEED)
        delay = estimate_arl(brownian_model, _grid_cfg(2.0), "out_of_control",
                             6000, horizon=60.0, seed=SEED, block=5)
        assert abs(lb.estimate - delay.estimate) <= 0.05 * delay.estimate

    def test_two_step_rule_two_estimator_agreement(self, brownian_model):
        """d-bar of the fixed two-step rule against a direct Monte Carlo of
        both expectations on fresh streams."""
        dt = 0.1
        rep = lower_bound_ratio(brownian_model, None, dt, 20000, horizon=50.0,
                                seed=SEED, fixed_steps=2)
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
        rep = lower_bound_ratio(brownian_model, None, dt, 4000, horizon=50.0,
                                seed=SEED, fixed_steps=m)
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
        assert res.cusum_leads()

    def test_cusum_beats_shiryaev_roberts(self, brownian_model):
        res = compare(brownian_model, 15.0,
                      [("cusum_grid", 0.1), ("shiryaev_roberts", 0.1)],
                      4000, SEED, n_rep_calibrate=2500)
        assert all(r.calibrated for r in res.rows)
        assert res.cusum_leads(n_se=3.0)

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


class TestLattice:
    def test_constant_ratio_detected(self, poisson_model, gaussian_shift_model):
        assert phi_lattice_constant(poisson_model) == pytest.approx(math.log(2.0))
        assert phi_lattice_constant(gaussian_shift_model) is None
