import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from levydetect.detector import DetectorConfig, run_rule
from levydetect.errors import (AlignmentError, ContractError, InadmissibleModelError,
                               SpecValidationError)
from levydetect.families import LevySpec
from levydetect.likelihood import LLRPath, llr_path
from levydetect.model import build_change_model
from levydetect.paths import gamma_ledger_threshold, grid_steps, sample_changed_path
from levydetect.rng import RngStream

SEED = 20260808


def _paths(model, tau, horizon, dt, n, seed=SEED):
    return [sample_changed_path(model, tau, horizon, dt, RngStream(seed, i))
            for i in range(n)]


class TestShapeAndLedger:
    def test_grid_shape(self, brownian_model):
        p = sample_changed_path(brownian_model, math.inf, 10.0, 0.01,
                                RngStream(SEED, 0))
        assert len(p.values) == 1001
        assert p.values[0] == 0.0
        assert p.horizon == pytest.approx(10.0)

    def test_change_point_far_past_the_horizon(self, poisson_model):
        """A finite tau whose grid index overflows is a change at the horizon."""
        far, never = (sample_changed_path(poisson_model, tau, 10.0, 0.001,
                                          RngStream(SEED, 0)) for tau in (1e308, math.inf))
        assert far.change_point == pytest.approx(10.0)
        assert np.array_equal(far.values, never.values)

    def test_jump_times_sorted_within_horizon(self, poisson_model):
        for p in _paths(poisson_model, 5.0, 10.0, 0.01, 20):
            assert np.all(np.diff(p.jump_times) >= 0.0)
            assert np.all((p.jump_times > 0.0) & (p.jump_times <= 10.0))

    def test_compound_poisson_jumps_embedded_exactly(self, poisson_model):
        """Step increment = linear drift + sum of ledger jumps in the step."""
        for p in _paths(poisson_model, 4.0, 8.0, 0.01, 10):
            inc = np.diff(p.values)
            per_step = np.zeros(len(inc))
            idx = np.ceil(p.jump_times / p.grid_dt - 1e-12).astype(int) - 1
            np.add.at(per_step, idx, p.jump_sizes)
            drift = poisson_model.pre.linear_drift()
            assert np.abs(inc - per_step - drift * p.grid_dt).max() < 1e-12

    def test_no_ledger_jump_at_change_point(self, poisson_model):
        for p in _paths(poisson_model, 2.0, 6.0, 0.01, 200):
            assert not np.any(p.jump_times == p.change_point)

    def test_gamma_ledger_consistent_with_increments(self, gamma_model):
        for p in _paths(gamma_model, math.inf, 4.0, 0.05, 10):
            inc = np.diff(p.values)
            per_step = np.zeros(len(inc))
            idx = np.ceil(p.jump_times / p.grid_dt - 1e-12).astype(int) - 1
            np.add.at(per_step, idx, p.jump_sizes)
            assert np.all(per_step <= inc + 1e-12)
            # the ledger threshold hides only a vanishing mass
            assert per_step.sum() >= 0.999 * inc.sum()

    def test_gamma_ledger_threshold_budget(self):
        eps = gamma_ledger_threshold(1.0, 1.0)
        from scipy.special import exp1
        assert exp1(eps / 1.0) * 1.0 <= 1.0e3 + 1.0

    def test_validation_errors(self, brownian_model):
        with pytest.raises(SpecValidationError):
            sample_changed_path(brownian_model, 0.0, 1.0, -0.1, RngStream(SEED, 0))
        with pytest.raises(SpecValidationError):
            sample_changed_path(brownian_model, -1.0, 1.0, 0.1, RngStream(SEED, 0))
        with pytest.raises(ContractError, match="horizon 0.05 "):
            sample_changed_path(brownian_model, 0.0, 0.05, 0.1, RngStream(SEED, 0))
        with pytest.raises(InadmissibleModelError):
            sample_changed_path(build_change_model(LevySpec.brownian(1.0, 0.0),
                                                   LevySpec.brownian(2.0, 0.0)),
                                0.0, 1.0, 0.1, RngStream(SEED, 0))


@pytest.mark.parametrize("horizon,dt,unit,steps", [
    (10.0, 0.01, 1, 1000), (0.1 * (1.0 - 1e-10), 0.1, 1, 1), (10.06, 0.1, 1, 100),
    (10.36, 0.1, 4, 100), (0.06, 0.1, 1, None)],
    ids=["whole", "a_hair_short", "floored", "whole_units", "shorter_than_a_step"])
def test_grid_steps_counts_the_whole_steps_that_fit(horizon, dt, unit, steps):
    """The largest multiple of unit steps that fits, never one past the
    horizon: rounding gave 101 steps for 10.06 / 0.1, and rounding then
    trimming to units of 4 gave 104 for 10.36 / 0.1. A horizon that holds
    no unit raises, naming itself."""
    if steps is None:
        with pytest.raises(ContractError, match=f"horizon {horizon} "):
            grid_steps(horizon, dt, unit)
    else:
        assert grid_steps(horizon, dt, unit) == steps


def test_horizon_a_hair_below_one_step_is_one_step(brownian_model):
    """The path and its step count agree on the horizon: grid_steps counts a
    horizon within 1e-9 steps below a whole step as that step, so the
    path covers it, as the CLI's check of simulation.horizon expects."""
    path = sample_changed_path(brownian_model, 0.0, 0.1 * (1.0 - 1e-10), 0.1,
                               RngStream(SEED, 0))
    assert len(path.values) == 2 and path.horizon == 0.1


class TestReproducibility:
    def test_same_stream_same_path(self, jump_diffusion_model):
        a = sample_changed_path(jump_diffusion_model, 3.0, 6.0, 0.01,
                                RngStream(SEED, 42))
        b = sample_changed_path(jump_diffusion_model, 3.0, 6.0, 0.01,
                                RngStream(SEED, 42))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.jump_times, b.jump_times)

    def test_distinct_streams_differ(self, jump_diffusion_model):
        a = sample_changed_path(jump_diffusion_model, 3.0, 6.0, 0.01,
                                RngStream(SEED, 42))
        b = sample_changed_path(jump_diffusion_model, 3.0, 6.0, 0.01,
                                RngStream(SEED, 43))
        assert not np.array_equal(a.values, b.values)


class TestChangeInjection:
    def test_no_change_brownian_mean(self, brownian_model):
        n = 10000
        finals = np.array([
            sample_changed_path(brownian_model, math.inf, 1.0, 0.05,
                                RngStream(SEED, i)).values[-1]
            for i in range(n)])
        se = finals.std(ddof=1) / math.sqrt(n)
        assert abs(finals.mean()) <= 3.0 * se

    def test_immediate_change_poisson_rate(self, poisson_model):
        counts = [len(sample_changed_path(poisson_model, 0.0, 100.0, 0.1,
                                          RngStream(SEED, i)).jump_times)
                  for i in range(200)]
        counts = np.asarray(counts, dtype=float)
        rate = counts.mean() / 100.0
        se = counts.std(ddof=1) / math.sqrt(len(counts)) / 100.0
        assert abs(rate - 2.0) <= 3.0 * se

    def test_drift_switches_at_tau(self, brownian_model):
        n = 10000
        pre_inc = np.empty(n)
        post_inc = np.empty(n)
        for i in range(n):
            p = sample_changed_path(brownian_model, 5.0, 10.0, 0.1,
                                    RngStream(SEED, i))
            k = int(round(5.0 / 0.1))
            pre_inc[i] = p.values[k]
            post_inc[i] = p.values[-1] - p.values[k]
        se_pre = pre_inc.std(ddof=1) / math.sqrt(n)
        se_post = post_inc.std(ddof=1) / math.sqrt(n)
        assert abs(pre_inc.mean() / 5.0) <= 3.0 * se_pre / 5.0
        assert abs(post_inc.mean() / 5.0 - 1.0) <= 3.0 * se_post / 5.0

    def test_gamma_exchangeable_increments(self, gamma_model):
        """First-half and second-half increments share a law when no change."""
        inc = []
        for p in _paths(gamma_model, math.inf, 10.0, 0.1, 40):
            inc.append(np.diff(p.values))
        inc = np.concatenate(inc)
        half = len(inc) // 2
        stat = ks_2samp(inc[:half], inc[half:])
        assert stat.pvalue > 0.01


class TestRestrictToGrid:
    """A grid rule reads the path at the multiples of its stride delta /
    grid_dt; no interpolation is ever performed."""

    @staticmethod
    def _grid(llr, delta, log_barrier=1.0):
        return run_rule(DetectorConfig("cusum_grid", log_barrier, delta=delta), llr)

    def test_identity_at_simulation_step(self, brownian_model):
        p = sample_changed_path(brownian_model, math.inf, 2.0, 0.1,
                                RngStream(SEED, 7))
        llr = llr_path(brownian_model, p)
        grid = self._grid(llr, 0.1)
        # the same points: only the drawup floors a censored statistic at 0
        assert replace(grid, stat_at_stop=max(grid.stat_at_stop, 0.0)) == \
            run_rule(DetectorConfig("cusum_continuous", 1.0), llr)

    def test_single_increment_at_horizon(self, brownian_model):
        p = sample_changed_path(brownian_model, math.inf, 2.0, 0.1,
                                RngStream(SEED, 7))
        llr = llr_path(brownian_model, p)
        res = self._grid(llr, 2.0, log_barrier=0.0)
        assert res.steps_taken == 1
        assert res.stop_time == pytest.approx(2.0)
        assert res.stat_at_stop == pytest.approx(llr.u_values[-1] - llr.u_values[0])

    def test_small_example(self):
        with pytest.raises(AlignmentError):
            self._grid(LLRPath(grid_dt=1.0, u_values=np.array([0.0, 1.0, 3.0, 6.0])), 1.5)
        llr = LLRPath(grid_dt=1.0, u_values=np.array([0.0, 1.0, 3.0, 6.0, 10.0]))
        res = self._grid(llr, 2.0, log_barrier=5.0)
        assert (res.steps_taken, res.stop_time, res.stat_at_stop) == (2, 4.0, 10.0)

    def test_reconstruction(self, jump_diffusion_model):
        """The grid rule at delta is the discrete-time CUSUM recursion over
        the path's increments of U across the coarse steps."""
        p = sample_changed_path(jump_diffusion_model, 1.0, 4.0, 0.01,
                                RngStream(SEED, 3))
        llr = llr_path(jump_diffusion_model, p)
        res = self._grid(llr, 0.2)
        s = -math.inf
        for steps, log_l in enumerate(np.diff(llr.u_values[::20]), start=1):
            s = max(s, 0.0) + log_l
            if s >= 1.0:
                break
        assert not res.censored
        assert res.steps_taken == steps
        assert res.stat_at_stop == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_nested_grid_consistency(self, jump_diffusion_model):
        """Restricting to 0.1 and then to 0.2 is restricting to 0.2."""
        p = sample_changed_path(jump_diffusion_model, 1.0, 4.0, 0.01,
                                RngStream(SEED, 3))
        llr = llr_path(jump_diffusion_model, p)
        fine = LLRPath(grid_dt=0.1, u_values=llr.u_values[::10])
        once, twice = self._grid(llr, 0.2), self._grid(fine, 0.2)
        assert (once.steps_taken, once.stat_at_stop) == (twice.steps_taken,
                                                          twice.stat_at_stop)
        assert once.stop_time == pytest.approx(twice.stop_time)
