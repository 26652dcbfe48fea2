import math

import numpy as np
import pytest

from levydetect.errors import ContractError, SpecValidationError
from levydetect.families import LevySpec
from levydetect.likelihood import LLRPath, llr_path
from levydetect.model import build_change_model
from levydetect.paths import sample_changed_path
from levydetect.rng import RngStream

from conftest import u_increments

SEED = 31            # master seed for this module's simulations


class TestLlrPathClosedForms:
    def test_brownian_substitution(self, brownian_model):
        p = sample_changed_path(brownian_model, math.inf, 1.0, 0.01, RngStream(SEED, 0))
        u = llr_path(brownian_model, p)
        # mu = 1: U_t = X_t - t/2
        assert np.allclose(u.u_values, p.values - 0.5 * p.times, atol=1e-12)
        k = len(p.values) - 1
        assert u.u_values[k] == pytest.approx(p.values[k] - 0.5)

    def test_poisson_counting_form(self, poisson_model):
        p = sample_changed_path(poisson_model, 0.0, 5.0, 0.01, RngStream(SEED, 1))
        u = llr_path(poisson_model, p)
        counts = np.searchsorted(p.jump_times, p.times, side="right")
        expected = counts * math.log(2.0) - 1.0 * p.times
        assert np.allclose(u.u_values, expected, atol=1e-10)

    def test_gamma_affine_form(self, gamma_model):
        p = sample_changed_path(gamma_model, math.inf, 2.0, 0.05, RngStream(SEED, 2))
        u = llr_path(gamma_model, p)
        expected = 0.5 * p.values - math.log(2.0) * p.times
        assert np.allclose(u.u_values, expected, atol=1e-12)

    def test_poisson_three_events_by_time_one(self, poisson_model):
        """Three events by t = 1 pin U_1 = 3 log 2 - 1."""
        from levydetect.paths import SamplePath
        times = np.array([0.2, 0.5, 0.9])
        sizes = np.array([0.3, -0.1, 0.7])
        values = np.zeros(11)
        for t, s in zip(times, sizes):
            values[int(math.ceil(t / 0.1 - 1e-12)):] += s
        p = SamplePath(grid_dt=0.1, values=values, jump_times=times,
                       jump_sizes=sizes, change_point=0.0, horizon=1.0)
        u = llr_path(poisson_model, p)
        assert u.u_values[-1] == pytest.approx(3.0 * math.log(2.0) - 1.0)

    def test_gamma_unit_time_value(self, gamma_model):
        """X_1 = 1.5 pins U_1 = 0.75 - log 2."""
        from levydetect.paths import SamplePath
        p = SamplePath(grid_dt=0.5, values=np.array([0.0, 0.6, 1.5]),
                       jump_times=np.empty(0), jump_sizes=np.empty(0),
                       change_point=math.inf, horizon=1.0)
        u = llr_path(gamma_model, p)
        assert u.u_values[-1] == pytest.approx(0.75 - math.log(2.0))

    def test_jump_of_size_zero_counts_its_ratio(self, poisson_model):
        """A ledger jump of exactly 0.0 adds phi(0) = log 2 on the
        intensity-only pair, whose ratio holds on the whole line."""
        from levydetect.paths import SamplePath
        p = SamplePath(grid_dt=0.5, values=np.zeros(3), jump_times=np.array([0.7]),
                       jump_sizes=np.array([0.0]), change_point=0.0, horizon=1.0)
        u = llr_path(poisson_model, p)
        assert u.u_values[-1] == pytest.approx(math.log(2.0) - 1.0)

    def test_jumps_under_a_model_without_jumps_are_rejected(self, brownian_model):
        """A ledger jump is impossible under either law of a Brownian pair."""
        from levydetect.paths import SamplePath
        p = SamplePath(grid_dt=0.5, values=np.array([0.0, 1.0, 1.0]),
                       jump_times=np.array([0.7]), jump_sizes=np.array([1.0]),
                       change_point=0.0, horizon=1.0)
        with pytest.raises(ContractError, match="has jumps"):
            llr_path(brownian_model, p)

    def test_path_without_points_is_rejected(self):
        with pytest.raises(SpecValidationError, match="no points"):
            LLRPath(0.1, np.array([]))

    def test_u_starts_at_zero(self, jump_diffusion_model):
        p = sample_changed_path(jump_diffusion_model, 1.0, 2.0, 0.01, RngStream(SEED, 3))
        assert llr_path(jump_diffusion_model, p).u_values[0] == 0.0

    def test_model_path_mismatch_raises(self, brownian_model, poisson_model):
        p = sample_changed_path(poisson_model, 0.0, 1.0, 0.01, RngStream(SEED, 4))
        with pytest.raises(ContractError):
            llr_path(brownian_model, p)


class TestAdditivity:
    def test_jump_diffusion_splits_into_parts(self, jump_diffusion_model):
        """U of a jump diffusion equals the Brownian-part U plus the
        jump-part U evaluated on the decomposed path."""
        model = jump_diffusion_model
        p = sample_changed_path(model, 2.0, 4.0, 0.01, RngStream(SEED, 5))
        u_full = llr_path(model, p).u_values

        # continuous component: remove ledger jumps; give it the matching
        # Brownian pair (same alpha via drift = alpha * sigma^2)
        counts = np.searchsorted(p.jump_times, p.times, side="right")
        cum_jumps = np.concatenate([[0.0], np.cumsum(p.jump_sizes)])[counts]
        d0 = model.pre.linear_drift()
        bm_pair = build_change_model(
            LevySpec.brownian(model.sigma, d0),
            LevySpec.brownian(model.sigma, d0 + model.alpha * model.sigma ** 2))
        from levydetect.paths import SamplePath
        cont = SamplePath(grid_dt=p.grid_dt, values=p.values - cum_jumps,
                          jump_times=np.empty(0), jump_sizes=np.empty(0),
                          change_point=p.change_point, horizon=p.horizon)
        u_bm = llr_path(bm_pair, cont).u_values

        # jump component: same marks, zero-drift compound Poisson pair
        pre_j = LevySpec.compound_poisson(model.pre.jumps.intensity, model.pre.jumps.law,
                                          drift=model.pre.jump_truncated_mean())
        post_j = LevySpec.compound_poisson(model.post.jumps.intensity, model.post.jumps.law,
                                           drift=model.post.jump_truncated_mean())
        cp_pair = build_change_model(pre_j, post_j)
        jumps_only = SamplePath(grid_dt=p.grid_dt, values=cum_jumps,
                                jump_times=p.jump_times, jump_sizes=p.jump_sizes,
                                change_point=p.change_point, horizon=p.horizon)
        u_cp = llr_path(cp_pair, jumps_only).u_values

        assert np.abs(u_full - (u_bm + u_cp)).max() < 1e-10

    def test_cocycle_segments(self, poisson_model):
        """U over [s, t] from the restricted path equals the difference of
        the full-path values at grid points."""
        p = sample_changed_path(poisson_model, math.inf, 6.0, 0.01, RngStream(SEED, 6))
        u = llr_path(poisson_model, p).u_values
        k0, k1 = 200, 450
        from levydetect.paths import SamplePath
        keep = (p.jump_times > p.times[k0]) & (p.jump_times <= p.times[k1])
        seg = SamplePath(
            grid_dt=p.grid_dt,
            values=p.values[k0:k1 + 1] - p.values[k0],
            jump_times=p.jump_times[keep] - p.times[k0],
            jump_sizes=p.jump_sizes[keep],
            change_point=math.inf,
            horizon=p.times[k1] - p.times[k0])
        u_seg = llr_path(poisson_model, seg).u_values
        assert np.abs(u_seg - (u[k0:k1 + 1] - u[k0])).max() < 1e-12


class TestSlopes:
    @pytest.mark.parametrize("fixture,regime", [
        ("brownian_model", "pre"), ("brownian_model", "post"),
        ("poisson_model", "pre"), ("poisson_model", "post"),
        ("gamma_model", "pre"), ("gamma_model", "post"),
    ])
    def test_mean_slope_matches_drift(self, fixture, regime, request):
        model = request.getfixturevalue(fixture)
        tau = math.inf if regime == "pre" else 0.0
        horizon, n = 5.0, 400
        finals = np.array([
            llr_path(model, sample_changed_path(
                model, tau, horizon, 0.05, RngStream(SEED + 7, i))).u_values[-1]
            for i in range(n)])
        slope = finals.mean() / horizon
        se = finals.std(ddof=1) / math.sqrt(n) / horizon
        target = model.beta_pre if regime == "pre" else model.beta_post
        assert abs(slope - target) <= 3.0 * se
        if regime == "pre":
            assert slope < 0
        else:
            assert slope > 0


class TestIncrementLaws:
    def test_consistency_with_path_llr(self, brownian_model):
        """At the coarse points of step delta, U is the running sum of the
        Brownian increment log-likelihoods: N(0, delta) -> N(delta, delta)
        gives log l(x) = (mu1 - mu0) / sd^2 * (x - (mu0 + mu1) / 2) on each
        coarse increment x of the path."""
        p = sample_changed_path(brownian_model, math.inf, 2.0, 0.01, RngStream(SEED, 8))
        u = llr_path(brownian_model, p).u_values
        delta = 0.1
        mu0, mu1, sd = 0.0, 1.0 * delta, math.sqrt(delta)
        x = np.diff(p.values[::10])
        logs = (mu1 - mu0) / sd ** 2 * (x - 0.5 * (mu0 + mu1))
        total = np.cumsum(logs)
        coarse_u = u[10::10]
        assert np.allclose(total, coarse_u, rtol=1e-10, atol=1e-10)


class TestMartingale:
    @pytest.mark.parametrize("fixture", [
        "brownian_model", "poisson_model", "jump_diffusion_model",
        "gamma_model_mild",
    ])
    def test_unit_mean(self, fixture, request):
        model = request.getfixturevalue(fixture)
        n = 50000
        vals = np.exp(u_increments(model, "pre", 1.0, n, RngStream(SEED + 11, 0)))
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 1.0) <= 3.0 * se

    def test_gamma_analytic_normalizer(self, gamma_model):
        """Second oracle: the moment generating function of the gamma law
        makes E exp(U_t) = 1 exactly in closed form."""
        a, t0 = gamma_model.pre.jumps.activity, gamma_model.pre.jumps.scale
        t1 = gamma_model.post.jumps.scale
        c1 = gamma_model.phi.pos[1]
        dt = 1.0
        log_mgf = -a * dt * math.log(1.0 - c1 * t0)   # E exp(c1 X_dt)
        assert log_mgf - gamma_model.comp_rate * dt == pytest.approx(0.0, abs=1e-14)
