import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levydetect import engine, kernels
from levydetect.detector import RULES, DetectorConfig, run_rule
from levydetect.errors import ContractError, SpecValidationError
from levydetect.evaluate import lattice_safe_barrier
from levydetect.likelihood import LLRPath, llr_path
from levydetect.paths import SamplePath, sample_changed_path
from levydetect.rng import RngStream

SEED = 5150


def _llr(u, dt=1.0):
    return LLRPath(grid_dt=dt, u_values=np.asarray(u, dtype=float))


def _continuous(log_barrier, u, dt=1.0):
    return run_rule(DetectorConfig("cusum_continuous", log_barrier), _llr(u, dt))


def _drawup(u):
    """The drawup at each point: the censored statistic of ``cusum_continuous``
    on each prefix of the path."""
    return [_continuous(100.0, u[:k + 1]).stat_at_stop for k in range(len(u))]


class TestDrawup:
    """The statistic of ``cusum_continuous``: the path minus its running
    minimum (inclusive)."""

    def test_running_minimum_examples(self):
        assert np.allclose(_drawup([0.0, -1.0, -0.5]), [0.0, 0.0, 0.5])
        u = [0.0, 0.5, 1.0, 2.5]
        assert np.allclose(_drawup(u), u)
        assert np.allclose(_drawup([0.0, 2.0, 1.0, 3.0]), [0.0, 2.0, 1.0, 3.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        u = np.concatenate([[0.0], np.cumsum(rng.normal(size=500))])
        y = np.array(_drawup(u))
        assert np.all(y >= 0.0)
        assert y[0] == 0.0


class TestFirstPassage:
    """``cusum_continuous`` stops at the first grid point where the drawup
    reaches the barrier, else is censored at the path horizon."""

    def test_flat_path_censors(self):
        res = _continuous(1.0, np.zeros(101), 0.1)
        assert res.censored
        assert res.stop_time == pytest.approx(10.0)

    def test_unit_ramp(self):
        res = _continuous(2.0, np.linspace(0.0, 5.0, 501), 0.01)
        assert not res.censored
        assert res.stop_time == pytest.approx(2.0, abs=0.011)

    def test_stride_checks_only_every_kth_point(self):
        u = np.zeros(11)
        u[3] = 5.0          # spike visible only to stride-1 monitoring
        fine = _continuous(1.0, u)
        coarse = run_rule(DetectorConfig("cusum_grid", 1.0, delta=5.0), _llr(u))
        assert fine.stop_time == pytest.approx(3.0)
        assert coarse.censored

    def test_poisson_first_event_clears_low_barrier(self, poisson_model):
        """With the barrier below the jump size log 2, the rule fires at the
        first ledger event (to within one grid step)."""
        dt = 0.01
        for i in range(20):
            p = sample_changed_path(poisson_model, 0.0, 50.0, dt, RngStream(SEED, i))
            if not len(p.jump_times):
                continue
            res = run_rule(DetectorConfig("cusum_continuous", 0.6),
                           llr_path(poisson_model, p))
            assert not res.censored
            first_event = p.jump_times[0]
            assert res.stop_time == pytest.approx(
                math.ceil(first_event / dt - 1e-12) * dt, abs=1e-12)


def _one_step_stats(logs):
    """Log statistic after each increment: one-column scans of
    kernels.reflected, carrying ``u`` and ``mn`` from step to step."""
    u, mn, out = np.zeros(1), np.zeros(1), []
    for ll in logs:
        out.append(kernels.reflected(kernels.cumulative(np.array([[ll]]), u), mn)[0, 0])
    return out


class TestCusumUpdate:
    """The one-step CUSUM update log S' = max(log S, 0) + log l is a
    one-column scan of kernels.reflected."""

    def test_zero_state_step(self):
        assert _one_step_stats([0.0]) == [0.0]

    def test_known_sequence(self):
        # observations 0.5, -1.0, 2.0 under N(0,1) -> N(1,1): log l = x - 1/2
        stats = [math.exp(y) for y in _one_step_stats([x - 0.5 for x in (0.5, -1.0, 2.0)])]
        assert stats[0] == pytest.approx(1.0)
        assert stats[1] == pytest.approx(math.exp(-1.5))
        assert stats[2] == pytest.approx(math.exp(1.5))

    def test_multiplicative_form(self):
        u, mn = np.array([math.log(2.0)]), np.zeros(1)      # S = 2 so far
        y = kernels.reflected(kernels.cumulative(np.array([[math.log(3.0)]]), u), mn)
        assert math.exp(y[0, 0]) == pytest.approx(6.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=50))
    def test_recursion_equals_brute_force_sup(self, logs):
        """The one-step scans reproduce the explicit maximum over restart
        points of the partial likelihood products."""
        rec = _one_step_stats(logs)
        c = np.concatenate([[0.0], np.cumsum(logs)])
        for k in range(1, len(c)):
            brute = max(c[k] - c[m] for m in range(k))
            assert rec[k - 1] == pytest.approx(brute, rel=1e-12, abs=1e-12)


# multiples of 1/8: every sum is exact, so the CUSUM recursions agree bit for bit
_EIGHTHS = st.integers(-24, 24).map(lambda i: i / 8.0)


def _recursion(rule, x):
    """Statistic of each step of the scalar recursion over increments ``x``,
    the origin's first: S_k = max(S_{k-1}, 0) + X_k (floored at 0 for the
    drawup, which is 0 at the origin) or R_k = (1 + R_{k-1}) e^{X_k}, in logs."""
    s, r = -math.inf, 0.0
    stats = [0.0 if rule == "cusum_continuous" else -math.inf]
    for xk in x:
        s = max(s, 0.0) + xk
        r = (1.0 + r) * math.exp(xk)
        stats.append({"cusum_continuous": max(s, 0.0), "cusum_grid": s,
                      "shiryaev_roberts": math.log(r)}[rule])
    return stats


class TestRunRule:
    def test_degenerate_zero_increments_stop_first_step(self):
        llr = _llr(np.zeros(10), dt=1.0)
        res = run_rule(DetectorConfig("cusum_grid", 0.0, delta=1.0), llr)
        assert not res.censored
        assert res.stop_time == pytest.approx(1.0)
        assert res.steps_taken == 1

    def test_ramp_grid_rule(self):
        t = np.linspace(0.0, 5.0, 51)
        res = run_rule(DetectorConfig("cusum_grid", 2.0, delta=0.5), _llr(t, dt=0.1))
        assert res.stop_time == pytest.approx(2.0)

    def test_nested_grids_order_pathwise(self, brownian_model):
        for i in range(25):
            p = sample_changed_path(brownian_model, 0.0, 30.0, 0.01, RngStream(SEED + 1, i))
            llr = llr_path(brownian_model, p)
            stops = [run_rule(DetectorConfig("cusum_grid", 2.0, delta=d), llr).stop_time
                     for d in (0.8, 0.4, 0.2, 0.1)]
            assert all(b <= a + 1e-12 for a, b in zip(stops, stops[1:]))

    def test_monotone_in_barrier(self, brownian_model):
        for i in range(25):
            p = sample_changed_path(brownian_model, 0.0, 30.0, 0.01, RngStream(SEED + 2, i))
            llr = llr_path(brownian_model, p)
            stops = [run_rule(DetectorConfig("cusum_grid", h, delta=0.1), llr).stop_time
                     for h in (0.5, 1.0, 2.0, 3.0)]
            assert all(a <= b + 1e-12 for a, b in zip(stops, stops[1:]))

    def test_continuous_equals_stride_one_grid_above_zero_barrier(self, brownian_model):
        p = sample_changed_path(brownian_model, 0.0, 30.0, 0.01, RngStream(SEED + 3, 0))
        llr = llr_path(brownian_model, p)
        cont = run_rule(DetectorConfig("cusum_continuous", 2.0), llr)
        grid = run_rule(DetectorConfig("cusum_grid", 2.0, delta=0.01), llr)
        assert cont.stop_time == pytest.approx(grid.stop_time)

    @settings(max_examples=400, deadline=None)
    @given(rule=st.sampled_from(RULES), x=st.lists(_EIGHTHS, max_size=40),
           stride=st.integers(1, 4), h=_EIGHTHS)
    def test_scalar_recursions(self, rule, x, stride, h):
        """Each rule stops where its scalar recursion over the increments
        between monitored points first reaches the barrier (the drawup at
        the origin when that barrier is 0), else is censored at the last
        monitored point with the last statistic."""
        if rule != "shiryaev_roberts":
            h = abs(h)
        if rule == "cusum_continuous":
            stride = 1
        u = np.concatenate([[0.0], np.cumsum(x)])
        res = run_rule(DetectorConfig(rule, h, delta=stride * 0.5), _llr(u, 0.5))
        stats = _recursion(rule, np.diff(u[::stride]))
        if rule == "shiryaev_roberts":      # log R is not exact: no near ties
            assume(all(abs(y - h) > 1e-9 for y in stats))
        k = next((k for k, y in enumerate(stats) if y >= h), None)
        assert res.censored == (k is None)
        k = len(stats) - 1 if k is None else k
        assert (res.steps_taken, res.stop_time) == (k, k * stride * 0.5)
        assert res.stat_at_stop == pytest.approx(stats[k], rel=1e-12, abs=1e-9)
        if rule != "shiryaev_roberts":
            assert res.stat_at_stop == stats[k]

    def test_nonnegative_increments_keep_statistic_above_one(self):
        rng = np.random.default_rng(4)
        u = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.5, size=40))])
        for k in range(1, len(u)):
            res = run_rule(DetectorConfig("cusum_grid", 100.0, delta=1.0), _llr(u[:k + 1]))
            assert res.censored and res.stat_at_stop >= 0.0

    def test_shiryaev_roberts_recursion(self):
        u = np.array([0.0, 0.3, -0.2, 0.5])
        llr = _llr(u, dt=1.0)
        res = run_rule(DetectorConfig("shiryaev_roberts", math.log(50.0), delta=1.0), llr)
        # R_k = (1 + R_{k-1}) L_k with L_k = exp(u_k - u_{k-1})
        r = 0.0
        for k in range(1, 4):
            r = (1.0 + r) * math.exp(u[k] - u[k - 1])
        assert res.censored
        assert res.stat_at_stop == pytest.approx(math.log(r), rel=1e-12)

    def test_sr_crossing(self):
        u = np.linspace(0.0, 10.0, 101)
        res = run_rule(DetectorConfig("shiryaev_roberts", math.log(20.0), delta=0.1),
                       _llr(u, dt=0.1))
        assert not res.censored
        assert math.exp(res.stat_at_stop) >= 20.0

    def test_iid_rule(self):
        """I.i.d. observations 0.5, -1.0, 2.0, 2.0 under N(0,1) -> N(1,1): the
        grid rule on their cumulative log-likelihoods (log l = x - 1/2) is the
        classical recursion log S' = max(log S, 0) + log l."""
        u = np.concatenate([[0.0], np.cumsum(np.array([0.5, -1.0, 2.0, 2.0]) - 0.5)])
        res = run_rule(DetectorConfig("cusum_grid", 1.4, delta=1.0), _llr(u))
        assert not res.censored
        assert res.steps_taken == 3
        assert res.stat_at_stop == pytest.approx(1.5)

    def test_contract_errors(self):
        path = SamplePath(grid_dt=1.0, values=np.zeros(3), jump_times=np.empty(0),
                          jump_sizes=np.empty(0), change_point=math.inf, horizon=2.0)
        for rule in ("cusum_continuous", "cusum_grid", "shiryaev_roberts"):
            with pytest.raises(ContractError):
                run_rule(DetectorConfig(rule, 1.0, delta=1.0), path)
        with pytest.raises(SpecValidationError):
            DetectorConfig("cusum_grid", -1.0, delta=1.0)
        with pytest.raises(SpecValidationError):
            DetectorConfig("cusum_grid", 1.0)


def _last_reflection(u, hbar):
    """The ``lastref`` carry of one :func:`kernels.cusum_scan` over the path
    ``u`` (u[0] = 0 at the origin): 0 for the origin, else a step."""
    lastref = np.zeros(1, dtype=np.int64)
    off, _ = kernels.cusum_scan(np.asarray(u, dtype=float)[1:, None], np.zeros(1),
                                lastref, 0, hbar)
    assert off[0] >= 0
    return int(lastref[0])


class TestMleChangepoint:
    """The change-point estimate (``PathRunResult.tau_hat``) is the
    ``lastref`` carry of the CUSUM scans: the last step at or before the stop
    with log statistic <= 0 (the last reflection of the statistic)."""

    def test_first_excursion_gives_zero(self):
        # statistics 0.5, 1.2, 2.1
        assert _last_reflection([0.0, 0.5, 1.2, 2.1], 2.1) == 0

    def test_last_reflection_example(self):
        # statistics -0.2, 0.1, 0.8
        assert _last_reflection([0.0, -0.2, -0.1, 0.6], 0.75) == 1

    def test_detects_ramp_onset(self):
        """Negative drift then a deterministic ramp: the estimate lands within
        a step of the ramp onset."""
        dt = 0.1
        n_pre, n_post = 50, 40
        u = np.concatenate([[0.0], np.cumsum(np.concatenate([
            np.full(n_pre, -0.3 * dt), np.full(n_post, 1.0)]))])
        onset = n_pre * dt
        assert abs(_last_reflection(u, 2.0) * dt - onset) <= dt + 1e-12

    def test_censored_gives_nan(self, brownian_model):
        rule = engine.RuleSpec(kind="cusum", log_barrier=2.0)
        res = engine.run_paths(brownian_model, "pre", rule, 0.1, 100, 300, SEED, "arl",
                               last_reflect=True)
        assert res.censored.any() and not res.censored.all()
        assert np.array_equal(np.isnan(res.tau_hat), res.censored)
        stopped = ~res.censored
        assert np.array_equal(res.tau_hat[stopped], res.last_reflect[stopped] * 0.1)


class TestLatticeBarrier:
    def test_collision_nudged(self):
        c = math.log(2.0)
        nudged = lattice_safe_barrier(3.0 * c, c)
        assert nudged > 3.0 * c
        assert nudged == pytest.approx(3.0 * c + 1e-6)

    def test_off_lattice_untouched(self):
        assert lattice_safe_barrier(2.0, math.log(2.0)) == 2.0
        for constant in (None, 0.0, -math.log(2.0)):    # no lattice to move off
            assert lattice_safe_barrier(3.0 * math.log(2.0), constant) == 3.0 * math.log(2.0)
