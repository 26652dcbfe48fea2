import math
import typing
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from levydetect import engine, kernels
from levydetect.engine import RuleSpec, run_dyadic, run_paths, sample_u_increments
from levydetect.errors import ContractError
from levydetect.evaluate import calibrate_barrier
from levydetect.likelihood import llr_path
from levydetect.paths import sample_changed_path
from levydetect.rng import RngStream, stream_id

SEED = 8086


MODEL_FIXTURES = ["brownian_model", "poisson_model", "jump_diffusion_model",
                  "gamma_model", "exponential_model", "two_sided_model"]


def _per_family_increments(model, regime, dt, gens, size):
    """The per-family sampler expressions that the engine's table of jump
    sides replaced, with their order of operations: component 0 Brownian
    normals (or gamma variates), 1 jump counts, 2 marks, 3 and 4 the
    negative side of a two-sided law."""
    spec = model.pre if regime == "pre" else model.post
    bm_sd = abs(model.alpha) * model.sigma * math.sqrt(dt)
    bm_mean = (0.5 if regime == "post" else -0.5) * (model.alpha * model.sigma) ** 2 * dt
    if model.phi is None:
        return bm_mean + bm_sd * gens[0].standard_normal(size)
    comp_dt = model.comp_rate * dt
    if spec.family == "gamma":
        return model.phi.pos[1] * gens[0].gamma(spec.activity * dt, spec.scale, size) \
            - comp_dt
    lam_dt, law, (c0, c1) = spec.intensity * dt, spec.jumps, model.phi.pos
    out = bm_mean + bm_sd * gens[0].standard_normal(size) if bm_sd > 0.0 \
        else np.full(size, bm_mean)
    if law.kind == "gaussian":
        n = gens[1].poisson(lam_dt, size)
        z = gens[2].standard_normal(size)
        out += c0 * n + c1 * (law.mean * n + law.sd * np.sqrt(n) * z)
    elif law.kind == "exponential":
        n = gens[1].poisson(lam_dt, size)
        out += c0 * n + (c1 / law.rate) * gens[2].standard_gamma(n)
    else:
        (c0n, c1n), w = model.phi.neg, law.weight_pos
        npos = gens[1].poisson(lam_dt * w, size)
        nneg = gens[3].poisson(lam_dt * (1.0 - w), size)
        out += c0 * npos + (c1 / law.rate_pos) * gens[2].standard_gamma(npos)
        out += c0n * nneg - (c1n / law.rate_neg) * gens[4].standard_gamma(nneg)
    return out - comp_dt


class _RecordingGenerator:
    """A generator that notes whether anything was drawn from it."""

    def __init__(self, gen):
        self.gen, self.used = gen, False

    def __getattr__(self, name):
        self.used = True
        return getattr(self.gen, name)


class TestSamplers:
    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_sampler_matches_the_per_family_formula(self, fixture, regime, dt, request):
        """Bit for bit, over two successive calls, against the written-out
        per-family expression on fresh generators of the same substreams."""
        model = request.getfixturevalue(fixture)
        rng = RngStream(SEED, stream_id("arl", 5))
        gens = rng.substreams(engine.substream_components(model, dt))
        sampler = engine.make_u_sampler(model, regime, dt)
        got = np.concatenate([sampler(gens, 700), sampler(gens, 1300)])
        fresh = [RngStream(SEED, rng.stream_id, c).generator() for c in range(5)]
        assert np.array_equal(got, _per_family_increments(model, regime, dt, fresh, 2000))

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_sampler_draws_from_exactly_its_components(self, fixture, regime, dt,
                                                       request):
        """Given generators at exactly substream_components and None at
        every other index, the sampler draws from each of them and from
        nothing else."""
        model = request.getfixturevalue(fixture)
        components = engine.substream_components(model, dt)
        assert list(components) == sorted(set(components))
        gens = tuple(None if g is None else _RecordingGenerator(g)
                     for g in RngStream(SEED, 9).substreams(components))
        assert [c for c, g in enumerate(gens) if g is not None] == list(components)
        engine.make_u_sampler(model, regime, dt)(gens, 500)
        assert all(gens[c].used for c in components)

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    @pytest.mark.parametrize("regime", ["pre", "post"])
    def test_increment_law_matches_path_route(self, fixture, regime, request):
        """One-step law from the exact sampler agrees with the per-path
        simulator route (two-sample KS)."""
        model = request.getfixturevalue(fixture)
        dt, n = 0.5, 1500
        tau = math.inf if regime == "pre" else 0.0
        path_u = np.array([
            llr_path(model, sample_changed_path(
                model, tau, dt, dt, RngStream(SEED, i))).u_values[-1]
            for i in range(n)])
        fast_u = sample_u_increments(model, regime, dt, n, RngStream(SEED + 1, 0))
        assert ks_2samp(path_u, fast_u).pvalue > 0.005

    def test_mean_matches_drift(self, gamma_model):
        n = 200000
        u = sample_u_increments(gamma_model, "pre", 1.0, n, RngStream(SEED + 2, 0))
        se = u.std(ddof=1) / math.sqrt(n)
        assert abs(u.mean() - gamma_model.beta_pre) <= 3.0 * se


class TestRunPaths:
    def test_threads_do_not_change_results(self, brownian_model):
        rule = RuleSpec(kind="cusum", log_barrier=2.0)
        runs = [run_paths(brownian_model, "pre", rule, 0.05, 1000, 2500, SEED,
                          "arl", threads=t) for t in (1, 2, 4)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].stop_steps, other.stop_steps)
            assert np.array_equal(runs[0].stat, other.stat)

    def test_common_random_numbers_make_stops_monotone_in_barrier(self, brownian_model):
        """Same streams, larger barrier: every replication stops later."""
        stops = []
        for h in (1.0, 1.5, 2.0, 2.5):
            rule = RuleSpec(kind="cusum", log_barrier=h)
            res = run_paths(brownian_model, "pre", rule, 0.05, 4000, 600, SEED, "arl")
            stops.append(res.stop_times)
        for a, b in zip(stops, stops[1:]):
            assert np.all(b >= a - 1e-12)

    def test_censoring_flagged(self, brownian_model):
        rule = RuleSpec(kind="cusum", log_barrier=8.0)
        res = run_paths(brownian_model, "pre", rule, 0.05, 200, 300, SEED, "arl")
        assert res.censored.all()
        assert np.all(res.stop_times == pytest.approx(10.0))

    def test_fixed_rule(self, brownian_model):
        rule = RuleSpec(kind="fixed", fixed_steps=7)
        res = run_paths(brownian_model, "pre", rule, 0.1, 50, 100, SEED, "arl")
        assert np.all(res.stop_steps == 7)

    def test_one_step_geometric_oracle(self, brownian_model):
        """Zero barrier: the rule stops at the first step whose statistic is
        nonnegative, i.e. run length is geometric with p = P(U_step >= 0)."""
        dt = 0.5
        rule = RuleSpec(kind="cusum", log_barrier=0.0)
        res = run_paths(brownian_model, "pre", rule, dt, 4000, 40000, SEED, "arl")
        p = 1.0 - _phi_cdf(0.5 * 1.0 * math.sqrt(dt))   # P(N(-dt/2, dt) >= 0)
        expected = dt / p
        est = res.stop_times.mean()
        se = res.stop_times.std(ddof=1) / math.sqrt(len(res.stop_times))
        assert abs(est - expected) <= 3.0 * se

    def test_sr_rule_mean_run_length_scales_with_threshold(self, brownian_model):
        """E[R_k] = k under the pre-change law pins the in-control mean near
        threshold * dt (optional-stopping heuristic, generous tolerance)."""
        dt = 0.1
        rule = RuleSpec(kind="sr", log_barrier=math.log(200.0))
        res = run_paths(brownian_model, "pre", rule, dt, 50000, 2000, SEED, "arl")
        est = res.stop_times.mean()
        assert 0.8 * 200.0 * dt <= est <= 1.6 * 200.0 * dt

    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("kind,collect_lb", [
        ("cusum", False), ("cusum", True), ("sr", True), ("fixed", True)])
    def test_chunk_width_does_not_change_results(self, regime, kind, collect_lb,
                                                  request):
        """Draw-and-scan sub-block boundaries fall at different steps for
        each width; the outputs of every family must not move by a single
        bit."""
        rule = {"cusum": RuleSpec(kind="cusum", log_barrier=3.0),
                "sr": RuleSpec(kind="sr", log_barrier=math.log(150.0)),
                "fixed": RuleSpec(kind="fixed", fixed_steps=150)}[kind]
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            runs = [run_paths(model, regime, rule, 0.1, 600, 300, SEED,
                              "arl", collect_lb=collect_lb, chunk=c)
                    for c in (37, 64, 4096)]
            if kind != "fixed" and regime == "pre":
                assert runs[0].censored.any() and not runs[0].censored.all(), fixture
            for other in runs[1:]:
                assert np.array_equal(runs[0].stop_steps, other.stop_steps), fixture
                assert np.array_equal(runs[0].stat, other.stat, equal_nan=True), fixture
                assert np.array_equal(runs[0].last_reflect, other.last_reflect), fixture
                assert np.array_equal(runs[0].lb_num, other.lb_num), fixture
                assert np.array_equal(runs[0].lb_den, other.lb_den), fixture

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    def test_draws_stay_within_twice_the_consumed_steps(self, fixture, request,
                                                        monkeypatch):
        """A path draws only the sub-blocks it scans: 64 steps, then blocks
        that double, so at most twice its stopping step plus one first block
        (a censored path consumes the whole horizon)."""
        drawn = []
        make_u_sampler = engine.make_u_sampler

        def counting_make_u_sampler(*args):
            draw = make_u_sampler(*args)

            def sampler(gens, size):
                drawn.append(size)
                return draw(gens, size)
            return sampler
        monkeypatch.setattr(engine, "make_u_sampler", counting_make_u_sampler)
        n_steps, n_rep = 5000, 1500
        res = run_paths(request.getfixturevalue(fixture), "pre",
                        RuleSpec(kind="cusum", log_barrier=2.0), 0.05, n_steps,
                        n_rep, SEED, "arl")
        consumed = int(np.where(res.censored, n_steps, res.stop_steps).sum())
        assert 0 < sum(drawn) <= 2 * consumed + 64 * n_rep

    @pytest.mark.parametrize("regime", ["pre", "post"])
    def test_collect_lb_does_not_change_cusum_outputs(self, brownian_model, regime):
        """Accumulating the lower-bound sums rides along the same scan: stops,
        statistics and last reflections equal those of the plain run."""
        rule = RuleSpec(kind="cusum", log_barrier=2.0)
        plain, lb = (run_paths(brownian_model, regime, rule, 0.1, 600, 300, SEED,
                               "arl", collect_lb=c) for c in (False, True))
        assert (plain.last_reflect > 0).any()
        assert np.array_equal(plain.stop_steps, lb.stop_steps)
        assert np.array_equal(plain.stat, lb.stat, equal_nan=True)
        assert np.array_equal(plain.last_reflect, lb.last_reflect)
        assert np.array_equal(plain.tau_hat, lb.tau_hat, equal_nan=True)

    def test_invalid_rule_rejected(self):
        with pytest.raises(ContractError):
            RuleSpec(kind="nope").validate()
        with pytest.raises(ContractError):
            RuleSpec(kind="cusum", log_barrier=-1.0).validate()


class TestRunDyadic:
    def test_strides_must_divide(self, brownian_model):
        with pytest.raises(ContractError):
            run_dyadic(brownian_model, "post", 2.0, 0.1, 101, [4, 2, 1], 10, SEED)

    def test_annotations_resolve(self):
        hints = typing.get_type_hints(engine.run_dyadic)
        assert hints["return"] == typing.Tuple[typing.List[np.ndarray],
                                               typing.List[np.ndarray]]

    def test_matches_run_paths_at_stride_one(self, brownian_model):
        stops, strict = run_dyadic(brownian_model, "post", 2.0, 0.1, 400, [1],
                                   500, SEED, purpose="arl")
        res = run_paths(brownian_model, "post", RuleSpec(kind="cusum", log_barrier=2.0),
                        0.1, 400, 500, SEED, "arl")
        assert np.allclose(stops[0], res.stop_times)
        # continuous increment laws: the two stopping conventions coincide
        assert np.array_equal(stops[0], strict[0])

    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("strides,n_steps", [([20, 10, 1], 1200), ([3, 2, 1], 600)])
    def test_matches_whole_horizon_oracle(self, regime, strides, n_steps, request):
        """Drawing and scanning in sub-blocks aligned to the lcm of the
        strides (6 for [3, 2, 1], which does not nest) gives the bits of one
        whole-horizon draw per path scanned at once; censored rows report the
        horizon."""
        censored = stopped = False
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            got = run_dyadic(model, regime, 2.0, 0.01, n_steps, strides, 60, SEED)
            expected = _whole_horizon_dyadic(model, regime, 2.0, 0.01, n_steps,
                                             strides, 60)
            for g, e in zip(got[0] + got[1], expected[0] + expected[1]):
                assert np.array_equal(g, e), fixture
                censored |= bool((g == n_steps * 0.01).any())
                stopped |= bool((g < n_steps * 0.01).any())
        assert censored and stopped

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    def test_draws_stop_once_every_stride_has_stopped(self, fixture, request,
                                                      monkeypatch):
        """A path draws sub-blocks of SUB_BLOCK * lcm steps, then doubling,
        only until its last stop over strides and conventions: at most twice
        that step plus one first block."""
        drawn = []
        make_u_sampler = engine.make_u_sampler

        def counting_make_u_sampler(*args):
            draw = make_u_sampler(*args)

            def sampler(gens, size):
                drawn.append(size)
                return draw(gens, size)
            return sampler
        monkeypatch.setattr(engine, "make_u_sampler", counting_make_u_sampler)
        dt, strides, n_rep = 0.01, [20, 10, 1], 300
        stops, strict = run_dyadic(request.getfixturevalue(fixture), "post", 2.0, dt,
                                   6000, strides, n_rep, SEED)
        needed = np.rint(np.max(stops + strict, axis=0) / dt).astype(np.int64)
        assert 0 < sum(drawn) <= 2 * needed.sum() + engine.SUB_BLOCK * 20 * n_rep

    def test_threads_do_not_change_results(self, jump_diffusion_model):
        n_rep = engine.BATCH + 76          # two batches
        runs = [run_dyadic(jump_diffusion_model, "pre", 2.0, 0.05, 400, [4, 2, 1],
                           n_rep, SEED, threads=t) for t in (1, 2)]
        for a, b in zip(runs[0][0] + runs[0][1], runs[1][0] + runs[1][1]):
            assert np.array_equal(a, b)

    def test_one_thread_dispatcher(self):
        """run_paths and run_dyadic share one batch dispatcher, so the
        package starts a thread pool in one place."""
        pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
        assert sum(path.read_text().count("ThreadPoolExecutor(")
                   for path in pkg.glob("*.py")) == 1


class TestBatchState:
    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("kind,collect_lb", [
        ("cusum", False), ("cusum", True), ("sr", True)])
    def test_stopping_and_resuming_matches_one_run(self, regime, kind, collect_lb,
                                                   request):
        """Advancing a batch in pieces to arbitrary steps gives the outputs
        of one uninterrupted run_paths, bit for bit, for every family."""
        rule = {"cusum": RuleSpec(kind="cusum", log_barrier=3.0),
                "sr": RuleSpec(kind="sr", log_barrier=math.log(150.0))}[kind]
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            whole = run_paths(model, regime, rule, 0.1, 600, 300, SEED, "arl",
                              collect_lb=collect_lb)
            components = engine.substream_components(model, 0.1)
            state = engine.BatchState(
                engine.make_u_sampler(model, regime, 0.1), rule,
                [RngStream(SEED, stream_id("arl", i)).substreams(components)
                 for i in range(300)], collect_lb)
            for target in (1, 37, 64, 65, 200, 333, 599, 600):
                engine.advance([state], target, rule.log_barrier)
            assert np.array_equal(state.stop, whole.stop_steps), fixture
            assert np.array_equal(state.stat, whole.stat, equal_nan=True), fixture
            assert np.array_equal(state.lastref, whole.last_reflect), fixture
            if collect_lb:
                assert np.array_equal(state.num, whole.lb_num), fixture
                assert np.array_equal(state.den, whole.lb_den), fixture

    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    def test_resuming_under_a_higher_barrier_matches_one_run(self, regime, kind,
                                                             request):
        """Run until a low barrier, on to a step, then until a high barrier:
        the record-high ladders give the stops of both barriers' own runs."""
        low, high = {"cusum": (1.0, 3.0), "sr": (math.log(20.0), math.log(150.0))}[kind]
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            runs = {h: run_paths(model, regime, RuleSpec(kind=kind, log_barrier=h),
                                 0.1, 600, 300, SEED, "arl") for h in (low, high)}
            states = engine.batch_states(model, regime, RuleSpec(kind=kind, log_barrier=low),
                                         0.1, 300, SEED, "arl", records=True)
            engine.advance(states, 600, low)
            engine.advance(states, 150, high)
            engine.advance(states, 600, high)
            for h, run in runs.items():
                assert np.array_equal(states[0].first_reach(h), run.stop_steps), fixture

    def test_calibration_does_not_depend_on_threads(self, brownian_model):
        """1500 replications span two batches, advanced on one or two workers."""
        cals = [calibrate_barrier(brownian_model, "cusum_grid", 8.0, 0.02, SEED,
                                  delta=0.1, n_rep=1500, threads=t) for t in (1, 2)]
        assert 1500 > engine.BATCH
        assert cals[0] == cals[1]


def _whole_horizon_dyadic(model, regime, log_barrier, dt, n_steps, strides, n_rep):
    """run_dyadic over whole-horizon draws: one sampler call per path, the
    cumulative sum of all its increments, then the reflected statistic at
    each stride under both stopping conventions."""
    sampler = engine.make_u_sampler(model, regime, dt)
    components = engine.substream_components(model, dt)
    uu = np.cumsum([sampler(RngStream(SEED, stream_id("converge", i)).substreams(
        components), n_steps) for i in range(n_rep)], axis=1)
    out, out_strict = [], []
    for s in strides:
        y = kernels.reflected(uu[:, s - 1::s], np.zeros(n_rep))
        for stops, crossed in ((out, y >= log_barrier), (out_strict, y > log_barrier)):
            first = kernels.first_crossing(crossed)
            stops.append(np.where(first >= 0, (first + 1) * s * dt, n_steps * dt))
    return out, out_strict


def _cusum_oracle(row, hbar):
    """Plain-loop reflected statistic: (0-based stop index or -1, statistic
    at the stop, last 1-based step with statistic <= 0)."""
    ui, mi, ref = 0.0, 0.0, 0
    for k, x in enumerate(row):
        ui += x
        y = ui - mi
        if y <= 0.0:
            ref = k + 1
        if y >= hbar:
            return k, y, ref
        mi = min(mi, ui)
    return -1, math.nan, ref


def _lb_oracle(row, stop_step):
    """Plain-loop lower-bound sums over global steps 1 .. stop_step - 1
    (k = 0 contributes 1 to each)."""
    num, den, ui, mi = 1.0, 1.0, 0.0, 0.0
    for k, x in enumerate(row):
        if k + 1 >= stop_step:
            break
        ui += x
        s = math.exp(ui - mi)
        num += max(s, 1.0)
        den += max(1.0 - s, 0.0)
        mi = min(mi, ui)
    return num, den


def _fresh_state(n):
    return np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)


class TestScanKernels:
    def test_cusum_sequential_oracle(self):
        rng = np.random.default_rng(3)
        inc = rng.normal(-0.05, 0.3, size=(32, 400))
        hbar = 3.0
        u, mn, lref = _fresh_state(32)
        off, st, _ = kernels.cusum_scan(inc, u, mn, lref, 0, hbar)
        for i in range(32):
            stop, stat, ref = _cusum_oracle(inc[i], hbar)
            assert off[i] == stop
            if stop >= 0:
                assert st[i] == stat
            assert lref[i] == ref
        assert (off >= 0).any() and (off < 0).any()

    def test_multi_chunk_carry(self):
        """Scanning 300-step chunks and dropping stopped rows gives the
        first stops, statistics and last reflections of one whole scan."""
        rng = np.random.default_rng(7)
        inc = rng.normal(-0.05, 0.4, size=(16, 900))
        for hbar in (0.8, 2.5):
            u, mn, lref = _fresh_state(16)
            stops = np.full(16, -1, dtype=np.int64)
            stats = np.full(16, np.nan)
            alive = np.arange(16)
            for lo in range(0, 900, 300):
                cu, cm, cl = u[alive], mn[alive], lref[alive]
                o, s, _ = kernels.cusum_scan(inc[alive, lo:lo + 300], cu, cm, cl,
                                             lo, hbar)
                u[alive], mn[alive], lref[alive] = cu, cm, cl
                done = o >= 0
                stops[alive[done]] = lo + 1 + o[done]
                stats[alive[done]] = s[done]
                alive = alive[~done]
            u1, m1, l1 = _fresh_state(16)
            o1, s1, _ = kernels.cusum_scan(inc, u1, m1, l1, 0, hbar)
            assert np.array_equal(stops, np.where(o1 >= 0, o1 + 1, -1))
            assert np.array_equal(stats, s1, equal_nan=True)
            assert np.array_equal(lref, l1)
            for i in range(16):
                stop, stat, ref = _cusum_oracle(inc[i], hbar)
                assert stops[i] == (stop + 1 if stop >= 0 else -1)
                assert lref[i] == ref

    def test_record_highs_oracle(self):
        """Scanned in blocks, the record highs of each row are the steps whose
        statistic is above the statistic at every earlier step."""
        rng = np.random.default_rng(19)
        inc = rng.normal(-0.05, 0.4, size=(8, 300))
        u, mn, lref = _fresh_state(8)
        best = np.full(8, -np.inf)
        got = [[] for _ in range(8)]
        for lo, hi in ((0, 64), (64, 200), (200, 300)):
            *_, (rows, steps, values) = kernels.cusum_scan(inc[:, lo:hi], u, mn, lref,
                                                            lo, math.inf, best)
            for r, k, v in zip(rows, steps, values):
                got[r].append((k, v))
        for i in range(8):
            ui, mi, top, want = 0.0, 0.0, -math.inf, []
            for k, x in enumerate(inc[i]):
                ui += x
                if ui - mi > top:
                    top = ui - mi
                    want.append((k + 1, top))
                mi = min(mi, ui)
            assert got[i] == want
            assert best[i] == top

    def test_sr_recursion_oracle(self):
        rng = np.random.default_rng(5)
        inc = rng.normal(0.0, 0.3, size=(4, 200))
        u, a = np.zeros(4), np.zeros(4)
        off, _, rend = kernels.sr_scan(inc[:, :77], u, a, 0, math.log(1e9))
        assert np.all(off == -1)
        off, _, rend = kernels.sr_scan(inc[:, 77:], u, a, 77, math.log(1e9))
        assert np.all(off == -1)
        for i in range(4):
            r = 0.0
            for x in inc[i]:
                r = (1.0 + r) * math.exp(x)
            assert rend[i] == pytest.approx(math.log(r), rel=1e-10)

    def test_sr_stops_at_first_crossing(self):
        rng = np.random.default_rng(11)
        inc = rng.normal(-0.02, 0.3, size=(64, 257))
        u, a = np.zeros(64), np.zeros(64)
        log_thresh = math.log(30.0)
        off, st, _ = kernels.sr_scan(inc, u, a, 0, log_thresh)
        assert (off >= 0).any()
        for i in range(64):
            r, stop, stat = 0.0, -1, math.nan
            for k, x in enumerate(inc[i]):
                r = (1.0 + r) * math.exp(x)
                if math.log(r) >= log_thresh:
                    stop, stat = k, math.log(r)
                    break
            assert off[i] == stop
            if stop >= 0:
                assert st[i] == pytest.approx(stat, rel=1e-12)

    def test_lb_until_oracle(self):
        rng = np.random.default_rng(17)
        inc = rng.normal(-0.05, 0.4, size=(8, 120))
        stop_steps = rng.integers(1, 121, size=8).astype(np.int64)
        state = (np.zeros(8), np.zeros(8), np.ones(8), np.ones(8))
        kernels.lb_until_scan(inc, *state, 0, stop_steps)
        for i in range(8):
            num, den = _lb_oracle(inc[i], stop_steps[i])
            assert state[2][i] == pytest.approx(num, rel=1e-12)
            assert state[3][i] == pytest.approx(den, rel=1e-12)

    def test_lb_cusum_oracle(self):
        rng = np.random.default_rng(13)
        inc = rng.normal(-0.02, 0.3, size=(64, 257))
        state = (*_fresh_state(64), np.ones(64), np.ones(64))
        off, _, _ = kernels.lb_cusum_scan(inc, *state, 0, 1.2)
        assert (off >= 0).any()
        for i in range(64):
            stop, _, ref = _cusum_oracle(inc[i], 1.2)
            assert off[i] == stop
            assert state[2][i] == ref
            # sums cover steps strictly before the stop
            num, den = _lb_oracle(inc[i], stop + 1 if stop >= 0 else 258)
            assert state[3][i] == pytest.approx(num, rel=1e-12)
            assert state[4][i] == pytest.approx(den, rel=1e-12)


def _phi_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_statistics_are_computed_only_in_kernels():
    """The running minimum and the Shiryaev-Roberts log-sum accumulate live
    in kernels.py alone; every other module calls its primitives."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
    offenders = [f"{path.name}: {pattern}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "kernels.py"
                 for pattern in ("np.minimum.accumulate", "np.logaddexp.accumulate")
                 if pattern in path.read_text()]
    assert (pkg / "kernels.py").exists() and offenders == []


def test_stream_is_the_philox_key_and_components_are_counter_offsets():
    """Component 0 of RngStream(s, i) is Philox keyed [s, i], so rows of an
    old stops.csv for the Brownian and gamma families still replay; component
    c starts that key at counter [0, 0, 0, c]. A change in how numpy seeds
    Philox fails here first."""
    s, i = 8086, stream_id("arl", 123, 2)

    def draws(gen):
        return gen.standard_normal(16)
    assert np.array_equal(draws(RngStream(s, i).generator()),
                          draws(np.random.Generator(np.random.Philox(key=[s, i]))))
    for c in range(1, 5):
        expected = np.random.Generator(np.random.Philox(key=[s, i], counter=[0, 0, 0, c]))
        assert np.array_equal(draws(RngStream(s, i, c).generator()), draws(expected))
    gens = RngStream(s, i).substreams((1, 2))
    assert gens[0] is None
    assert np.array_equal(draws(gens[2]), draws(RngStream(s, i, 2).generator()))


def test_philox_streams_are_built_only_in_rng():
    """Every generator comes from RngStream, so the stream contract lives in
    rng.py alone."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
    offenders = [f"{path.name}: {pattern}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "rng.py"
                 for pattern in ("np.random.Philox", "np.random.Generator(")
                 if pattern in path.read_text()]
    assert "np.random.Philox" in (pkg / "rng.py").read_text() and offenders == []
